//! Seeded mutants of plan JSON never panic the compiler.
//!
//! A serving runtime decodes plans it did not make: stale, foreign or
//! corrupted ones. Each mutant of the zoo's default plans goes through
//! decode → `apply_plan` → `execute`, and every stage must answer `Ok` or
//! `Err`. Hand-written edge cases of each decision kind ride along.

use pimflow::engine::{execute, EngineConfig};
use pimflow::passes::find_chains;
use pimflow::search::{apply_plan, Decision, ExecutionPlan, Search};
use pimflow_ir::{models, Graph};
use pimflow_json::{FromJson, Json, ToJson};
use pimflow_rng::Rng;

/// Where a mutant stopped: rejected on decode, rejected by `apply_plan`,
/// rejected by `execute`, or executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Undecodable,
    Unapplicable,
    Unexecutable,
    Executed,
}

/// Runs plan text through decode → `apply_plan` → `execute` on `g`.
fn run_plan_text(g: &Graph, text: &str) -> Outcome {
    let Ok(plan) = Json::parse(text).and_then(|j| ExecutionPlan::from_json(&j)) else {
        return Outcome::Undecodable;
    };
    let Ok(transformed) = apply_plan(g, &plan) else {
        return Outcome::Unapplicable;
    };
    match execute(&transformed, &EngineConfig::pimflow()) {
        Ok(_) => Outcome::Executed,
        Err(_) => Outcome::Unexecutable,
    }
}

/// Paths (child indices from the root) of every node of `j`.
fn paths(j: &Json, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(at.clone());
    let children: Vec<&Json> = match j {
        Json::Arr(items) => items.iter().collect(),
        Json::Obj(fields) => fields.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        at.push(i);
        paths(child, at, out);
        at.pop();
    }
}

fn node_mut<'a>(j: &'a mut Json, path: &[usize]) -> &'a mut Json {
    match path.split_first() {
        None => j,
        Some((&i, rest)) => match j {
            Json::Arr(items) => node_mut(&mut items[i], rest),
            Json::Obj(fields) => node_mut(&mut fields[i].1, rest),
            _ => unreachable!("paths only descend into containers"),
        },
    }
}

/// Field names and variant tags a plan uses, for renaming fields.
const KEYS: [&str; 12] = [
    "model",
    "decisions",
    "profiles",
    "predicted_us",
    "conv_layer_us",
    "Split",
    "Pipeline",
    "Fused",
    "gpu_percent",
    "node_names",
    "stages",
    "backend",
];

/// Applies one random mutation to the plan tree `j` and returns what it
/// did. `names` are node names of the zoo, so a mutant can point a
/// decision at a real node of the wrong kind or of another model.
fn mutate(rng: &mut Rng, j: &mut Json, names: &[String]) -> String {
    let mut all = Vec::new();
    paths(j, &mut Vec::new(), &mut all);
    // Most mutations land in the decisions, which the profiles would
    // otherwise outnumber.
    let decisions = match &*j {
        Json::Obj(fields) => fields.iter().position(|(k, _)| k == "decisions"),
        _ => None,
    };
    let targets: Vec<Vec<usize>> = match decisions {
        Some(d) if rng.chance(0.9) => all
            .iter()
            .filter(|p| p.first() == Some(&d))
            .cloned()
            .collect(),
        _ => all.clone(),
    };
    let path = rng.pick(&targets).clone();
    let donor = {
        let from = rng.pick(&all).clone();
        node_mut(j, &from).clone()
    };
    let node = node_mut(j, &path);
    if rng.chance(0.2) {
        // Change the node's type: a scalar, an empty container or a copy
        // of another subtree.
        *node = rng
            .pick(&[
                Json::Null,
                Json::Bool(true),
                Json::Num(1.0),
                Json::Str("Gpu".into()),
                Json::Arr(Vec::new()),
                Json::Obj(Vec::new()),
                donor,
            ])
            .clone();
        return format!("{path:?}: replaced by {node:?}");
    }
    match node {
        Json::Num(n) => {
            *n = *rng.pick(&[
                -1.0,
                -0.0,
                0.0,
                0.5,
                1.0,
                2.0,
                3.0,
                4.0,
                7.0,
                50.0,
                99.0,
                100.0,
                101.0,
                255.0,
                4294967295.0,
                4294967296.0,
                9007199254740993.0,
                1e300,
            ]);
            format!("{path:?}: number {n}")
        }
        Json::Str(s) => {
            *s = rng.pick(names).clone();
            format!("{path:?}: string `{s}`")
        }
        Json::Arr(items) if !items.is_empty() => {
            let i = rng.range_usize(0, items.len());
            match rng.range_u32(0, 3) {
                0 => {
                    items.remove(i);
                    format!("{path:?}: drop element {i}")
                }
                1 => {
                    let copy = items[i].clone();
                    items.insert(rng.range_usize(0, items.len() + 1), copy);
                    format!("{path:?}: duplicate element {i}")
                }
                _ => {
                    let k = rng.range_usize(0, items.len());
                    items.swap(i, k);
                    format!("{path:?}: swap elements {i} and {k}")
                }
            }
        }
        Json::Obj(fields) if !fields.is_empty() => {
            let i = rng.range_usize(0, fields.len());
            if rng.chance(0.3) {
                fields.remove(i);
                format!("{path:?}: drop field {i}")
            } else {
                let key = *rng.pick(&KEYS);
                fields[i].0 = key.to_string();
                format!("{path:?}: rename field {i} to `{key}`")
            }
        }
        _ => {
            *node = donor;
            format!("{path:?}: graft another subtree")
        }
    }
}

/// Mutates the serialized text: truncate it, or drop or repeat one byte.
fn mutate_text(rng: &mut Rng, text: &mut String) -> String {
    let at = rng.range_usize(0, text.len() + 1);
    match rng.range_u32(0, 3) {
        0 => {
            text.truncate(at);
            format!("truncate at byte {at}")
        }
        1 if at < text.len() => {
            text.remove(at);
            format!("drop byte {at}")
        }
        _ => {
            let byte = *rng.pick(&['{', '}', '[', ']', ',', '"', ':', '0', '-']);
            text.insert(at, byte);
            format!("insert `{byte}` at byte {at}")
        }
    }
}

/// The zoo's default plans, plus toy with its first chain pipelined at 3
/// stages, so mutants reach every decision kind.
fn corpus() -> Vec<(Graph, Json)> {
    let cfg = EngineConfig::pimflow();
    let mut out: Vec<(Graph, Json)> = ["toy", "squeezenet-1.1", "mobilenet-v2", "mnasnet-1.0"]
        .into_iter()
        .map(|name| {
            let g = models::by_name(name).expect("zoo model");
            let plan = Search::new(&g, &cfg).run().expect("search succeeds");
            (g, plan.to_json())
        })
        .collect();
    let toy = models::toy();
    let chain = find_chains(&toy).remove(0);
    let node_names: Vec<String> = chain
        .nodes
        .iter()
        .map(|&id| toy.node(id).name.clone())
        .collect();
    let pipelined = ExecutionPlan {
        model: toy.name.clone(),
        decisions: vec![(
            node_names[0].clone(),
            Decision::Pipeline {
                node_names,
                stages: 3,
            },
        )],
        profiles: Vec::new(),
        predicted_us: 1.0,
        conv_layer_us: 0.0,
    };
    out.push((toy, pipelined.to_json()));
    out
}

/// At least 1000 seeded mutants of the corpus: each one decodes, applies
/// and executes or is rejected with an `Err`, and never panics.
#[test]
fn mutated_plans_are_rejected_or_run() {
    let corpus = corpus();
    let names: Vec<String> = corpus
        .iter()
        .flat_map(|(g, _)| g.node_ids().map(|id| g.node(id).name.clone()))
        .collect();
    let mut rng = Rng::seed_from_u64(0x91a7_f1e5);
    let mut outcomes = Vec::new();
    for trial in 0..1200 {
        let k = rng.range_usize(0, corpus.len());
        let (g, original) = &corpus[k];
        let mut plan = original.clone();
        let mut applied: Vec<String> = (0..rng.range_usize(1, 4))
            .map(|_| mutate(&mut rng, &mut plan, &names))
            .collect();
        let mut text = plan.to_string_compact();
        if rng.chance(0.1) {
            applied.push(mutate_text(&mut rng, &mut text));
        }
        let outcome = std::panic::catch_unwind(|| run_plan_text(g, &text))
            .unwrap_or_else(|_| panic!("{}, mutant {trial} ({applied:?}) panicked", g.name));
        outcomes.push(outcome);
    }
    for want in [
        Outcome::Undecodable,
        Outcome::Unapplicable,
        Outcome::Executed,
    ] {
        let n = outcomes.iter().filter(|&&o| o == want).count();
        assert!(n >= 50, "{want:?}: {n} of {} mutants", outcomes.len());
    }
}

/// Decisions at the edges of what each kind accepts, on toy: empty and
/// one-member groups and chains, stage counts around the valid range,
/// members out of order or repeated, and decisions keyed by a node other
/// than their first member. Each is rejected or runs, and none panics.
#[test]
fn edge_case_decisions_are_rejected_or_run() {
    let g = models::toy();
    let chain: Vec<String> = find_chains(&g)
        .remove(0)
        .nodes
        .iter()
        .map(|&id| g.node(id).name.clone())
        .collect();
    let conv = chain[0].clone();
    let relu = g
        .node_ids()
        .map(|id| g.node(id).name.clone())
        .find(|n| n.starts_with("relu"))
        .expect("toy has a relu");
    let reversed: Vec<String> = chain.iter().rev().cloned().collect();
    let repeated = vec![conv.clone(), conv.clone()];
    let pipeline = |node_names: &[String], stages| Decision::Pipeline {
        node_names: node_names.to_vec(),
        stages,
    };
    let fused = |node_names: &[String]| Decision::Fused {
        node_names: node_names.to_vec(),
    };
    let cases: Vec<(&str, Vec<(String, Decision)>)> = vec![
        ("empty pipeline", vec![(conv.clone(), pipeline(&[], 2))]),
        (
            "0-stage pipeline",
            vec![(conv.clone(), pipeline(&chain, 0))],
        ),
        (
            "1-stage pipeline",
            vec![(conv.clone(), pipeline(&chain, 1))],
        ),
        (
            "4-stage pipeline",
            vec![(conv.clone(), pipeline(&chain, 4))],
        ),
        (
            "huge-stage pipeline",
            vec![(conv.clone(), pipeline(&chain, usize::MAX))],
        ),
        (
            "reversed pipeline",
            vec![(conv.clone(), pipeline(&reversed, 2))],
        ),
        ("empty fusion group", vec![(conv.clone(), fused(&[]))]),
        (
            "one-member fusion group",
            vec![(conv.clone(), fused(&chain[..1]))],
        ),
        (
            "repeated fusion member",
            vec![(conv.clone(), fused(&repeated))],
        ),
        (
            "reversed fusion group",
            vec![(conv.clone(), fused(&reversed))],
        ),
        (
            "fusion group keyed by another node",
            vec![(relu.clone(), fused(&chain))],
        ),
        (
            "split of a relu",
            vec![(relu, Decision::Split { gpu_percent: 50 })],
        ),
        (
            "split and pipeline of one node",
            vec![
                (conv.clone(), Decision::Split { gpu_percent: 50 }),
                (conv.clone(), pipeline(&chain, 2)),
            ],
        ),
        (
            "pipeline and fusion of one chain",
            vec![
                (conv.clone(), pipeline(&chain, 2)),
                (conv.clone(), fused(&chain)),
            ],
        ),
    ];
    for (label, decisions) in cases {
        let plan = ExecutionPlan {
            model: g.name.clone(),
            decisions,
            profiles: Vec::new(),
            predicted_us: 1.0,
            conv_layer_us: 0.0,
        };
        let text = plan.to_json().to_string_compact();
        std::panic::catch_unwind(|| run_plan_text(&g, &text))
            .unwrap_or_else(|_| panic!("{label} panicked"));
    }
}
