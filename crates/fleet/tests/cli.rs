//! End-to-end test of the `pimflow` CLI: the artifact's three-step workflow
//! (profile -> solve -> run) against the Toy network.

use std::process::Command;

fn pimflow(args: &[&str], dir: &std::path::Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pimflow"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn artifact_workflow_profile_solve_run() {
    let dir = std::env::temp_dir().join(format!("pimflow-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Step 1: profile with both transformation passes.
    let (ok, out) = pimflow(&["-m=profile", "-t=split", "-n=toy"], &dir);
    assert!(ok, "{out}");
    assert!(out.contains("MD-DP candidate layers"), "{out}");
    let (ok, out) = pimflow(&["-m=profile", "-t=pipeline", "-n=toy"], &dir);
    assert!(ok, "{out}");

    // Step 2: compute the optimal graph.
    let (ok, out) = pimflow(&["-m=solve", "-n=toy"], &dir);
    assert!(ok, "{out}");
    assert!(out.contains("optimal plan"), "{out}");
    assert!(dir.join("pimflow-out/plans/toy.json").exists());

    // Step 3: run, both GPU-only and with the saved plan.
    let (ok, out) = pimflow(&["-m=run", "-n=toy", "--gpu_only"], &dir);
    assert!(ok, "{out}");
    assert!(out.contains("GPU baseline"), "{out}");
    let (ok, out) = pimflow(&["-m=run", "-n=toy"], &dir);
    assert!(ok, "{out}");
    assert!(out.contains("using saved plan"), "{out}");
    assert!(out.contains("PIMFlow"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_mode_writes_parseable_traces() {
    use pimflow::codegen::{execute_workload, PimWorkload};
    use pimflow::policy::Policy;
    use pimflow_isa::{parse_program, validate_program, FusedRole, MachineSpec};
    use pimflow_pimsim::{NewtonInterpreter, ScheduleGranularity};

    let dir = std::env::temp_dir().join(format!("pimflow-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (ok, out) = pimflow(&["-m=trace", "-n=toy"], &dir);
    assert!(ok, "{out}");
    let trace_dir = dir.join("pimflow-out/traces/toy");
    // The files are the programs of the default policy's configuration.
    let cfg = Policy::Pimflow.engine_config();
    let spec = MachineSpec {
        num_buffers: cfg.pim.num_global_buffers,
        buffer_bytes: cfg.pim.global_buffer_bytes,
    };
    let g = pimflow_ir::models::toy();
    let mut found = 0;
    for id in g.node_ids().filter(|&id| g.is_pim_candidate(id)) {
        let name = g.node(id).name.replace("::", "_");
        let path = trace_dir.join(format!("{name}.isa"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let program = parse_program(&text).expect("program parses");
        assert_eq!(program.num_channels(), cfg.pim_channels, "{name}");
        validate_program(&program, &spec).unwrap_or_else(|v| panic!("{name}: {v}"));
        let (merged, _) = NewtonInterpreter::new(&cfg.pim).run(&program);
        let (priced, _) = execute_workload(
            &PimWorkload::from_node(&g, id),
            &cfg.pim,
            cfg.pim_channels,
            ScheduleGranularity::Comp,
            FusedRole::Standalone,
        );
        assert_eq!(merged, priced.stats, "{name}: interpreted vs priced");
        found += 1;
    }
    assert_eq!(
        std::fs::read_dir(&trace_dir).unwrap().count(),
        found,
        "one program per candidate layer"
    );
    assert!(
        found >= 4,
        "expected programs for every candidate layer, got {found}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn info_mode_prints_summary_and_writes_dot() {
    let dir = std::env::temp_dir().join(format!("pimflow-info-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (ok, out) = pimflow(&["-m=info", "-n=toy"], &dir);
    assert!(ok, "{out}");
    assert!(out.contains("MMACs"), "{out}");
    let dot = std::fs::read_to_string(dir.join("pimflow-out/dot/toy.dot")).unwrap();
    assert!(dot.starts_with("digraph"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_model_fails_cleanly() {
    let dir = std::env::temp_dir();
    let (ok, out) = pimflow(&["-m=run", "-n=alexnet"], &dir);
    assert!(!ok);
    assert!(out.contains("unknown network"), "{out}");
}

#[test]
fn bad_arguments_fail_cleanly() {
    let dir = std::env::temp_dir();
    let (ok, out) = pimflow(&["--frobnicate"], &dir);
    assert!(!ok);
    assert!(out.contains("usage"), "{out}");
}

#[test]
fn policy_selection_works() {
    let dir = std::env::temp_dir();
    let (ok, out) = pimflow(&["-m=run", "-n=toy", "--policy=Newton++"], &dir);
    assert!(ok, "{out}");
    assert!(out.contains("Newton++"), "{out}");
}

#[test]
fn serve_runs_and_is_deterministic() {
    let dir = std::env::temp_dir().join(format!("pimflow-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let args = [
        "serve",
        "--model",
        "toy",
        "--policy",
        "pimflow",
        "--arrival",
        "poisson",
        "--rps",
        "2000",
        "--duration",
        "0.05",
        "--seed",
        "42",
        "--events-out",
        "events.jsonl",
        "--report-out",
        "report.json",
    ];
    let (ok, out1) = pimflow(&args, &dir);
    assert!(ok, "{out1}");
    assert!(out1.contains("p50"), "{out1}");
    assert!(out1.contains("hit rate"), "{out1}");
    assert!(out1.contains("pim channel utilization"), "{out1}");
    let events1 = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    assert!(events1.lines().count() > 10);
    let report = std::fs::read_to_string(dir.join("report.json")).unwrap();
    assert!(report.contains("throughput_rps"), "{report}");

    // Same seed: byte-identical summary and event trace.
    let (ok, out2) = pimflow(&args, &dir);
    assert!(ok, "{out2}");
    assert_eq!(out1, out2, "serve output must be deterministic");
    let events2 = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    assert_eq!(events1, events2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_normalizes_model_aliases() {
    let dir = std::env::temp_dir();
    let (ok, out) = pimflow(
        &[
            "serve",
            "--model",
            "resnet50",
            "--rps",
            "200",
            "--duration",
            "0.01",
        ],
        &dir,
    );
    assert!(ok, "{out}");
    assert!(out.contains("resnet-50"), "{out}");
}

#[test]
fn serve_accepts_equals_style_flags() {
    let dir = std::env::temp_dir();
    let (ok, out) = pimflow(
        &[
            "serve",
            "--model=toy",
            "--policy=baseline",
            "--rps=1000",
            "--duration=0.01",
        ],
        &dir,
    );
    assert!(ok, "{out}");
    assert!(out.contains("Baseline"), "{out}");
}

#[test]
fn serve_replays_a_trace_file() {
    let dir = std::env::temp_dir().join(format!("pimflow-servetrace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("arrivals.txt"), "# three requests\n0\n100\n250\n").unwrap();
    let (ok, out) = pimflow(
        &[
            "serve",
            "--model",
            "toy",
            "--arrival",
            "trace",
            "--trace-file",
            "arrivals.txt",
            "--duration",
            "1",
        ],
        &dir,
    );
    assert!(ok, "{out}");
    assert!(out.contains("3 arrived, 3 completed"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_bad_flags() {
    let dir = std::env::temp_dir();
    let (ok, out) = pimflow(&["serve", "--model", "toy", "--rps", "-5"], &dir);
    assert!(!ok);
    assert!(out.contains("--rps must be positive"), "{out}");
    let (ok, out) = pimflow(&["serve"], &dir);
    assert!(!ok);
    assert!(out.contains("missing --model"), "{out}");
    let (ok, out) = pimflow(&["serve", "--model", "toy", "--frobnicate"], &dir);
    assert!(!ok);
    assert!(out.contains("unknown serve argument"), "{out}");
    let (ok, out) = pimflow(&["serve", "--model", "gpt-5"], &dir);
    assert!(!ok);
    assert!(out.contains("unknown model"), "{out}");
}

#[test]
fn fleet_runs_and_is_deterministic() {
    let dir = std::env::temp_dir().join(format!("pimflow-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let args = [
        "fleet",
        "--model",
        "toy",
        "--nodes",
        "3",
        "--tenants",
        "3",
        "--rps",
        "3000",
        "--router",
        "slo",
        "--duration",
        "0.05",
        "--seed",
        "7",
        "--events-out",
        "fleet-events.jsonl",
        "--report-out",
        "fleet-report.json",
    ];
    let (ok, out1) = pimflow(&args, &dir);
    assert!(ok, "{out1}");
    assert!(out1.contains("slo-aware"), "{out1}");
    assert!(out1.contains("0 dropped"), "{out1}");
    assert!(out1.contains("tenant"), "{out1}");
    let events1 = std::fs::read_to_string(dir.join("fleet-events.jsonl")).unwrap();
    assert!(events1.lines().count() > 10);
    let report = std::fs::read_to_string(dir.join("fleet-report.json")).unwrap();
    assert!(report.contains("fleet_utilization"), "{report}");
    assert!(report.contains("\"dropped\": 0"), "{report}");

    // Same seed: byte-identical summary and event trace.
    let (ok, out2) = pimflow(&args, &dir);
    assert!(ok, "{out2}");
    assert_eq!(out1, out2, "fleet output must be deterministic");
    let events2 = std::fs::read_to_string(dir.join("fleet-events.jsonl")).unwrap();
    assert_eq!(events1, events2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_survives_node_faults_without_drops() {
    let dir = std::env::temp_dir();
    let (ok, out) = pimflow(
        &[
            "fleet",
            "--model=toy",
            "--nodes=3",
            "--tenants=2",
            "--rps=2000",
            "--duration=0.03",
            "--faults=0.5",
            "--fault-seed=11",
        ],
        &dir,
    );
    assert!(ok, "{out}");
    assert!(out.contains("node transitions"), "{out}");
    assert!(out.contains("0 dropped"), "{out}");
}

#[test]
fn fleet_rejects_bad_flags() {
    let dir = std::env::temp_dir();
    let (ok, out) = pimflow(&["fleet", "--model", "toy", "--rps", "-5"], &dir);
    assert!(!ok);
    assert!(out.contains("--rps must be positive"), "{out}");
    let (ok, out) = pimflow(&["fleet"], &dir);
    assert!(!ok);
    assert!(out.contains("missing --model"), "{out}");
    let (ok, out) = pimflow(&["fleet", "--model", "toy", "--frobnicate"], &dir);
    assert!(!ok);
    assert!(out.contains("unknown fleet argument"), "{out}");
    let (ok, out) = pimflow(&["fleet", "--model", "toy", "--router", "random"], &dir);
    assert!(!ok);
    assert!(out.contains("unknown router"), "{out}");
    let (ok, out) = pimflow(&["fleet", "--model", "toy", "--plan-cache-cap", "0"], &dir);
    assert!(!ok);
    assert!(out.contains("--plan-cache-cap must be at least 1"), "{out}");
}

#[test]
fn serve_plan_cache_cap_flag_works() {
    let dir = std::env::temp_dir();
    let (ok, out) = pimflow(
        &[
            "serve",
            "--model=toy",
            "--rps=1000",
            "--duration=0.02",
            "--plan-cache-cap=1",
        ],
        &dir,
    );
    assert!(ok, "{out}");
    assert!(out.contains("hit rate"), "{out}");
    let (ok, out) = pimflow(&["serve", "--model=toy", "--plan-cache-cap=0"], &dir);
    assert!(!ok);
    assert!(out.contains("--plan-cache-cap must be at least 1"), "{out}");
}
