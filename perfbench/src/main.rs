//! End-to-end benchmark of the PIMFlow workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile|infer|serve|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` seconds of measurement and
//! prints, as the last line of standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run records a
//! span around every call into a layer, writes them to
//! `perfbench-out/<workload>-seed<n>.trace.json` (Chrome trace-event
//! format) and reports the per-layer metrics instead. Host figures are
//! measured with one worker thread and reported on a reference machine
//! scale ([`calib`]); simulated figures come from the workspace's GPU+PIM
//! models. `perfbench/README.md` describes every metric.

mod calib;
mod run;
mod stats;
mod trace;
mod workloads;

use run::Run;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Per-layer metrics measured from spans: name, span name.
const LAYER_SPANS: [(&str, &str); 6] = [
    ("search_ms", "search"),
    ("apply_ms", "apply"),
    ("executor_ms", "executor"),
    ("engine_ms", "engine"),
    ("serve_ms", "serve"),
    ("fleet_ms", "fleet"),
];

/// Per-layer counters reported by the program: name, unit.
const LAYER_COUNTERS: [(&str, &str); 10] = [
    ("pim_decisions", "count"),
    ("fused_groups", "count"),
    ("fidelity_gap", "ratio"),
    ("pim_busy_share", "ratio"),
    ("host_pim_kib", "KiB"),
    ("energy_uj", "uJ"),
    ("exec_peak_mib", "MiB"),
    ("cost_cache_hit_rate", "ratio"),
    ("mean_batch", "count"),
    ("node_utilization", "ratio"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line: every metric of the run's mode, with all its digits.
fn result_json(run: &Run, trace: bool) -> String {
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if trace {
        for (name, span) in LAYER_SPANS {
            metrics.push((name, run.layer_ms(span), "ms"));
        }
        for (name, unit) in LAYER_COUNTERS {
            metrics.push((name, run.counter(name), unit));
        }
    } else {
        metrics = vec![
            ("host_ms", run.host_ms(), "ms"),
            ("sim_p50_us", run.sim_p50_us(), "us"),
            ("sim_p99_us", run.sim_p99_us(), "us"),
            ("setup_s", run.setup_median_s(), "s"),
        ];
    }
    let finite = metrics.iter().all(|m| m.1.is_finite());
    let correct = finite && run.failed == 0 && run.errors.is_empty() && run.attempted > 0;
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        run.attempted.max(1),
        run.failed
    )
}

fn write_trace(run: &Run, args: &Args) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench-out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::write(&path, run.tracer.to_chrome_json(&run.models))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "trace: {} spans -> {}",
        run.tracer.spans().len(),
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <compile|infer|serve|fleet> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Library worker pools read PIMFLOW_JOBS; pin every layer to one
    // worker so host figures do not depend on the machine's core count,
    // and clear the other knobs the libraries read from the environment so
    // every run uses their defaults. Done before any thread exists.
    std::env::set_var("PIMFLOW_JOBS", "1");
    std::env::remove_var("PIMFLOW_PLAN_CACHE_CAP");
    std::env::remove_var("PIMFLOW_EXACT_KERNELS");
    let result = match args.workload.as_str() {
        "compile" => workloads::compile(args.seed, args.seconds, args.trace),
        "infer" => workloads::infer(args.seed, args.seconds, args.trace),
        "serve" => workloads::serve(args.seed, args.seconds, args.trace),
        "fleet" => workloads::fleet(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload `{other}`")),
    };
    let run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    eprint!("{}", run.summary());
    for e in &run.errors {
        eprintln!("perfbench: failed: {e}");
    }
    if args.trace {
        if let Err(e) = write_trace(&run, &args) {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{}", result_json(&run, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload infer --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "infer");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(parse_args(&argv("--workload infer --seed x --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload infer --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload infer --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1 --seconds 5")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }
}
