//! `storm-e2e`: this repository's benchmark.
//!
//! ```text
//! storm-e2e run      [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                    [--smoke] [--out FILE] [--record]
//! storm-e2e trace    [--workload W] [--seed N] [--seconds S] [--smoke] [--out FILE]
//! storm-e2e compare  A.json B.json
//! storm-e2e selfcheck [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! Run it from the repository root: the socket, the trace files and the
//! trajectory file live under `benchmark/`. See `benchmark/README.md`.

mod gen;
mod report;
mod sched;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use report::{Spec, Verdict, WorkloadResult};
use storm_store::Value;
use workloads::{engine, ingest, serve, Opts};

const TRAJECTORY: &str = "benchmark/results/BENCH_e2e.json";
const DEFAULT_SEED: u64 = 2015;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    record: bool,
    files: Vec<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        record: false,
        files: Vec::new(),
    };
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => a.smoke = true,
            "--record" => a.record = true,
            "--out" => a.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.files.push(arg),
        }
    }
    Ok(a)
}

fn run_workload(name: &str, opts: &Opts) -> Option<WorkloadResult> {
    Some(match name {
        "serve_short" => serve::run(serve::SERVE_SHORT, opts),
        "converge_ci" => serve::run(serve::CONVERGE_CI, opts),
        "ingest_mixed" => ingest::run(opts),
        "engine_ql" => engine::run(opts),
        _ => return None,
    })
}

/// The names a result must carry, no more and no fewer, or the binary and
/// `BENCHMARK.json` have drifted apart.
fn check_names(result: &WorkloadResult, spec: &Spec, traced: bool) -> Result<(), String> {
    let want: Vec<&str> = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    }
    .iter()
    .map(|m| m.name.as_str())
    .collect();
    let got: Vec<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
    let (mut w, mut g) = (want.clone(), got.clone());
    w.sort_unstable();
    g.sort_unstable();
    if w != g {
        return Err(format!(
            "{}: reported {got:?}, BENCHMARK.json lists {want:?}",
            result.workload
        ));
    }
    if let Some(m) = result.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{}: {} has no value", result.workload, m.name));
    }
    Ok(())
}

/// Runs one workload in this process; prints its table and driver line.
fn run_here(name: &str, a: &Args, spec: &Spec) -> Result<Value, String> {
    let opts = Opts {
        seed: a.seed,
        seconds: a
            .seconds
            .unwrap_or(if a.smoke { 2.0 } else { spec.run_seconds }),
        smoke: a.smoke,
        trace: a.trace,
    };
    let result = run_workload(name, &opts).ok_or_else(|| {
        let known = spec.workloads.join(", ");
        format!("unknown workload '{name}' (have: {known})")
    })?;
    check_names(&result, spec, a.trace)?;
    result.print();
    println!("{}", result.driver_line());
    Ok(result.to_value())
}

/// Runs one workload in a child process and reads back what it stored, so
/// that a whole-suite run measures each workload exactly as a
/// single-workload run does: fresh address space, its own peak RSS.
fn run_in_child(name: &str, a: &Args) -> Result<Value, String> {
    let out = format!("benchmark/out/suite-{name}.json");
    std::fs::create_dir_all("benchmark/out").map_err(|e| format!("benchmark/out: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child.args(["run", "--workload", name, "--out", &out]);
    child.args(["--seed", &a.seed.to_string()]);
    child.args(["--trace", if a.trace { "1" } else { "0" }]);
    if let Some(s) = a.seconds {
        child.args(["--seconds", &s.to_string()]);
    }
    if a.smoke {
        child.arg("--smoke");
    }
    let status = child.status().map_err(|e| format!("{name}: {e}"))?;
    if !status.success() {
        return Err(format!("{name}: child exited with {status}"));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("{out}: {e}"))?;
    report::load_run(&text)?
        .get("workloads")
        .and_then(Value::as_array)
        .and_then(|w| w.first().cloned())
        .ok_or_else(|| format!("{out}: no workload inside"))
}

/// Runs the named workload, or every workload one after the other.
fn run_suite(a: &Args, spec: &Spec) -> Result<Vec<Value>, String> {
    match &a.workload {
        Some(name) => Ok(vec![run_here(name, a, spec)?]),
        None => spec
            .workloads
            .iter()
            .map(|name| run_in_child(name, a))
            .collect(),
    }
}

fn store(a: &Args, workloads: Vec<Value>) -> Result<(), String> {
    if a.out.is_none() && !a.record {
        return Ok(());
    }
    let run = report::run_value(report::meta(a.seed), workloads);
    if let Some(path) = &a.out {
        std::fs::write(path, storm_store::json::to_string(&run) + "\n")
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if a.record {
        let existing = std::fs::read_to_string(TRAJECTORY).ok();
        let text = report::append_run(existing.as_deref(), &run)?;
        std::fs::write(TRAJECTORY, text).map_err(|e| format!("{TRAJECTORY}: {e}"))?;
        eprintln!("appended to {TRAJECTORY}");
    }
    Ok(())
}

fn compare_files(a: &Args, spec: &Spec) -> Result<bool, String> {
    let [fa, fb] = a.files.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        report::load_run(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = report::compare(&load(fa)?, &load(fb)?, spec);
    if rows.is_empty() {
        return Err("the two files share no workload and metric".into());
    }
    report::print_comparison(&rows);
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

fn selfcheck(a: &Args, spec: &Spec) -> Result<bool, String> {
    let first = report::run_value(report::meta(a.seed), run_suite(a, spec)?);
    let second = report::run_value(report::meta(a.seed), run_suite(a, spec)?);
    let rows = report::compare(&first, &second, spec);
    report::print_comparison(&rows);
    Ok(rows.iter().all(|r| r.verdict == Verdict::Same))
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let outcome = parse_args(argv).and_then(|mut a| {
        let spec = report::spec();
        match command.as_str() {
            "run" | "trace" => {
                a.trace |= command == "trace";
                run_suite(&a, &spec)
                    .and_then(|r| store(&a, r))
                    .map(|()| true)
            }
            "compare" => compare_files(&a, &spec),
            "selfcheck" => selfcheck(&a, &spec),
            _ => Err(
                "usage: storm-e2e run|trace|compare|selfcheck [flags] (see benchmark/README.md)"
                    .into(),
            ),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("storm-e2e: {message}");
            ExitCode::from(2)
        }
    }
}
