//! Regenerates every figure of the STORM paper as text tables.
//!
//! ```text
//! cargo run --release -p storm-bench --bin figures -- all
//! cargo run --release -p storm-bench --bin figures -- fig3a --n 2000000
//! ```
//!
//! Subcommands: `fig3a fig3b fig5 fig6a fig6b updates io ablate crossover
//! scaling batch kernel faults serve all`. `--n <N>` scales the data set
//! (default 200 000; the paper used ~10⁹ OSM points on a cluster — shapes,
//! not absolute numbers, are the reproduction target). `--seed <S>` changes
//! the workload seed. `batch` additionally writes machine-readable
//! measurements (E12 + the E14 kernel points) into `results/BENCH_results.json`
//! (override the path with `--json <PATH>`), replacing earlier E12/E14
//! entries and keeping E15's. `kernel` runs E14 alone; with
//! `--floor <SAMPLES/S>` it exits non-zero when the best frozen-kernel
//! throughput falls below the floor (the CI bench smoke). `serve` runs E15
//! (multi-session serving vs the naive one-query-at-a-time loop) at
//! 64/256/1024 concurrent sessions — `--smoke` restricts it to 64 — merging
//! its entries into the JSON file; with `--floor <SPEEDUP>` it exits
//! non-zero when serve-vs-naive queries/sec at the largest session count
//! falls below the floor. `ingest` runs E16 (live ingestion through the
//! delta+runs index, alone and under concurrent queries), writing its
//! measurements to the `--json` path (use `results/BENCH_ingest.json`);
//! `--smoke` caps the feed at 30 000 tweets and `--floor <INSERTS/S>`
//! gates the concurrent-ingest rate.

use storm_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut n = 200_000usize;
    let mut seed = 42u64;
    let mut json_path = String::from("results/BENCH_results.json");
    let mut floor: Option<f64> = None;
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--floor" => {
                i += 1;
                floor = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--floor needs a samples/sec number")),
                );
            }
            "--n" => {
                i += 1;
                n = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--n needs an integer"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--json" => {
                i += 1;
                json_path = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| usage("--json needs a path"));
            }
            cmd if command.is_none() && !cmd.starts_with("--") => {
                command = Some(cmd.to_owned());
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    let command = command.unwrap_or_else(|| usage("missing subcommand"));

    let run = |name: &str| {
        println!("{}", dispatch(name, n, seed, &json_path, floor, smoke));
    };
    match command.as_str() {
        "all" => {
            for name in [
                "fig3a",
                "fig3b",
                "fig5",
                "fig6a",
                "fig6b",
                "updates",
                "io",
                "ablate",
                "crossover",
                "scaling",
                "batch",
                "faults",
                "serve",
                "ingest",
            ] {
                run(name);
            }
        }
        name => run(name),
    }
}

fn dispatch(
    name: &str,
    n: usize,
    seed: u64,
    json_path: &str,
    floor: Option<f64>,
    smoke: bool,
) -> String {
    match name {
        "fig3a" => format_table(
            &format!("Figure 3(a) — online sample generation cost (N={n}, q/N=10%)"),
            &run_fig3a(
                n,
                &[0.0001, 0.001, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10],
                seed,
            ),
        ),
        "fig3b" => format_table(
            &format!("Figure 3(b) — relative error of AVG(altitude) over time (N={n})"),
            &run_fig3b(n, &[0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0], seed),
        ),
        "fig5" => format_table(
            "Figure 5 — online KDE density error vs samples (Atlanta zoom & USA)",
            &run_fig5(n.max(50_000), &[50, 100, 250, 500, 1000, 2500, 5000], seed),
        ),
        "fig6a" => format_table(
            "Figure 6(a) — online approximate trajectory deviation vs sampled fraction",
            &run_fig6a(n.max(50_000), &[0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0], seed),
        ),
        "fig6b" => format_table(
            "Figure 6(b) — Atlanta-snow top-term precision vs sampled tweets",
            &run_fig6b(n.max(50_000), &[10, 25, 50, 100, 250, 500, 1000], seed),
        ),
        "updates" => format_table(
            &format!("E7 — ad-hoc update throughput (N={n})"),
            &run_updates(n, (n / 10).max(100), seed),
        ),
        "io" => format_table(
            &format!("E8 — simulated I/O per method and block size (N={n}, q/N=10%)"),
            &run_io(n, &[64, 256, 1024, 4096], seed),
        ),
        "ablate" => format_table(
            &format!("E9 — RS-tree ablation (N={n}, k=1024)"),
            &run_ablation(n, 1024, seed),
        ),
        "scaling" => format_table(
            &format!("E11 — distributed scaling (N={n}, k=2048)"),
            &run_scaling(n, 2048, seed),
        ),
        "crossover" => format_table(
            &format!("E10 — SampleFirst vs RS-tree crossover (N={n}, k=64)"),
            &run_crossover(n, 64, seed),
        ),
        "batch" => {
            let mut points = run_batch_throughput(n, &[1, 2, 4, 8], &[16, 64, 256], seed);
            let split = points.len();
            points.extend(run_kernel_bench(n, &[1, 256, 1024], seed));
            // Replace the E12/E14 entries (the ones carrying `q`), keep E15's.
            let existing = std::fs::read_to_string(json_path).ok();
            let json =
                merge_results_json(existing.as_deref(), &batch_json(&points, &run_stamp()), "q");
            if let Some(dir) = std::path::Path::new(json_path).parent() {
                if !dir.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(dir);
                }
            }
            match std::fs::write(json_path, &json) {
                Ok(()) => eprintln!("wrote {json_path}"),
                Err(e) => eprintln!("warning: could not write {json_path}: {e}"),
            }
            format_table(
                &format!("E12 — batched scatter-gather throughput (N={n}, q/N=10%, WOR)"),
                &batch_rows(&points[..split]),
            ) + &format_table(
                &format!("E14 — frozen single-thread sampling kernel (N={n}, 1 shard, WOR)"),
                &batch_rows(&points[split..]),
            )
        }
        "kernel" => {
            let points = run_kernel_bench(n, &[1, 256, 1024], seed);
            let best = points
                .iter()
                .filter(|p| p.method == "kernel-frozen")
                .map(storm_bench::BatchPoint::samples_per_sec)
                .fold(0.0f64, f64::max);
            let table = format_table(
                &format!("E14 — frozen single-thread sampling kernel (N={n}, 1 shard, WOR)"),
                &batch_rows(&points),
            );
            if let Some(floor) = floor {
                if best < floor {
                    println!("{table}");
                    eprintln!(
                        "error: frozen kernel throughput {best:.0} samples/s below floor {floor:.0}"
                    );
                    std::process::exit(1);
                }
                eprintln!("kernel floor ok: {best:.0} >= {floor:.0} samples/s");
            }
            table
        }
        "serve" => {
            let sessions: &[usize] = if smoke { &[64] } else { &[64, 256, 1024] };
            let points = run_serve_bench(n, sessions, seed);
            let existing = std::fs::read_to_string(json_path).ok();
            let json = merge_results_json(existing.as_deref(), &serve_json(&points), "sessions");
            if let Some(dir) = std::path::Path::new(json_path).parent() {
                if !dir.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(dir);
                }
            }
            match std::fs::write(json_path, &json) {
                Ok(()) => eprintln!("wrote {json_path}"),
                Err(e) => eprintln!("warning: could not write {json_path}: {e}"),
            }
            let table = format_table(
                &format!(
                    "E15 — multi-session serving vs naive one-at-a-time loop (N={n}, {} shards, WR)",
                    points.first().map_or(0, |p| p.shards)
                ),
                &serve_rows(&points),
            );
            if let Some(floor) = floor {
                let top = sessions.iter().copied().max().unwrap_or(0);
                let qps = |method: &str| {
                    points
                        .iter()
                        .find(|p| p.method == method && p.sessions == top)
                        .map_or(0.0, ServePoint::queries_per_sec)
                };
                let speedup = qps("serve") / qps("naive").max(1e-12);
                if speedup < floor {
                    println!("{table}");
                    eprintln!(
                        "error: serve speedup {speedup:.2}x at {top} sessions below floor {floor:.2}x"
                    );
                    std::process::exit(1);
                }
                eprintln!("serve floor ok: {speedup:.2}x >= {floor:.2}x at {top} sessions");
            }
            table
        }
        "faults" => format_table(
            &format!("E13 — degraded-mode recovery vs fault rate (N={n}, 4 shards, WOR)"),
            &run_fault_recovery(n, &[0, 50, 100, 200, 400], seed),
        ),
        "ingest" => {
            let tweets = if smoke { n.min(30_000) } else { n };
            let points = run_ingest_bench(tweets, seed);
            let json = ingest_json(&points);
            // E16 owns its own artifact: never clobber the E12/E15 file
            // when `--json` was left at its default.
            let json_path = if json_path == "results/BENCH_results.json" {
                "results/BENCH_ingest.json"
            } else {
                json_path
            };
            if let Some(dir) = std::path::Path::new(json_path).parent() {
                if !dir.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(dir);
                }
            }
            match std::fs::write(json_path, &json) {
                Ok(()) => eprintln!("wrote {json_path}"),
                Err(e) => eprintln!("warning: could not write {json_path}: {e}"),
            }
            let table = format_table(
                &format!("E16 — live ingestion: delta+runs index under load (N={tweets} tweets)"),
                &ingest_rows(&points),
            );
            if let Some(floor) = floor {
                let live = points
                    .iter()
                    .find(|p| p.method == "ingest+query")
                    .map_or(0.0, IngestPoint::inserts_per_sec);
                if live < floor {
                    println!("{table}");
                    eprintln!(
                        "error: concurrent ingest throughput {live:.0} inserts/s below floor {floor:.0}"
                    );
                    std::process::exit(1);
                }
                eprintln!("ingest floor ok: {live:.0} >= {floor:.0} inserts/s");
            }
            table
        }
        other => usage(&format!("unknown subcommand '{other}'")),
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: figures <fig3a|fig3b|fig5|fig6a|fig6b|updates|io|ablate|crossover|scaling|batch\
         |kernel|faults|serve|ingest|all> [--n N] [--seed S] [--json PATH] \
         [--floor SAMPLES/S (kernel) | SPEEDUP (serve) | INSERTS/S (ingest)] [--smoke]"
    );
    std::process::exit(2);
}
