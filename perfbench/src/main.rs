//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table2_compiled|table3_campaign|verifd_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report (host, every metric by name and
//! unit, each end-to-end time in reference-host seconds with its
//! wall-clock value beside it, the latency modes of the op mix, the
//! model's error against Table II, per-layer self times when traced)
//! and, as the last line,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for the workloads, the
//! metrics and the steadiness evidence.

mod calib;
mod run;
mod stats;
mod table2;
mod table3;
mod trace;
mod verifd_mix;

use run::Run;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics, with units (every workload reports each).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
];

/// The per-layer metrics, with units. A workload that does not exercise
/// a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("rtlsim.evals_per_cycle", "count/cycle"),
    ("rtlsim.deltas_per_cycle", "count/cycle"),
    ("rtlsim.events_per_cycle", "count/cycle"),
    ("rtlsim.host_ns_per_eval", "ns"),
    ("rtlsim.host_ns_per_event", "ns"),
    ("rtlsim.compiled.skip_share", "ratio"),
    ("rtlsim.compiled.fallback_cycle_share", "ratio"),
    ("rtlsim.compiled.plan_s", "s"),
    ("engines.cie.host_s_per_sim_ms", "s/ms"),
    ("engines.me.host_s_per_sim_ms", "s/ms"),
    ("resim.dpr.host_s_per_sim_ms", "s/ms"),
    ("ppc.isr_other.host_s_per_sim_ms", "s/ms"),
    ("resim.icap_words", "count"),
    ("resim.swaps", "count"),
    ("ppc.instret", "count"),
    ("ppc.isr_cycles", "cycles"),
    ("model.cie_sim_ms", "ms"),
    ("model.me_sim_ms", "ms"),
    ("model.isr_sim_ms", "ms"),
    ("model.dpr_sim_ms", "ms"),
    ("model.frame_sim_ms", "ms"),
    ("autovision.artifacts_cold_s", "s"),
    ("video.golden_s", "s"),
    ("autovision.build_s", "s"),
    ("autovision.cache_hit_ratio", "ratio"),
    ("verif.busy_share", "ratio"),
    ("verif.idle_s", "s"),
    ("verif.max_reorder_depth", "count"),
    ("verif.row_render_s", "s"),
    ("verifd.accept_s", "s"),
    ("verifd.row_interval_p50_s", "s"),
    ("verifd.watch_replay_s", "s"),
    ("verifd.scrape_s", "s"),
    ("verifd.rejected", "count"),
    ("obs.snapshot_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.failed_share", "ratio"),
    ("bench.first_row_p50_s", "s"),
    ("bench.peak_rss_mb", "MB"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["table2_compiled", "table3_campaign", "verifd_mix"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where the benchmark writes its trace and the daemon's socket: under
/// the build directory of the checkout.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
        .join("perfbench")
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run one workload once.
fn run_workload(a: &Args, trace: bool) -> Result<Run, String> {
    let secs = a.seconds as f64;
    Ok(match a.workload.as_str() {
        "table2_compiled" => table2::run(&table2::Plan::paper(a.seed), secs, trace),
        "table3_campaign" => table3::run(&table3::Plan::paper(a.seed, nproc()), secs, trace),
        _ => verifd_mix::run(
            &verifd_mix::Plan::paper(a.seed, nproc(), out_dir()),
            secs,
            trace,
        )
        .map_err(|e| format!("verifd_mix: {e}"))?,
    })
}

/// The summary of one run's ops.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub tail: Option<stats::Tail>,
    pub ops_per_s: f64,
    pub p50_mode: stats::ModePosition,
    pub tail_mode: Option<stats::ModePosition>,
    pub failed: usize,
}

/// Order statistics and mode positions of a run's ops, in
/// reference-host seconds.
pub fn summarize(run: &Run) -> Summary {
    summarize_by(run, |o| o.latency_s, run.measured_s)
}

/// The same in wall-clock seconds.
pub fn summarize_raw(run: &Run) -> Summary {
    summarize_by(run, |o| o.raw_s, run.measured_raw_s)
}

fn summarize_by(run: &Run, latency: fn(&run::Op) -> f64, measured_s: f64) -> Summary {
    let mut tagged: Vec<(f64, &'static str)> =
        run.ops.iter().map(|o| (latency(o), o.mode)).collect();
    tagged.sort_by(|a, b| a.0.total_cmp(&b.0));
    let sorted: Vec<f64> = tagged.iter().map(|t| t.0).collect();
    let p50_rank = stats::rank(sorted.len(), 0.5);
    let tail = stats::tail(&sorted);
    Summary {
        p50: sorted[p50_rank],
        tail,
        ops_per_s: run.ops.len() as f64 / measured_s,
        p50_mode: stats::mode_position(&tagged, p50_rank),
        tail_mode: tail.map(|t| stats::mode_position(&tagged, t.rank)),
        failed: run.failed(),
    }
}

fn print_modes(run: &Run, s: &Summary) {
    let groups = |key: fn(&run::Op) -> &'static str| {
        let mut keys: Vec<&str> = run.ops.iter().map(key).collect();
        keys.sort_unstable();
        keys.dedup();
        for k in keys {
            let mut v: Vec<f64> = run
                .ops
                .iter()
                .filter(|o| key(o) == k)
                .map(|o| o.latency_s)
                .collect();
            v.sort_by(f64::total_cmp);
            println!(
                "  {k:<10} {:>6} ops {:>6.1} %   min {:.6}  p25 {:.6}  p50 {:.6}  p75 {:.6}  max {:.6} s",
                v.len(),
                100.0 * v.len() as f64 / run.ops.len() as f64,
                v[0],
                stats::percentile(&v, 0.25),
                stats::percentile(&v, 0.5),
                stats::percentile(&v, 0.75),
                v[v.len() - 1]
            );
        }
    };
    println!("op classes ({} ops):", run.ops.len());
    groups(|o| o.class);
    println!("latency modes:");
    groups(|o| o.mode);
    println!(
        "  op_p50_s  sits in {:<10} {} ranks from another mode, neighbourhood {:.0} % same mode",
        s.p50_mode.class,
        s.p50_mode.margin,
        100.0 * s.p50_mode.purity
    );
    match (s.tail, &s.tail_mode) {
        (Some(t), Some(m)) => println!(
            "  op_tail_s is p{} with {} samples beyond; sits in {:<10} {} ranks from another mode, \
             neighbourhood {:.0} % same mode",
            t.q * 100.0,
            t.beyond,
            m.class,
            m.margin,
            100.0 * m.purity
        ),
        _ => println!(
            "  op_tail_s: no percentile has {} samples beyond it",
            stats::TAIL_MIN_BEYOND
        ),
    }
}

/// The metric object of the result line.
fn metrics_json(values: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed {} seconds {} trace {} | nproc {} | cpu {}",
        a.workload,
        a.seed,
        a.seconds,
        a.trace as u8,
        nproc(),
        cpu_model()
    );

    // End-to-end figures always come from an untraced run; a traced
    // run follows it when asked for, and the two give the overhead.
    let plain = match run_workload(&a, false) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let s = summarize(&plain);
    let Some(tail) = s.tail else {
        eprintln!(
            "perfbench: {} ops is too few for a tail percentile with {} samples beyond",
            plain.ops.len(),
            stats::TAIL_MIN_BEYOND
        );
        return ExitCode::from(1);
    };
    let e2e = [
        stats::median(&plain.setup_s),
        s.p50,
        tail.value,
        s.ops_per_s,
    ];
    let raw = summarize_raw(&plain);
    let wall = [
        stats::median(&plain.setup_raw_s),
        raw.p50,
        raw.tail.map_or(f64::NAN, |t| t.value),
        raw.ops_per_s,
    ];
    println!(
        "end-to-end (untraced; reference-host seconds, wall-clock seconds on this host beside):"
    );
    for (((name, unit), v), w) in END_TO_END.iter().zip(e2e).zip(wall) {
        println!("  {name:<20} {v:>14.6} {unit:<4} wall {w:>14.6} {unit}");
    }
    println!("  set-up samples {:?} s", plain.setup_s);
    if !plain.first_row_s.is_empty() {
        println!(
            "  first row      {:.6} s (median of {})",
            stats::median(&plain.first_row_s),
            plain.first_row_s.len()
        );
    }
    println!("  peak RSS       {:.3} MB", plain.peak_rss_mb);
    println!(
        "  host speed     median {:.4} over {} calibrations (reference-host seconds are wall-clock seconds times this)",
        stats::median(&plain.host_speed),
        plain.host_speed.len()
    );
    print_modes(&plain, &s);
    println!(
        "failed ops: {} of {} ({:.3} %)",
        s.failed,
        plain.ops.len(),
        100.0 * s.failed as f64 / plain.ops.len() as f64
    );
    for n in &plain.notes {
        println!("{n}");
    }

    let (mut attempted, mut failed) = (plain.ops.len(), s.failed);
    let metrics = if a.trace {
        let traced = match run_workload(&a, true) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        };
        let ts = summarize(&traced);
        attempted += traced.ops.len();
        failed += ts.failed;
        let mut layers = traced.layers.clone();
        layers.insert("bench.trace_overhead", ts.ops_per_s / s.ops_per_s);
        layers.insert(
            "bench.failed_share",
            ts.failed as f64 / traced.ops.len() as f64,
        );
        if !traced.first_row_s.is_empty() {
            layers.insert("bench.first_row_p50_s", stats::median(&traced.first_row_s));
        }
        layers.insert("bench.peak_rss_mb", traced.peak_rss_mb);
        println!(
            "per-layer (traced run, {} spans):",
            traced.tracer.spans().len()
        );
        let values: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, layers.get(n).copied().unwrap_or(0.0)))
            .collect();
        for (n, u, v) in &values {
            println!("  {n:<38} {v:>16.6} {u}");
        }
        print_self_times(&traced);
        let path = out_dir().join(format!("trace-{}-{}.json", a.workload, a.seed));
        match traced.tracer.write_chrome(&path) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        metrics_json(&values)
    } else {
        let values: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(n, u), v)| (n, u, v))
            .collect();
        metrics_json(&values)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}

/// Per-span-name self time of the traced run.
fn print_self_times(run: &Run) {
    let spans = run.tracer.spans();
    let selfs = run.tracer.self_times();
    let mut by: std::collections::BTreeMap<&str, (usize, f64)> = Default::default();
    for (s, t) in spans.iter().zip(selfs) {
        let e = by.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t;
    }
    println!("self time by span:");
    for (name, (n, t)) in by {
        println!("  {name:<26} {n:>7} spans {t:>12.6} s");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use run::Op;
    use trace::Tracer;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(
            "--workload verifd_mix --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "verifd_mix".into(),
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload verifd_mix --seed")).is_err());
    }

    fn run_of(ops: Vec<Op>) -> Run {
        Run {
            setup_s: vec![1.0],
            setup_raw_s: vec![1.0],
            ops,
            measured_s: 2.0,
            measured_raw_s: 2.0,
            first_row_s: vec![],
            peak_rss_mb: 1.0,
            layers: Default::default(),
            notes: vec![],
            tracer: Tracer::new(false, std::time::Instant::now()),
            host_speed: vec![1.0],
        }
    }

    #[test]
    fn failed_ops_count_against_attempted() {
        let mut ops: Vec<Op> = (0..120).map(|i| Op::ok(i as f64, "a")).collect();
        ops[3].failed = true;
        ops[77].failed = true;
        let s = summarize(&run_of(ops));
        assert_eq!(s.failed, 2);
        // Failed ops still count as attempted ops and in the rates.
        assert_eq!(s.ops_per_s, 60.0);
        assert_eq!(s.tail.map(|t| t.q), Some(0.90));
    }

    #[test]
    fn percentiles_report_their_mode() {
        // 90 light ops and 30 heavy ones: the median sits among the
        // light ops, p90 among the heavy ones.
        let ops: Vec<Op> = (0..120)
            .map(|i| {
                if i < 90 {
                    Op::ok(0.01 + i as f64 * 1e-4, "light")
                } else {
                    Op::ok(1.0 + i as f64 * 1e-3, "heavy")
                }
            })
            .collect();
        let s = summarize(&run_of(ops));
        assert_eq!(s.p50_mode.class, "light");
        assert_eq!(s.p50_mode.margin, 31);
        let m = s.tail_mode.expect("tail");
        assert_eq!(m.class, "heavy");
        assert_eq!(m.margin, 18);
    }

    fn assert_clean(r: &Run) {
        assert!(!r.ops.is_empty(), "no ops measured");
        let failed: Vec<&Op> = r.ops.iter().filter(|o| o.failed).collect();
        assert!(failed.is_empty(), "failed ops: {failed:?}\n{:?}", r.notes);
        assert!(r.setup_s.iter().all(|s| *s > 0.0));
    }

    #[test]
    fn smoke_table2_compiled() {
        let r = table2::run(&table2::Plan::smoke(3), 1.0, true);
        assert_clean(&r);
        for key in [
            "model.frame_sim_ms",
            "rtlsim.evals_per_cycle",
            "resim.swaps",
            "video.golden_s",
        ] {
            assert!(r.layers.get(key).is_some_and(|v| *v > 0.0), "{key}");
        }
        assert!(r.tracer.spans().iter().any(|s| s.name == "rtlsim.run_for"));
        // The small system finishes its frames well within the second,
        // so the run restarts it, and every pass repeats the first.
        let windows = r.notes.last().expect("windows note");
        let passes: usize = windows
            .split(" passes")
            .next()
            .and_then(|h| h.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .expect("pass count in the windows note");
        assert!(passes >= 2, "{windows}");
        assert!(
            windows.contains("first pass 0,") && windows.contains("reference mismatches 0 "),
            "{windows}"
        );
    }

    #[test]
    fn smoke_table3_campaign() {
        let r = table3::run(&table3::Plan::smoke(3, 2), 0.5, false);
        assert_clean(&r);
        // Two repetitions of two two-run recovery batches.
        assert_eq!(r.ops.len(), 8);
        assert_eq!(r.first_row_s.len(), 2);
    }

    #[test]
    fn smoke_verifd_mix() {
        let dir = PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../.bench_build/perfbench-test"
        ));
        let r =
            verifd_mix::run(&verifd_mix::Plan::smoke(3, 2, dir), 1.5, true).expect("daemon runs");
        assert_clean(&r);
        assert!(r.ops.iter().any(|o| o.class == "write"));
        assert!(r.ops.iter().any(|o| o.class != "write"));
        assert_eq!(r.layers.get("verifd.rejected"), Some(&0.0));
        assert_eq!(r.layers.get("autovision.cache_hit_ratio"), Some(&1.0));
    }

    #[test]
    fn benchmark_json_lists_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let v = obs::json::Json::parse(&doc).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_array())
                .expect("array")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let pairs = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), pairs(&END_TO_END));
        assert_eq!(names("per_layer"), pairs(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
