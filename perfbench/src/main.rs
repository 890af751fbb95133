//! `modref-perfbench`: the end-to-end benchmark of the designer's loop
//! (`explore`, then `verify`, through `modref_core::api::Codesign`) and
//! of `modref serve` (a `--listen` subprocess driven over TCP).
//!
//! ```text
//! modref-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--synth-seed <n>] [--modref <path>] [--out-dir <dir>]
//! ```
//!
//! Prints one line per metric, then — as the last line — one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, and the run writes its span trace to
//! `<out-dir>/<workload>.trace.jsonl` (render it with `modref report`).
//! Exits non-zero when any output differs from its expected value or
//! any operation fails. See `README.md` for the workloads and metrics.

mod designer;
mod measure;
mod serving;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::Report;

const WORKLOADS: [&str; 4] = [
    "medical_verify",
    "medical_explore",
    "synth64_traces",
    "serve_mix",
];

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of the traced run, with their units. A layer a
/// workload does not run reads 0 there; see [`runs_layer`].
const PER_LAYER: [(&str, &str); 46] = [
    ("spec.parse_ms", "ms"),
    ("spec.validate_ms", "ms"),
    ("graph.derive_ms", "ms"),
    ("partition.search_ms", "ms"),
    ("partition.candidates", "count"),
    ("partition.move_evals", "count"),
    ("partition.lifetime_hit_ratio", "ratio"),
    ("rates.eval_ms", "ms"),
    ("rates.evals", "count"),
    ("refine.ms", "ms"),
    ("refine.lines_out", "count"),
    ("analyze.gate_ms", "ms"),
    ("analyze.rejects", "count"),
    ("sim.original_ms", "ms"),
    ("sim.refined_ms", "ms"),
    ("sim.ns_per_step", "ns"),
    ("sim.steps", "count"),
    ("sim.rounds", "count"),
    ("sim.cond_evals", "count"),
    ("sim.wakeups", "count"),
    ("trace_check.ms", "ms"),
    ("trace_check.events", "count"),
    ("loop.unattributed_ratio", "ratio"),
    ("loop.cpu_per_wall", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.execute.parse_ms", "ms"),
    ("serve.op.parse_p50_ms", "ms"),
    ("serve.execute.parse_inline_ms", "ms"),
    ("serve.op.parse_inline_p50_ms", "ms"),
    ("serve.execute.lint_ms", "ms"),
    ("serve.op.lint_p50_ms", "ms"),
    ("serve.execute.lint_part_ms", "ms"),
    ("serve.op.lint_part_p50_ms", "ms"),
    ("serve.execute.estimate_ms", "ms"),
    ("serve.op.estimate_p50_ms", "ms"),
    ("serve.execute.refine_ms", "ms"),
    ("serve.op.refine_p50_ms", "ms"),
    ("serve.execute.explore_ms", "ms"),
    ("serve.op.explore_p50_ms", "ms"),
    ("serve.execute.verify_ms", "ms"),
    ("serve.op.verify_p50_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.response_bytes", "bytes"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    synth_seed: u64,
    modref: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    fn num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<Option<T>, String> {
        v.map(|s| s.parse().map_err(|_| format!("invalid {flag} value `{s}`")))
            .transpose()
    }
    let workload = get("--workload").ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("invalid --trace value `{v}` (0 or 1)")),
    };
    let seconds: f64 = num("--seconds", get("--seconds"))?.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let out_dir =
        get("--out-dir").map_or_else(|| PathBuf::from(".bench_build/perfbench"), PathBuf::from);
    Ok(Args {
        seed: num("--seed", get("--seed"))?.unwrap_or(1),
        synth_seed: num("--synth-seed", get("--synth-seed"))?
            .unwrap_or(designer::DEFAULT_SYNTH_SEED),
        modref: get("--modref").map_or_else(
            || PathBuf::from(".bench_build/release/modref"),
            PathBuf::from,
        ),
        workload,
        seconds,
        trace,
        out_dir,
    })
}

/// The thread count `workload` runs with. The loop runs single-threaded:
/// on a shared 2-core box a 2-thread loop's wall time moves with the
/// neighbours' load far more than its CPU time does. The server gets a
/// worker and a client connection per core, up to 2.
fn threads(workload: &str) -> usize {
    if workload == "serve_mix" {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
    } else {
        1
    }
}

/// Whether `workload` runs the layer behind per-layer metric `name`, so
/// that its traced run must report the metric.
fn runs_layer(workload: &str, name: &str) -> bool {
    let verifies = matches!(workload, "medical_verify" | "synth64_traces");
    match name.split('.').next() {
        Some("trace") => true,
        Some("serve") => workload == "serve_mix",
        Some("trace_check") => workload == "synth64_traces",
        Some("refine" | "analyze" | "sim") => verifies,
        // spec, graph, partition, rates, loop
        _ => workload != "serve_mix",
    }
}

/// Per-layer metrics that may read 0 or less on a correct run: a count
/// of rejected candidates and two differences of timings.
const SIGNED: [&str; 3] = ["analyze.rejects", "trace.overhead_ratio", "serve.wait_ms"];

fn run(args: &Args) -> Result<Report, String> {
    let trace_out = args.out_dir.join(format!("{}.trace.jsonl", args.workload));
    if args.trace {
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    }
    if args.workload == "serve_mix" {
        let env = serving::Env {
            modref: args.modref.clone(),
            threads: threads(&args.workload),
            seed: args.seed,
        };
        return if args.trace {
            serving::run_traced(&env, args.seconds, &trace_out)
        } else {
            serving::run(&env, args.seconds)
        };
    }
    let w = designer::LoopWorkload::named(&args.workload, args.synth_seed)
        .expect("workload name was checked");
    if args.trace {
        designer::run_traced(&w, args.seconds, &trace_out)
    } else {
        designer::run(&w, threads(&args.workload), args.seconds)
    }
}

/// Checks that a run reported exactly its metric set: every end-to-end
/// metric finite and positive; every per-layer metric of a layer the
/// workload runs finite, and positive unless [`SIGNED`]. Per-layer
/// metrics of layers the workload does not run are filled with 0.
fn complete(report: &mut Report, workload: &str, trace: bool) -> Result<(), String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for m in &report.metrics {
        if !table.contains(&(m.name.as_str(), m.unit)) {
            return Err(format!("metric {} [{}] is not declared", m.name, m.unit));
        }
    }
    let mut ordered = Report {
        correct: report.correct,
        attempted: report.attempted,
        failed: report.failed,
        metrics: Vec::new(),
    };
    for &(name, unit) in table {
        let value = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value);
        let value = match value {
            None if trace && !runs_layer(workload, name) => 0.0,
            None => return Err(format!("metric {name} was not reported")),
            Some(v) => v,
        };
        let may_be_zero = trace && (SIGNED.contains(&name) || !runs_layer(workload, name));
        if !value.is_finite() || (value <= 0.0 && !may_be_zero) {
            return Err(format!("metric {name} read {value}"));
        }
        ordered.add(name, value, unit);
    }
    *report = ordered;
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("modref-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args)
        .and_then(|mut r| complete(&mut r, &args.workload, args.trace).map(|()| r))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("modref-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    report.correct &= report.failed == 0 && report.attempted > 0;
    println!(
        "{} seed={} seconds={} trace={} threads={} attempted={} failed={} failed_ratio={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads(&args.workload),
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    for m in &report.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("modref-perfbench: {}: incorrect output", args.workload);
        ExitCode::FAILURE
    }
}
