//! `wse-perf`: the repo's end-to-end and per-layer benchmark.
//!
//! One invocation runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path wse-perf/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! repeats the workload with a span around every call into a layer, runs
//! the variant engines, and reports the per-layer metrics.  The last line
//! of standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`).  See README.md for what every metric and workload means.

mod host;
mod layers;
mod measure;
mod metrics;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::Duration;

use measure::{median, Ops, Plan};
use trace::Tracer;
use workloads::Workload;

/// One reported metric: value, unit, and how it was summarised.
#[derive(Debug, Clone)]
pub struct Reported {
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

pub type Report = BTreeMap<String, Reported>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: wse-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
         wse-perf --spec RUN_SECONDS   (prints BENCHMARK.json)\nworkloads: {}",
        metrics::WORKLOAD_WHY.map(|(name, _)| name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--smoke" => args.smoke = true,
            "--spec" => {
                print!("{}", metrics::benchmark_json(value().parse().unwrap_or_else(|_| usage())));
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    if args.seconds.is_nan() || args.seconds < 0.0 {
        usage();
    }
    args
}

/// Comparable runs: an optimized build (a debug build flips
/// `LinkOptions::default().validate`), no `WSE_SIM_*` variable in the
/// process (the engine still reads some at construction), and a quiet hook
/// for the panics the fault campaign injects on purpose.
fn make_hermetic() {
    if cfg!(debug_assertions) {
        eprintln!("wse-perf measures optimized builds only: run it with --release");
        std::process::exit(2);
    }
    pin_mmap_threshold();
    let engine_vars: Vec<String> =
        std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()).collect();
    for name in engine_vars.iter().filter(|n| n.starts_with("WSE_SIM_")) {
        std::env::remove_var(name);
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|m| m.contains(wse_sim::INJECTED_BAND_PANIC));
        if !injected {
            previous(info);
        }
    }));
}

/// glibc raises its mmap threshold whenever a large block is freed, after
/// which the engine's arenas come from the heap at whatever 16-byte
/// alignment its history left: the same sweep then runs 7% faster or slower
/// from one process to the next (measured on `halo_star25`; the AVX2 rows
/// straddle cache lines or not).  Pinning the threshold at its initial value
/// gives every engine what the first one in a fresh process gets: arenas
/// mapped at a page boundary plus the 16-byte chunk header.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
    // SAFETY: `mallopt` only stores a tuning value in the allocator's own
    // state; it is called once, before any other thread exists.
    let accepted = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    if accepted != 1 {
        eprintln!("warning: mallopt(M_MMAP_THRESHOLD) was refused; timings depend on heap history");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn put(report: &mut Report, name: &str, unit: &'static str, value: f64, note: String) {
    report.insert(name.to_string(), Reported { value, unit, note });
}

fn sample_note(samples: &[f64], scale: f64) -> String {
    match measure::high_percentile(samples) {
        Some((pct, value)) => format!("median of {}, p{pct} {:.4}", samples.len(), value * scale),
        None => format!("median of {}", samples.len()),
    }
}

/// Sum of the per-case medians, with the sample count of the shortest case.
fn sum_of_medians(per_case: &[Vec<f64>]) -> (f64, String) {
    let total = per_case.iter().map(|s| median(s)).sum();
    let fewest = per_case.iter().map(Vec::len).min().unwrap_or(0);
    (total, format!("sum of {} per-program medians of {fewest}", per_case.len()))
}

/// What the end-to-end phases hand to the traced run's derived metrics.
pub struct EndToEnd {
    pub report: Report,
    pub sim: measure::SimOutcome,
    pub gate: (Vec<measure::GatePass>, measure::GateCounts),
    pub service: measure::ServiceOutcome,
    pub max_deviation: f32,
    pub model: measure::ModelCheck,
}

/// Runs the six phases and returns the end-to-end metrics.
pub fn end_to_end(
    w: &Workload,
    prepared: &[measure::Prepared],
    seed: u64,
    seconds: f64,
    plan: Plan,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> EndToEnd {
    let share = |s: f64| Duration::from_secs_f64(seconds * s);
    let mut report = Report::new();

    let setup = measure::phase_setup(w, plan, share(w.shares.setup), tr);
    put(&mut report, "setup_s", "s", median(&setup), sample_note(&setup, 1.0));

    let compile = measure::phase_compile(prepared, plan, share(w.shares.compile), tr, ops);
    let (total, note) = sum_of_medians(&compile);
    put(&mut report, "compile_ms", "ms", total * 1e3, note);

    let service = measure::phase_service(prepared, seed, plan, share(w.shares.service), tr, ops);
    put(
        &mut report,
        "service_per_s",
        "1/s",
        median(&service.epoch_rates),
        format!(
            "median of {} epochs of {} requests",
            service.epoch_rates.len(),
            service.requests_per_epoch
        ),
    );

    let validated = measure::phase_validated(w, prepared, plan, share(w.shares.validated), tr, ops);
    let (total, note) = sum_of_medians(&validated.per_case);
    put(&mut report, "validated_ms", "ms", total * 1e3, note);

    let gate = measure::phase_gate(prepared, plan, share(w.shares.gate), tr, ops);
    let verdicts: Vec<f64> = gate.0.iter().map(|p| p.total).collect();
    put(&mut report, "verdict_s", "s", median(&verdicts), sample_note(&verdicts, 1.0));

    let sim = measure::phase_sim(w.engine, prepared, seed, plan, share(w.shares.sim), tr, ops);
    let fewest = sim.per_case.iter().map(Vec::len).min().unwrap_or(0);
    put(
        &mut report,
        "sim_mpts",
        "MPts/s",
        sim.mpts(prepared),
        format!("from the median of {fewest} samples per program"),
    );

    // Read before the bitwise oracle builds its second engine.
    let rss = host::peak_rss_mb();
    ops.check(rss.is_some(), || "VmHWM is not readable".to_string());
    put(&mut report, "peak_rss_mb", "MB", rss.unwrap_or(f64::NAN), "VmHWM".to_string());

    let pe_bytes: u64 = prepared.iter().map(|p| p.bytes_per_pe).sum();
    put(&mut report, "pe_bytes", "bytes", pe_bytes as f64, "exact".to_string());

    let model = measure::model_check(tr, ops);
    put(
        &mut report,
        "model_err",
        "ratio",
        model.model_err,
        format!(
            "exact; simulated time: model {:.1}x / {:.1}x vs the abstract's 14x / 20x",
            model.a100_ratio, model.cpu_ratio
        ),
    );
    EndToEnd { report, sim, gate, service, max_deviation: validated.max_deviation, model }
}

fn json_line(ops: &Ops, report: &Report, names: &[String]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            let m = &report[name];
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0,
        ops.attempted.max(1),
        ops.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = parse_args();
    make_hermetic();
    let Some(workload) = workloads::workload(&args.workload, args.seed, args.smoke) else {
        usage()
    };
    let plan = Plan::new(args.smoke);
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let mut ops = Ops::default();
    let prepared = measure::prepare(&workload, &mut ops);

    let (report, names) = if args.trace {
        let report = layers::traced_run(&workload, &prepared, args.seed, seconds, plan, &mut ops);
        (report, metrics::per_layer().into_iter().map(|(name, _, _)| name).collect::<Vec<_>>())
    } else {
        let mut tracer = Tracer::new(false);
        let run = end_to_end(&workload, &prepared, args.seed, seconds, plan, &mut tracer, &mut ops);
        measure::check_bitwise(&prepared, &run.sim, &mut ops);
        (run.report, metrics::END_TO_END.iter().map(|m| m.name.to_string()).collect())
    };

    println!(
        "wse-perf {} seed {} ({} programs{})",
        workload.name,
        args.seed,
        prepared.len(),
        if args.smoke { ", smoke" } else { "" }
    );
    for name in &names {
        let Some(m) = report.get(name) else {
            ops.check(false, || format!("metric {name} was not measured"));
            continue;
        };
        ops.check(m.value.is_finite(), || format!("metric {name} is not finite"));
        println!("  {name:<44} {:>16.6} {:<7} {}", m.value, m.unit, m.note);
    }
    println!("  ops_attempted {}  ops_failed {}", ops.attempted, ops.failed);
    for reason in &ops.reasons {
        eprintln!("FAILED: {reason}");
    }
    if names.iter().all(|n| report.get(n).is_some_and(|m| m.value.is_finite())) {
        println!("{}", json_line(&ops, &report, &names));
    }
    if ops.failed > 0 {
        std::process::exit(1);
    }
}
