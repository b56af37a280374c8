//! The ccsql benchmark: one process, one workload, a closed loop
//! of ops run back to back on one thread.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload tables --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` alternates traced and untraced
//! ops and reports the per-layer metrics. See `benchmark/README.md`.

mod measure;
mod trace;
mod workloads;

use ccsql_obs::json::JsonObj;
use measure::{median, tail, timed};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use trace::Tracer;
use workloads::{Failure, Params};

/// Layer spans; each reports its median self time per op as `<name>_s`.
const LAYER_SPANS: [&str; 16] = [
    "protocol.spec",
    "relalg.generate",
    "relalg.specfile_solve",
    "core.invariants",
    "core.depend",
    "core.vcg",
    "core.liveness",
    "core.hwmap",
    "lint.protocol",
    "lint.specfiles",
    "lint.flows",
    "mc.explore",
    "sim.new",
    "sim.run",
    "sim.chaos_run",
    "sim.audit",
];

/// Per-layer counts and ratios, reported as their mean per op.
const LAYER_COUNTS: [(&str, &str); 25] = [
    ("relalg.candidates", "count"),
    ("relalg.rows", "count"),
    ("relalg.rows_per_candidate", "ratio"),
    ("core.depend_rows", "count"),
    ("core.vcg_cycles", "count"),
    ("lint.diagnostics", "count"),
    ("mc.states", "count"),
    ("mc.orbit_states", "count"),
    ("mc.transitions", "count"),
    ("mc.dedup_hits", "count"),
    ("mc.levels", "count"),
    ("mc.frontier_peak", "count"),
    ("mc.new_per_transition", "ratio"),
    ("mc.spilled_bytes", "bytes"),
    ("mc.mem_peak_bytes", "bytes"),
    ("mc.mem_peak_per_budget", "ratio"),
    ("sim.steps", "count"),
    ("sim.msgs", "count"),
    ("sim.completed", "count"),
    ("sim.retries", "count"),
    ("sim.faults_injected", "count"),
    ("sim.retransmits", "count"),
    ("sim.abandoned", "count"),
    ("sim.coherence_violations", "count"),
    ("sim.retry_ratio", "ratio"),
];

/// Fewest timed ops per run: the tail percentile needs ten ops above it.
const MIN_OPS: usize = 11;

/// Set-up is repeated at least this many times, and until this much
/// time has passed, and reported as its median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        match k.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                kv.insert(k.as_str(), v.as_str());
            }
            _ => return Err(format!("unknown argument {k:?}")),
        }
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k}: not a whole number"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// Timings and outputs of one op.
struct OpSample {
    wall_s: f64,
    cpu_s: f64,
    work: u64,
    traced: bool,
    counts: Vec<(&'static str, f64)>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("benchmark: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let nominal = workloads::nominal_op_s(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        )
    })?;
    // A fixed op count (not a deadline) keeps the failed-op count a
    // function of the seed alone.
    let ops = ((args.seconds / nominal).round() as usize).max(MIN_OPS);
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = out_dir.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let result = measure_workload(args, ops, &scratch, &out_dir);
    let cleanup = std::fs::remove_dir_all(&scratch);
    let line = result?;
    cleanup.map_err(|e| format!("remove {}: {e}", scratch.display()))?;
    println!("{line}");
    Ok(())
}

fn measure_workload(
    args: &Args,
    ops: usize,
    scratch: &Path,
    out_dir: &Path,
) -> Result<String, String> {
    let params = Params {
        seed: args.seed,
        ops: ops + 1,
        scratch,
    };
    let mut setup_s = Vec::new();
    let started = Instant::now();
    let mut workload = loop {
        let (w, wall, _) = timed(|| workloads::setup(&args.workload, &params));
        let w = w?;
        setup_s.push(wall as f64 * 1e-9);
        if setup_s.len() >= SETUP_REPS && started.elapsed().as_secs_f64() >= SETUP_MIN_S {
            break w;
        }
    };

    let mut tracer = Tracer::new(false);
    let mut samples = Vec::new();
    let mut host_ref_s = Vec::new();
    let (mut failed, mut wrong) = (0, 0);
    // Op 0 warms caches and is checked but not timed. In a traced run
    // odd ops are traced and even ops are not, which gives the tracing
    // overhead from one process.
    for i in 0..=ops {
        if args.trace {
            host_ref_s.push(measure::host_ref_ns() as f64 * 1e-9);
            tracer.set_on(i % 2 == 1);
        }
        let (report, wall, cpu) = timed(|| tracer.op(i, |tr| workload.op(i, tr)));
        match &report.failure {
            None => {}
            Some(f) => {
                failed += 1;
                if matches!(f, Failure::Wrong(_)) {
                    wrong += 1;
                }
                eprintln!("op {i} failed: {f:?}");
            }
        }
        eprintln!(
            "op {i}: wall {:.4} s, cpu {:.4} s, work {}",
            wall as f64 * 1e-9,
            cpu as f64 * 1e-9,
            report.work
        );
        if i > 0 {
            samples.push(OpSample {
                wall_s: wall as f64 * 1e-9,
                cpu_s: cpu as f64 * 1e-9,
                work: report.work,
                traced: tracer.on(),
                counts: report.counts,
            });
        }
    }

    let mut metrics = JsonObj::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        let m = JsonObj::new()
            .f64("value", value)
            .str("unit", unit)
            .finish();
        metrics = std::mem::take(&mut metrics).raw(name, &m);
    };
    let untraced: Vec<&OpSample> = samples.iter().filter(|s| !s.traced).collect();
    let cpu = |xs: &[&OpSample]| xs.iter().map(|s| s.cpu_s).collect::<Vec<_>>();
    if !args.trace {
        let walls: Vec<f64> = untraced.iter().map(|s| s.wall_s).collect();
        let rates: Vec<f64> = untraced.iter().map(|s| s.work as f64 / s.cpu_s).collect();
        put("setup_s", median(&setup_s), "s");
        put("op_p50_s", median(&walls), "s");
        put("op_cpu_p50_s", median(&cpu(&untraced)), "s");
        put("op_cpu_tail_s", tail(&cpu(&untraced)), "s");
        put("work_per_cpu_s", median(&rates), "1/s");
        put("rss_peak_bytes", measure::rss_peak_bytes() as f64, "bytes");
    } else {
        let traced: Vec<&OpSample> = samples.iter().filter(|s| s.traced).collect();
        let mut selfs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for i in (1..=ops).filter(|i| i % 2 == 1) {
            let (total, per) = tracer.self_times(i);
            if per.values().sum::<u64>() != total {
                wrong += 1;
                eprintln!("op {i}: layer self times do not sum to the op time");
            }
            for name in LAYER_SPANS.iter().chain([&trace::OP]) {
                selfs
                    .entry(name)
                    .or_default()
                    .push(per.get(name).copied().unwrap_or(0) as f64 * 1e-9);
            }
        }
        for name in LAYER_SPANS {
            put(&format!("{name}_s"), median(&selfs[name]), "s");
        }
        put("bench.other_s", median(&selfs[trace::OP]), "s");
        put("bench.host_ref_s", median(&host_ref_s), "s");
        put(
            "bench.trace_overhead",
            median(&cpu(&traced)) / median(&cpu(&untraced)),
            "ratio",
        );
        for (name, unit) in LAYER_COUNTS {
            let sum: f64 = samples
                .iter()
                .map(|s| s.counts.iter().find(|c| c.0 == name).map_or(0.0, |c| c.1))
                .sum();
            put(name, sum / samples.len() as f64, unit);
        }
        let path = out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(JsonObj::new()
        .raw("correct", if wrong == 0 { "true" } else { "false" })
        .u64("attempted", ops as u64 + 1)
        .u64("failed", failed)
        .raw("metrics", &metrics.finish())
        .finish())
}
