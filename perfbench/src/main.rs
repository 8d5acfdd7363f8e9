//! The repository benchmark: end-to-end and per-layer numbers for the LAHD
//! serving daemon and the pipeline that trains what it serves.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hot|serve-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
//! traced). The line before it is the machine and configuration
//! fingerprint. Any failed output check makes the exit code non-zero.
//! See `README.md` for the workloads and metrics.

mod check;
mod daemon;
mod pipeline;
mod report;
mod serve;
mod stats;
mod trace;
mod traffic;

use std::path::{Path, PathBuf};

use lahd::core::Args;

use crate::report::{fingerprint, result_line, Metric};
use crate::serve::{Ctx, Outcome};

// The daemon children run the `lahd` command line; install the same
// counting allocator the `lahd` binary does.
#[global_allocator]
static ALLOC: lahd::serve::CountingAllocator = lahd::serve::CountingAllocator;

/// End-to-end metrics (untraced runs): name, unit.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("decide_p50_us", "us"),
    ("fsm_served_share", "share"),
    ("mem_mb", "MiB"),
    ("fsm_makespan_gain", "ratio"),
    ("fsm_agreement", "share"),
    ("fsm_states", "count"),
];

/// Per-layer metrics (traced runs): name, unit. A layer a workload leaves
/// idle reports 0.
const PER_LAYER: [(&str, &str); 62] = [
    ("recover_s", "s"),
    ("pipeline_s", "s"),
    ("protocol.encode_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("daemon.server_p50_us", "us"),
    ("daemon.residual_us", "us"),
    ("daemon.residual_share", "share"),
    ("daemon.queue_full", "count"),
    ("daemon.shed", "count"),
    ("daemon.deadline_misses", "count"),
    ("client.samples", "count"),
    ("client.streams", "count"),
    ("socket.write_ns", "ns"),
    ("client.inflight_us", "us"),
    ("client.unattributed_ns", "ns"),
    ("client.degraded", "count"),
    ("client.failed_share", "share"),
    ("gen.lag_us", "us"),
    ("gen.lag_p99_us", "us"),
    ("client.p99_us", "us"),
    ("trace.overhead_share", "share"),
    ("check.fsm_checked", "count"),
    ("fsm.step_ns", "ns"),
    ("fsm.unseen_share", "share"),
    ("fsm.missing_share", "share"),
    ("guard.tier_fsm", "count"),
    ("guard.tier_quant", "count"),
    ("guard.tier_exact", "count"),
    ("guard.tier_baseline", "count"),
    ("guard.materializations", "count"),
    ("guard.audits", "count"),
    ("nn.exact_ns", "ns"),
    ("nn.quant_ns", "ns"),
    ("compact.hibernates", "count"),
    ("compact.wakes", "count"),
    ("compact.evictions", "count"),
    ("compact.arena_bytes", "B"),
    ("compact.wake_ns", "ns"),
    ("stream_table.lookup_ns", "ns"),
    ("persist.checkpoints", "count"),
    ("persist.ckpt_bytes", "B"),
    ("persist.bytes_per_decision", "B"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.recover_ms", "ms"),
    ("persist.recovered_streams", "count"),
    ("persist.quarantined_records", "count"),
    ("persist.held_streams", "count"),
    ("persist.drained_streams", "count"),
    ("workload.traces_s", "s"),
    ("rl.train_s", "s"),
    ("rl.episodes_per_s", "1/s"),
    ("core.collect_s", "s"),
    ("qbn.fit_s", "s"),
    ("qbn.finetune_s", "s"),
    ("fsm.extract_s", "s"),
    ("fsm.compile_s", "s"),
    ("core.eval_s", "s"),
    ("qbn.dataset_rows", "count"),
    ("fsm.raw_states", "count"),
    ("fsm.symbols", "count"),
    ("fsm.transitions", "count"),
    ("pipeline.mem_mb", "MiB"),
];

fn work_dir() -> Result<PathBuf, String> {
    let dir = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) => PathBuf::from(t).join("perfbench-work"),
        None => PathBuf::from("perfbench").join("target").join("work"),
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn bench(args: &Args) -> Result<(Outcome, bool), String> {
    let workload = args.get("workload").ok_or("--workload is required")?;
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    let seconds = args.get_f64("seconds", 10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds wants (0, 60], got {seconds}"));
    }
    let ctx = Ctx {
        work: work_dir()?,
        seed: args.get_u64("seed", 1),
        seconds,
        trace,
    };
    let outcome = match workload {
        "serve-hot" => serve::hot(&ctx)?,
        "serve-churn" => serve::churn(&ctx)?,
        other => {
            return Err(format!(
                "unknown --workload {other:?} (serve-hot|serve-churn)"
            ))
        }
    };
    Ok((outcome, trace))
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // Child modes: the daemon under test, and the pipeline runner.
    match argv.first().map(String::as_str) {
        Some("lahd") => {
            argv.remove(0);
            let args = Args::parse(argv);
            if let Err(e) = lahd_cli::run(&args, &mut std::io::stdout()) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
        Some("pipeline") => {
            let args = Args::parse(argv);
            let out = Path::new(args.get("out").unwrap_or("arts"));
            let scale = args.get("scale").unwrap_or("demo");
            if let Err(e) = pipeline::child(scale, out, args.has_flag("phased")) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
        _ => {}
    }
    let args = Args::parse(argv);
    let (outcome, trace) = match bench(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (source, names) = if trace {
        (&outcome.layers, &PER_LAYER[..])
    } else {
        (&outcome.e2e, &END_TO_END[..])
    };
    let metrics: Vec<Metric> = names
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: source.get(name).unwrap_or(0.0),
            unit,
        })
        .collect();
    println!("{}", fingerprint(&outcome.config));
    println!(
        "{}",
        result_line(outcome.correct, outcome.attempted, outcome.failed, &metrics)
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
