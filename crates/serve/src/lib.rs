//! Fault-tolerant decision serving for extracted LAHD policies.
//!
//! The paper's deliverable — an FSM distilled from a learned storage
//! heuristic, with the teacher net as fallback — is a *production*
//! artifact; this crate is the always-on service around it. A daemon
//! ([`serve`]/[`serve_dir`]) loads a validated artifact bundle
//! ([`ServeBundle`]) and answers decision requests for many concurrent
//! streams over a length-prefixed Unix-socket protocol ([`protocol`]),
//! sharded across per-core worker threads — no async runtime, just
//! bounded queues and `std` threads.
//!
//! Each stream runs behind its own guarded tier ladder (extracted FSM →
//! quantized-i8 net → exact net → scenario baseline, `lahd-guard`'s
//! hysteresis machine deciding who serves); streams on a net tier are
//! answered through one batched inference call per shard drain. The
//! robustness layer covers every failure tier:
//!
//! - **panic isolation** — a shard worker that panics is caught, counted,
//!   and restarted with exponential backoff; its queue (and therefore its
//!   in-flight requests) survives, its streams are re-admitted with reset
//!   state, and the daemon never exits.
//! - **admission control** — bounded per-shard queues with retry/backoff;
//!   persistent overload *sheds* requests to the scenario-baseline
//!   fallback (labelled, counted) instead of erroring.
//! - **deadline budgets** — per-request deadlines; work that expires in
//!   the queue is answered from the fallback tier at dequeue.
//! - **slow clients** — shards write replies straight to the client
//!   socket under a fixed write timeout; a client that stops reading is
//!   disconnected and counted (`slow_client_drops`), never buffered for
//!   without bound.
//! - **crash-safe hot reload** — a reload request validates the candidate
//!   bundle off-path (checked parsing + an inference probe) and only then
//!   publishes it; shards swap at batch boundaries; a corrupt candidate is
//!   rejected with the old bundle still serving.
//! - **durable state** — with a state directory configured, each shard
//!   checkpoints its compact streams + hibernation arena into checksummed
//!   segment files (atomic tmp+rename) and journals admits/evictions in
//!   between ([`persist`]); `--recover` resumes surviving streams
//!   bit-identically after a crash, truncating torn tails and
//!   quarantining corrupt records instead of panicking.
//!
//! Three correctness harnesses drive a daemon with seeded lockstep load.
//! [`run_bench`] is the chaos plan behind `lahd serve-bench --chaos`
//! (kill a shard, burst 10× load, offer a corrupt reload); its summary is
//! byte-reproducible under a fixed seed. [`run_streams_sweep`] admits up
//! to 10⁵ streams and reads the live bytes per stream.
//! [`run_restart_drill`] is the supervisor-style crash-restart drill
//! behind `lahd serve-drill` (SIGKILL mid-load → restart with recovery →
//! action-checksum lockstep against an uninterrupted daemon). Serving
//! throughput and latency are measured by the repository benchmark in
//! `perfbench/`, not by these harnesses.

mod alloc;
mod bench;
mod bundle;
mod client;
mod compact;
mod daemon;
mod metrics;
pub mod persist;
mod protocol;
mod shard;
mod stream_table;
mod telemetry;

pub use alloc::{live_bytes, rss_bytes, CountingAllocator};
pub use bench::{
    load_profile, prepare_corrupt_candidate, run_bench, run_restart_drill, run_streams_sweep,
    BenchConfig, ChaosOutcome, ChaosPlan, DrillConfig, DrillOutcome, StreamsSweep, SweepPoint,
};
pub use bundle::ServeBundle;
pub use client::{ClientError, RetryPolicy, ServeClient};
pub use compact::{CompactStream, HibernationArena, REC_BYTES};
pub use daemon::{
    serve, serve_dir, shard_of, ReplyConn, ServeConfig, ServeHandle, SharedState, WRITE_TIMEOUT,
};
pub use metrics::{render_stats_json, LatencyHistogram, MetricsSnapshot, ServeMetrics};
pub use protocol::{
    push_frame, read_frame, write_frame, ProtoError, Request, Response, Source, MAGIC, MAX_FRAME,
};
pub use shard::{ShardMsg, TIER_BASELINE, TIER_EXACT, TIER_FSM, TIER_QUANT};
pub use stream_table::{StreamRef, StreamSet, StreamTable};
pub use telemetry::{
    run_aggregator, telemetry_channel, ShardTelemetry, TelemetryHub, TelemetryMsg,
    TelemetrySnapshot,
};
