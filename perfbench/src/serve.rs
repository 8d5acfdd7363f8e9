//! The two serve workloads and the measurements they share.
//!
//! Both deploy freshly trained artifacts behind a real `lahd serve` child
//! and drive it over one connection:
//!
//! - `serve-hot`: demo-scale artifacts (trained in set-up); a closed loop
//!   over a few streams, each with one request outstanding; no state
//!   directory.
//! - `serve-churn`: tiny artifacts; an open loop at a fixed rate over 10⁵
//!   power-law streams with hibernation, arena eviction and periodic
//!   checkpoints; ends with a graceful drain and a `--recover` restart.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lahd::core::PipelineConfig;
use lahd::fsm::{CompiledCursor, CompiledFsm, SlotTag};
use lahd::rl::InferScratch;
use lahd::serve::persist::ShardPersist;
use lahd::serve::{
    persist, shard_of, write_frame, CompactStream, HibernationArena, Response, ServeBundle,
    StreamTable, TIER_EXACT, TIER_FSM, TIER_QUANT,
};
use lahd::tensor::Matrix;

use crate::check::{Checker, Tally};
use crate::daemon::{decode, Conn, Daemon, Proc, Stats};
use crate::report::Flat;
use crate::stats::{mean, median, percentile, share, window_percentiles, window_rate};
use crate::trace::Tracer;
use crate::traffic::{decide, open_loop_schedule, record_episodes, Episodes};

/// Run parameters from the command line.
pub struct Ctx {
    /// Working directory for artifacts, sockets and state.
    pub work: PathBuf,
    /// Traffic seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Decisions attempted.
    pub attempted: u64,
    /// Decisions that failed: error replies, missing replies, wrong or
    /// invalid actions.
    pub failed: u64,
    /// End-to-end values by metric name.
    pub e2e: Flat,
    /// Per-layer values by metric name.
    pub layers: Flat,
    /// Configuration stamped into the fingerprint.
    pub config: Vec<(&'static str, String)>,
}

/// Stream ids of set-up probes (disjoint from the workload's streams).
const PROBE_STREAM: u64 = u64::MAX - 1024;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Restarts per run; `recover_s` is their median.
const RESTARTS: usize = 9;
/// Streams of the closed loop.
const HOT_STREAMS: usize = 8;
const HOT_SHARDS: usize = 2;
/// `mem_mb` on serve-hot is read when this many streams have opened:
/// finished streams stay in the daemon, so memory grows with work done,
/// and a fixed point keeps it independent of speed.
const MEM_STREAMS: u64 = 2_000;
/// Recorded rollouts replayed as traffic.
const EPISODES: usize = 256;
/// Open-loop offered rate, decisions per second.
const CHURN_RATE: f64 = 20_000.0;
/// Streams of the open loop, and the Zipf exponent of their popularity.
const CHURN_STREAMS: u64 = 100_000;
const CHURN_SKEW: f64 = 1.1;
/// Warm-up before measuring (the daemon's lazy set-up, caches, arenas).
const WARMUP: Duration = Duration::from_millis(1500);

/// Trains (or, traced, phases and checks) the artifacts in a pipeline
/// child and returns its report.
fn train(ctx: &Ctx, scale: &str) -> Result<(PathBuf, Flat), String> {
    let dir = ctx.work.join(format!("arts-{scale}"));
    let mut args = vec![
        "pipeline".to_string(),
        "--scale".to_string(),
        scale.to_string(),
        "--out".to_string(),
        dir.display().to_string(),
    ];
    if ctx.trace {
        args.push("--phased".to_string());
    }
    let out = Proc::spawn(&args, true)?.wait(Duration::from_secs(170))?;
    let report = Flat::parse(out.lines().last().unwrap_or(""))?;
    if report.get("fsm.bytes_identical") == Some(0.0) {
        return Err("phased pipeline produced a different FSM than Pipeline::run".into());
    }
    Ok((dir, report))
}

/// The serving bundle loaded in-process exactly as the daemon loads it.
fn load_bundle(
    cfg: &PipelineConfig,
    dir: &Path,
) -> Result<(ServeBundle, std::sync::Arc<CompiledFsm>), String> {
    let bundle = ServeBundle::load(cfg, dir)?;
    let compiled = bundle
        .compiled
        .clone()
        .ok_or("the extracted machine did not lower to the compiled tier")?;
    Ok((bundle, compiled))
}

/// Spawns a daemon and waits for its first correct decision; returns the
/// daemon, its connection and the elapsed seconds.
fn start(
    args: &[String],
    socket: &Path,
    probe: (u64, &[f32]),
    checker: &mut Checker,
) -> Result<(Daemon, Conn, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn(args, socket)?;
    let mut conn = daemon.connect()?;
    conn.send(&decide(0, probe.0, probe.1))
        .map_err(|e| format!("probe send: {e}"))?;
    let resp = conn.recv().map_err(|e| format!("probe reply: {e}"))?;
    let elapsed = t.elapsed().as_secs_f64();
    if !checker.reply(probe.0, probe.1, &resp) {
        return Err(format!("probe decision failed its check: {resp:?}"));
    }
    Ok((daemon, conn, elapsed))
}

/// `SETUPS` set-ups; every daemon but the last is stopped again. Returns
/// the kept daemon and the median set-up time.
fn setups(
    args: &[String],
    socket: &Path,
    episodes: &Episodes,
    checker: &mut Checker,
    fresh: &dyn Fn() -> Result<(), String>,
) -> Result<(Daemon, Conn, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        fresh()?;
        let probe = (PROBE_STREAM + k as u64, episodes.row(k, 0));
        let (daemon, conn, s) = start(args, socket, probe, checker)?;
        times.push(s);
        if k + 1 == SETUPS {
            kept = Some((daemon, conn));
        } else {
            drop(conn);
            daemon.shutdown()?;
        }
    }
    let (daemon, conn) = kept.expect("at least one set-up");
    Ok((daemon, conn, median(&times).expect("non-empty")))
}

/// Closed loop: every client slot keeps exactly one request outstanding.
/// Slot `i` replays episodes `i, i + S, i + 2S, …` of the recording, each
/// from its first interval as a stream of its own — one controller per
/// workload run, starting where the FSM starts.
struct ClosedLoop<'a> {
    episodes: &'a Episodes,
    /// (episode, step) per slot.
    pos: Vec<(usize, usize)>,
    /// Current stream id per slot.
    stream: Vec<u64>,
    /// Streams opened so far.
    opened: u64,
    /// Next candidate stream id per shard: slot `i` only opens streams
    /// that hash to shard `i % shards`, so the load stays balanced.
    next_id: Vec<u64>,
    /// Peak daemon RSS read when the `MEM_STREAMS`-th stream opens.
    mem_status: String,
    mem_mb: Option<f64>,
    sent_at: Vec<Instant>,
    /// Open `client.request` span and its write end per slot (traced
    /// windows).
    roots: Vec<(usize, Instant)>,
    next_req: u64,
}

impl<'a> ClosedLoop<'a> {
    fn new(episodes: &'a Episodes, slots: usize, shards: usize, daemon_pid: u32) -> Self {
        let mut lp = Self {
            episodes,
            pos: (0..slots).map(|i| (i, 0)).collect(),
            stream: Vec::new(),
            opened: 0,
            next_id: vec![0; shards],
            sent_at: vec![Instant::now(); slots],
            roots: vec![(0, Instant::now()); slots],
            next_req: 0,
            mem_status: format!("/proc/{daemon_pid}/status"),
            mem_mb: None,
        };
        lp.stream = (0..slots).map(|i| lp.open(i)).collect();
        lp
    }

    /// A fresh stream id for slot `i`.
    fn open(&mut self, i: usize) -> u64 {
        let shards = self.next_id.len();
        let want = i % shards;
        let id = loop {
            let id = self.next_id[want];
            self.next_id[want] += 1;
            if shard_of(id, shards) == want {
                break id;
            }
        };
        self.opened += 1;
        if self.opened == MEM_STREAMS {
            self.mem_mb = Some(crate::daemon::peak_rss_mb(&self.mem_status));
        }
        id
    }

    fn obs(&self, i: usize) -> &'a [f32] {
        let (ep, step) = self.pos[i];
        self.episodes.row(ep, step)
    }

    fn advance(&mut self, i: usize) {
        let slots = self.pos.len();
        let (ep, step) = &mut self.pos[i];
        *step += 1;
        if *step >= self.episodes.len_of(*ep) {
            *step = 0;
            *ep = (*ep + slots) % self.episodes.obs.len();
            self.stream[i] = self.open(i);
        }
    }

    fn send(
        &mut self,
        conn: &mut Conn,
        i: usize,
        tracer: Option<&mut Tracer>,
    ) -> Result<(), String> {
        let req_id = (self.next_req << 8) | i as u64;
        self.next_req += 1;
        let start = Instant::now();
        self.sent_at[i] = start;
        let req = decide(req_id, self.stream[i], self.obs(i));
        match tracer {
            None => conn.send(&req),
            Some(tr) => {
                let root = tr.open("client.request", req_id, None, start);
                let payload = req.encode();
                let encoded = Instant::now();
                tr.span("protocol.encode", req_id, Some(root), start, encoded);
                let r = conn.send_payload(&payload);
                let written = Instant::now();
                tr.span("socket.write", req_id, Some(root), encoded, written);
                self.roots[i] = (root, written);
                r
            }
        }
        .map_err(|e| format!("send: {e}"))
    }

    /// Runs for `dur`; replies are checked. Returns `(1-second window,
    /// latency µs)` per completed request.
    fn run(
        &mut self,
        conn: &mut Conn,
        checker: &mut Checker,
        dur: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Vec<(u32, f64)>, String> {
        let streams = self.pos.len();
        let begin = Instant::now();
        for i in 0..streams {
            self.send(conn, i, tracer.as_deref_mut())?;
        }
        let mut outstanding = streams;
        let mut lat_us = Vec::new();
        let last_window = (dur.as_secs() as u32).max(1) - 1;
        while outstanding > 0 {
            let payload = conn.recv_payload().map_err(|e| format!("recv: {e}"))?;
            let read = Instant::now();
            let resp = decode(&payload).map_err(|e| format!("decode: {e}"))?;
            let done = Instant::now();
            let Response::Decision { req_id, .. } = resp else {
                return Err(format!("unexpected reply {resp:?}"));
            };
            let i = (req_id & 0xFF) as usize;
            if i >= streams {
                return Err(format!("reply for unknown request {req_id}"));
            }
            // Requests completing in the final drain count toward the last
            // full window.
            let w = (done.duration_since(begin).as_secs() as u32).min(last_window);
            lat_us.push((
                w,
                done.duration_since(self.sent_at[i]).as_nanos() as f64 / 1e3,
            ));
            if let Some(tr) = tracer.as_deref_mut() {
                let (root, written) = self.roots[i];
                tr.span("client.inflight", req_id, Some(root), written, read);
                tr.span("protocol.decode", req_id, Some(root), read, done);
                tr.close(root, done);
            }
            checker.reply(self.stream[i], self.obs(i), &resp);
            self.advance(i);
            outstanding -= 1;
            if begin.elapsed() < dur {
                self.send(conn, i, tracer.as_deref_mut())?;
                outstanding += 1;
            }
        }
        Ok(lat_us)
    }
}

/// In-process tier compute on the recorded observations: the compiled
/// FSM's `step_batch` and both net tiers' batched inference, per decision,
/// plus the FSM's unseen/missing rates. Rows are batched 8 at a time, the
/// daemon's batch shape; batch row `i` replays slot `i`'s episodes in
/// order, restarting its cursor and hidden state at each episode start.
fn tier_compute(bundle: &ServeBundle, fsm: &CompiledFsm, episodes: &Episodes, layers: &mut Flat) {
    const BATCH: usize = 8;
    let total = (0..episodes.obs.len())
        .map(|ep| episodes.len_of(ep))
        .sum::<usize>();
    let mut pos: Vec<(usize, usize)> = (0..BATCH).map(|i| (i, 0)).collect();
    // (observation, starts an episode) per row, BATCH rows per batch.
    let mut rows: Vec<(&[f32], bool)> = Vec::with_capacity(total);
    while rows.len() + BATCH <= total {
        for (ep, step) in pos.iter_mut() {
            rows.push((episodes.row(*ep, *step), *step == 0));
            *step += 1;
            if *step >= episodes.len_of(*ep) {
                *step = 0;
                *ep = (*ep + BATCH) % episodes.obs.len();
            }
        }
    }

    let mut cursors: Vec<CompiledCursor> = (0..BATCH).map(|_| CompiledCursor::new(fsm)).collect();
    let mut scratch = fsm.make_batch_scratch();
    let mut states = Vec::with_capacity(BATCH);
    let mut outcomes = Vec::with_capacity(BATCH);
    let (mut unseen, mut missing) = (0u64, 0u64);
    let t = Instant::now();
    for batch in rows.chunks_exact(BATCH) {
        states.clear();
        for (c, &(_, start)) in cursors.iter_mut().zip(batch) {
            if start {
                c.reset(fsm);
            }
            states.push(c.state());
        }
        outcomes.clear();
        fsm.step_batch(
            batch.iter().map(|r| r.0),
            &states,
            &mut scratch,
            &mut outcomes,
        );
        for (c, o) in cursors.iter_mut().zip(&outcomes) {
            unseen += u64::from(o.unseen);
            missing += u64::from(o.tag == SlotTag::Missing);
            c.apply(*o);
        }
    }
    let steps = rows.len().max(1) as u64;
    layers.push("fsm.step_ns", t.elapsed().as_nanos() as f64 / steps as f64);
    layers.push("fsm.unseen_share", share(unseen, steps));
    layers.push("fsm.missing_share", share(missing, steps));

    let agent = &bundle.artifacts.agent;
    for (name, engine) in [
        ("nn.quant_ns", &bundle.quant),
        ("nn.exact_ns", &bundle.exact),
    ] {
        let mut obs = Matrix::zeros(BATCH, agent.obs_dim());
        let mut hidden = Matrix::zeros(BATCH, agent.hidden_dim());
        let initial = agent.initial_state();
        let mut scratch = InferScratch::default();
        let t = Instant::now();
        for batch in rows.chunks_exact(BATCH) {
            for (r, &(o, start)) in batch.iter().enumerate() {
                obs.row_mut(r).copy_from_slice(o);
                if start {
                    hidden.row_mut(r).copy_from_slice(initial.row(0));
                }
            }
            engine.infer_batch_into(agent, &obs, &hidden, &mut scratch);
            hidden
                .as_mut_slice()
                .copy_from_slice(scratch.hidden.as_slice());
        }
        layers.push(name, t.elapsed().as_nanos() as f64 / steps as f64);
    }
}

/// Daemon counters shared by both workloads' layer reports.
fn daemon_layers(stats: &Stats, layers: &mut Flat) {
    let tiers = stats.tiers();
    for (name, v) in [
        ("guard.tier_fsm", tiers[0]),
        ("guard.tier_quant", tiers[1]),
        ("guard.tier_exact", tiers[2]),
        ("guard.tier_baseline", tiers[3]),
    ] {
        layers.push(name, v as f64);
    }
    for (name, key) in [
        ("guard.materializations", "materializations"),
        ("guard.audits", "audits"),
        ("daemon.queue_full", "queue_full"),
        ("daemon.shed", "shed"),
        ("daemon.deadline_misses", "deadline_misses"),
        ("compact.hibernates", "hibernates"),
        ("compact.wakes", "wakes"),
        ("compact.evictions", "evictions"),
        ("compact.arena_bytes", "arena_bytes"),
        ("persist.checkpoints", "checkpoints"),
    ] {
        layers.push(name, stats.get(key) as f64);
    }
    layers.push("daemon.server_p50_us", stats.get("p50_ns") as f64 / 1e3);
}

/// The residual of the round trip: mean client-observed round trip minus
/// client framing minus in-process tier compute for the tier mix served.
fn residual(rtt_us: f64, framing_ns: f64, tally: &Tally, layers: &mut Flat) {
    let served = tally.tiers.iter().sum::<u64>();
    let compute_ns = share(tally.tiers[TIER_FSM], served)
        * layers.get("fsm.step_ns").unwrap_or(0.0)
        + share(tally.tiers[TIER_QUANT], served) * layers.get("nn.quant_ns").unwrap_or(0.0)
        + share(tally.tiers[TIER_EXACT], served) * layers.get("nn.exact_ns").unwrap_or(0.0);
    let residual = rtt_us - (framing_ns + compute_ns) / 1e3;
    layers.push("daemon.residual_us", residual);
    layers.push("daemon.residual_share", residual / rtt_us);
}

/// Copies the pipeline child's report into the run's metrics.
fn pipeline_metrics(report: &Flat, out: &mut Outcome) {
    // Traced runs that reuse artifacts saved by an earlier run time only
    // the phases.
    let wall = report.get("pipeline_s").or(report.get("pipeline.phased_s"));
    out.layers.push("pipeline_s", wall.unwrap_or(0.0));
    for name in ["fsm_makespan_gain", "fsm_agreement", "fsm_states"] {
        if let Some(v) = report.get(name) {
            out.e2e.push(name, v);
        }
    }
    for (name, v) in &report.0 {
        if name.contains('.') {
            out.layers.push(name, *v);
        }
    }
    if let (Some(n), Some(s)) = (report.get("rl.episodes"), report.get("rl.train_s")) {
        out.layers.push("rl.episodes_per_s", n / s);
    }
}

fn serve_args(scale: &str, arts: &Path, extra: &[(&str, String)]) -> Vec<String> {
    let mut args: Vec<String> = ["--scale", scale, "--artifacts"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.push(arts.display().to_string());
    for (k, v) in extra {
        args.push(format!("--{k}"));
        args.push(v.clone());
    }
    args
}

fn finish(out: &mut Outcome, tally: &Tally, missing: u64) {
    out.attempted = tally.replies + missing;
    out.failed = tally.mismatches + missing;
    out.correct = out.failed == 0;
    out.layers.push("check.fsm_checked", tally.checked as f64);
    out.layers.push("client.degraded", tally.degraded as f64);
    out.layers.push(
        "client.failed_share",
        share(tally.mismatches + missing + tally.degraded, out.attempted),
    );
}

/// `serve-hot`.
pub fn hot(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (arts, report) = train(ctx, "demo")?;
    pipeline_metrics(&report, &mut out);
    let cfg = crate::pipeline::config("demo")?;
    let (bundle, fsm) = load_bundle(&cfg, &arts)?;
    let episodes = record_episodes(
        cfg.scenario.get(),
        &cfg.sim,
        &fsm,
        cfg.trace_len,
        EPISODES,
        ctx.seed,
    );
    // Every replayed episode is a new stream; finished ones go idle, so the
    // table limit is raised to keep admission from shedding them.
    let extra = [
        ("shards", HOT_SHARDS.to_string()),
        ("max-streams", "65536".to_string()),
    ];
    let args = serve_args("demo", &arts, &extra);
    let socket = ctx.work.join("hot.sock");
    let mut checker = Checker::new(&fsm, bundle.num_actions(), false);
    let (daemon, mut conn, setup_s) = setups(&args, &socket, &episodes, &mut checker, &|| Ok(()))?;

    let mut lp = ClosedLoop::new(&episodes, HOT_STREAMS, HOT_SHARDS, daemon.pid());
    lp.run(&mut conn, &mut checker, WARMUP, None)?;
    let before = conn.stats()?;
    let dur = Duration::from_secs_f64(ctx.seconds);
    let window = if ctx.trace {
        // Half untraced, half traced: the difference is the tracing cost.
        let plain = lp.run(&mut conn, &mut checker, dur / 2, None)?;
        let mut tracer = Tracer::new();
        let traced = lp.run(&mut conn, &mut checker, dur / 2, Some(&mut tracer))?;
        out.layers.push(
            "trace.overhead_share",
            (window_rate(&plain) - window_rate(&traced)) / window_rate(&plain),
        );
        let totals = tracer.totals();
        let get = |n: &str| totals.get(n).copied().unwrap_or_default();
        out.layers
            .push("protocol.encode_ns", get("protocol.encode").mean_ns());
        out.layers
            .push("protocol.decode_ns", get("protocol.decode").mean_ns());
        out.layers
            .push("socket.write_ns", get("socket.write").mean_ns());
        out.layers
            .push("client.inflight_us", get("client.inflight").mean_ns() / 1e3);
        out.layers.push(
            "client.unattributed_ns",
            get("client.request").mean_self_ns(),
        );
        tier_compute(&bundle, &fsm, &episodes, &mut out.layers);
        let framing = get("protocol.encode").mean_ns() + get("protocol.decode").mean_ns();
        let rtt: Vec<f64> = traced.iter().map(|&(_, v)| v).collect();
        residual(mean(&rtt), framing, &checker.tally, &mut out.layers);
        let _ = tracer.write(&ctx.work.join("trace-serve-hot.jsonl"), 20_000);
        traced
    } else {
        lp.run(&mut conn, &mut checker, dur, None)?
    };
    let after = conn.stats()?;
    let (p50, p99) = window_percentiles(&window)?;
    let tiers_before = before.tiers();
    let tiers_after = after.tiers();
    let served: u64 = (0..4).map(|t| tiers_after[t] - tiers_before[t]).sum();
    out.e2e.push("decisions_per_s", window_rate(&window));
    out.e2e.push("decide_p50_us", p50);
    out.layers.push("client.p99_us", p99);
    out.e2e.push(
        "fsm_served_share",
        share(tiers_after[TIER_FSM] - tiers_before[TIER_FSM], served),
    );
    out.e2e
        .push("mem_mb", lp.mem_mb.unwrap_or_else(|| daemon.peak_rss_mb()));
    out.e2e.push("setup_s", setup_s);
    out.layers.push("client.samples", window.len() as f64);
    out.layers.push("client.streams", lp.opened as f64);
    daemon_layers(&after, &mut out.layers);
    drop(conn);

    // Restarts: no state directory, so the daemon comes back empty.
    let mut daemon = daemon;
    let mut restarts = Vec::new();
    for k in 0..RESTARTS {
        daemon.shutdown()?;
        let probe = (
            PROBE_STREAM + (SETUPS + k) as u64,
            episodes.row(SETUPS + k, 0),
        );
        let (next, _conn, s) = start(&args, &socket, probe, &mut checker)?;
        restarts.push(s);
        daemon = next;
    }
    daemon.shutdown()?;
    out.layers
        .push("recover_s", median(&restarts).expect("non-empty"));

    finish(&mut out, &checker.tally, 0);
    out.config = vec![
        ("workload", "serve-hot".to_string()),
        ("seed", ctx.seed.to_string()),
        ("pipeline", format!("demo seed {}", cfg.seed)),
        ("daemon", args[3..].join(" ")),
        (
            "clients",
            format!(
                "closed loop, {HOT_STREAMS} streams, 1 connection, {} recorded observations",
                episodes.rows()
            ),
        ),
        (
            "fsm",
            format!("{} states, {} symbols", fsm.num_states(), fsm.num_symbols()),
        ),
    ];
    Ok(out)
}

/// Sends `payloads` on their due times from a second thread while this
/// thread receives; latency runs from each request's due time.
/// Returns per-request latency (NaN when missing), the sender's lateness
/// per request, the missing count, and the seconds from request `warm`'s
/// due time to the last reply.
fn open_loop(
    conn: &mut Conn,
    due_ns: &[u64],
    payloads: &[Vec<u8>],
    warm: usize,
    mut on_reply: impl FnMut(usize, &[u8], &Response),
) -> Result<(Vec<f64>, Vec<f64>, u64, f64), String> {
    let mut writer = conn.try_clone_writer()?;
    let start = Instant::now() + Duration::from_millis(5);
    let mut lat_us = vec![f64::NAN; due_ns.len()];
    let mut got = 0usize;
    let mut last = start;
    let lags = std::thread::scope(|s| -> Result<Vec<f64>, String> {
        let sender = s.spawn(move || -> Result<Vec<f64>, String> {
            let mut lags = Vec::with_capacity(due_ns.len());
            for (due, payload) in due_ns.iter().zip(payloads) {
                let at = start + Duration::from_nanos(*due);
                // Sleep, never spin: the client must not take a CPU from
                // the daemon (nproc is 2). Oversleeping shows in gen.lag_us
                // and, since latency runs from the due time, in latency.
                let now = Instant::now();
                if now < at {
                    std::thread::sleep(at - now);
                }
                lags.push(at.elapsed().as_nanos() as f64 / 1e3);
                write_frame(&mut writer, payload).map_err(|e| format!("send: {e}"))?;
            }
            Ok(lags)
        });
        let recv = (|| -> Result<(), String> {
            while got < due_ns.len() {
                let payload = match conn.recv_payload() {
                    Ok(p) => p,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) => return Err(format!("recv: {e}")),
                };
                let now = Instant::now();
                let resp = decode(&payload).map_err(|e| format!("decode: {e}"))?;
                let i = match resp {
                    Response::Decision { req_id, .. } => req_id as usize,
                    _ => return Err(format!("unexpected reply {resp:?}")),
                };
                if i >= due_ns.len() || !lat_us[i].is_nan() {
                    return Err(format!("unexpected reply id {i}"));
                }
                let due = start + Duration::from_nanos(due_ns[i]);
                lat_us[i] = now.saturating_duration_since(due).as_nanos() as f64 / 1e3;
                last = now;
                on_reply(i, &payload, &resp);
                got += 1;
            }
            Ok(())
        })();
        let lags = sender
            .join()
            .map_err(|_| "sender thread panicked".to_string())??;
        recv?;
        Ok(lags)
    })?;
    let missing = (due_ns.len() - got) as u64;
    let from = start + Duration::from_nanos(due_ns[warm]);
    Ok((
        lat_us,
        lags,
        missing,
        last.saturating_duration_since(from).as_secs_f64(),
    ))
}

/// In-process costs of the stream-state layers on the churn key sequence:
/// stream-table lookups, arena wake + re-hibernate, checkpoint write and
/// recovery scan of the drained state directory.
fn state_layers(
    fsm: &CompiledFsm,
    keys: &[u64],
    state: &Path,
    shards: usize,
    scratch: &Path,
    layers: &mut Flat,
) -> Result<(), String> {
    let mut distinct = keys.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mut table: StreamTable<u64> = StreamTable::with_capacity(distinct.len());
    for &k in &distinct {
        table.insert(k, k);
    }
    let t = Instant::now();
    let mut hits = 0usize;
    for &k in keys {
        hits += usize::from(std::hint::black_box(table.lookup(k)).is_some());
    }
    layers.push(
        "stream_table.lookup_ns",
        t.elapsed().as_nanos() as f64 / keys.len() as f64,
    );
    if hits != keys.len() {
        return Err("stream table lost keys".into());
    }

    let record = CompactStream::new(CompiledCursor::new(fsm), u64::MAX);
    let mut arena = HibernationArena::new(distinct.len());
    for &k in &distinct {
        arena.hibernate(k, &record);
    }
    let t = Instant::now();
    for &k in keys {
        let woken = arena.wake(k).ok_or("arena lost a hibernated stream")?;
        arena.hibernate(k, &woken);
    }
    layers.push(
        "compact.wake_ns",
        t.elapsed().as_nanos() as f64 / keys.len() as f64,
    );

    let mut recover_ms = Vec::new();
    let mut recovered = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        recovered = (0..shards)
            .map(|s| persist::recover_shard(state, s))
            .collect::<Vec<_>>();
        recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    layers.push("persist.recover_ms", median(&recover_ms).unwrap_or(0.0));
    let mut ckpt_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for (s, r) in recovered.iter().enumerate() {
            ShardPersist::create(scratch, s)
                .and_then(|mut p| p.write_checkpoint(r.tick, &r.table, &r.arena))
                .map_err(|e| format!("checkpoint write: {e}"))?;
        }
        ckpt_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    layers.push("persist.checkpoint_ms", median(&ckpt_ms).unwrap_or(0.0));
    Ok(())
}

/// Polls the restarted daemon's stats until every shard has finished
/// recovery (`expected` streams resumed) or 10 s pass.
fn await_recovery(conn: &mut Conn, expected: u64) -> Result<Stats, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = conn.stats()?;
        if stats.get("recovered_streams") >= expected || Instant::now() >= deadline {
            return Ok(stats);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn dir_bytes(dir: &Path, ext: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == ext))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `serve-churn`.
pub fn churn(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (arts, report) = train(ctx, "tiny")?;
    pipeline_metrics(&report, &mut out);
    let cfg = crate::pipeline::config("tiny")?;
    let (bundle, fsm) = load_bundle(&cfg, &arts)?;
    let episodes = record_episodes(
        cfg.scenario.get(),
        &cfg.sim,
        &fsm,
        cfg.trace_len,
        EPISODES,
        ctx.seed,
    );

    // Schedule: warm-up plus the measured window, one request per due time;
    // each stream walks its own recorded episode.
    let warm = (WARMUP.as_secs_f64() * CHURN_RATE) as usize;
    let count = warm + (ctx.seconds * CHURN_RATE) as usize;
    let sched = open_loop_schedule(ctx.seed, CHURN_STREAMS, CHURN_SKEW, CHURN_RATE, count);
    let mut seen: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let obs: Vec<&[f32]> = sched
        .iter()
        .map(|s| {
            let n = seen.entry(s.stream).or_insert(0);
            *n += 1;
            episodes.row((s.stream % EPISODES as u64) as usize, *n - 1)
        })
        .collect();
    let t = Instant::now();
    let payloads: Vec<Vec<u8>> = sched
        .iter()
        .zip(&obs)
        .enumerate()
        .map(|(i, (s, o))| decide(i as u64, s.stream, o).encode())
        .collect();
    let encode_ns = t.elapsed().as_nanos() as f64 / count as f64;
    let due: Vec<u64> = sched.iter().map(|s| s.due_ns).collect();

    let state = ctx.work.join("churn-state");
    let shards = 2usize;
    let extra = [
        ("shards", shards.to_string()),
        ("state-dir", state.display().to_string()),
        ("checkpoint-every", "16384".to_string()),
        ("hibernate-after", "256".to_string()),
        ("max-hibernated", "8192".to_string()),
        ("max-streams", "65536".to_string()),
    ];
    let args = serve_args("tiny", &arts, &extra);
    let socket = ctx.work.join("churn.sock");
    let mut checker = Checker::new(&fsm, bundle.num_actions(), true);
    let fresh = || {
        let _ = std::fs::remove_dir_all(&state);
        Ok(())
    };
    let (daemon, mut conn, setup_s) = setups(&args, &socket, &episodes, &mut checker, &fresh)?;

    let mut replies: Vec<Vec<u8>> = Vec::new();
    let (lat_us, lags, missing, measured_s) =
        open_loop(&mut conn, &due, &payloads, warm, |i, payload, resp| {
            checker.reply(sched[i].stream, obs[i], resp);
            if ctx.trace {
                replies.push(payload.to_vec());
            }
        })?;
    let last_window = (ctx.seconds as u32).max(1) - 1;
    let measured: Vec<(u32, f64)> = (warm..count)
        .filter(|&i| !lat_us[i].is_nan())
        .map(|i| {
            let w = ((due[i] - due[warm]) / 1_000_000_000) as u32;
            (w.min(last_window), lat_us[i])
        })
        .collect();
    let (p50, p99) = window_percentiles(&measured)?;
    let stats = conn.stats()?;
    // Completions over the span from the first measured due time to the
    // last reply: the offered rate unless the daemon falls behind.
    out.e2e
        .push("decisions_per_s", measured.len() as f64 / measured_s);
    out.e2e.push("decide_p50_us", p50);
    let tiers = stats.tiers();
    out.e2e.push(
        "fsm_served_share",
        share(tiers[TIER_FSM], tiers.iter().sum()),
    );
    out.e2e.push("mem_mb", daemon.peak_rss_mb());
    out.e2e.push("setup_s", setup_s);
    out.layers.push("client.samples", measured.len() as f64);
    out.layers.push("gen.lag_us", mean(&lags[warm..]));
    let mut late = lags[warm..].to_vec();
    late.sort_by(f64::total_cmp);
    out.layers
        .push("gen.lag_p99_us", percentile(&late, 0.99).unwrap_or(0.0));
    out.layers.push("client.p99_us", p99);
    out.layers.push("protocol.encode_ns", encode_ns);
    daemon_layers(&stats, &mut out.layers);
    // Durable streams: compact and hibernated (resident ladders are not
    // checkpointed by design and re-admit fresh after a restart).
    let held = stats.get("compact") + stats.get("hibernated");
    let served = stats.get("served");
    drop(conn);

    // Graceful drain (final checkpoint), then a real restart with --recover.
    daemon.shutdown()?;
    let drained: u64 = persist::inspect(&state).iter().map(|c| c.records).sum();
    out.layers.push("persist.drained_streams", drained as f64);
    let ckpt_bytes = dir_bytes(&state, "ckpt");
    out.layers.push("persist.ckpt_bytes", ckpt_bytes as f64);
    out.layers.push(
        "persist.bytes_per_decision",
        (ckpt_bytes as f64 / shards as f64 * stats.get("checkpoints") as f64
            + dir_bytes(&state, "wal") as f64)
            / served.max(1) as f64,
    );
    if ctx.trace {
        let keys: Vec<u64> = sched.iter().map(|s| s.stream).collect();
        let scratch = ctx.work.join("churn-ckpt-copy");
        let _ = std::fs::remove_dir_all(&scratch);
        state_layers(&fsm, &keys, &state, shards, &scratch, &mut out.layers)?;
        let t = Instant::now();
        for p in &replies {
            std::hint::black_box(decode(p).map_err(|e| format!("decode: {e}"))?);
        }
        out.layers.push(
            "protocol.decode_ns",
            t.elapsed().as_nanos() as f64 / replies.len().max(1) as f64,
        );
        tier_compute(&bundle, &fsm, &episodes, &mut out.layers);
        let rtt: Vec<f64> = measured.iter().map(|&(_, v)| v).collect();
        residual(
            mean(&rtt),
            encode_ns + out.layers.get("protocol.decode_ns").unwrap_or(0.0),
            &checker.tally,
            &mut out.layers,
        );
    }
    // Restarts with --recover: each must resume every stream its
    // predecessor's drain checkpoint holds.
    let mut recover_args = args.clone();
    recover_args.push("--recover".to_string());
    let top = crate::traffic::stream_id(0);
    let top_ep = (top % EPISODES as u64) as usize;
    let mut restarts = Vec::new();
    let (mut drained, mut recovered, mut quarantined) = (drained, 0, 0);
    let mut lost = 0u64;
    for k in 0..RESTARTS {
        let probe = (top, episodes.row(top_ep, seen[&top] + k));
        let (daemon, mut conn, s) = start(&recover_args, &socket, probe, &mut checker)?;
        restarts.push(s);
        let revived = await_recovery(&mut conn, drained)?;
        recovered = revived.get("recovered_streams");
        quarantined = revived.get("quarantined_records");
        if recovered != drained || drained == 0 {
            eprintln!("recovered {recovered} streams, but the drain checkpoint holds {drained}");
            lost += 1;
        }
        drop(conn);
        daemon.shutdown()?;
        drained = persist::inspect(&state).iter().map(|c| c.records).sum();
    }
    out.layers
        .push("recover_s", median(&restarts).expect("non-empty"));
    out.layers
        .push("persist.recovered_streams", recovered as f64);
    out.layers
        .push("persist.quarantined_records", quarantined as f64);
    out.layers.push("persist.held_streams", held as f64);

    finish(&mut out, &checker.tally, missing);
    if lost > 0 {
        out.correct = false;
        out.failed += lost;
    }
    out.config = vec![
        ("workload", "serve-churn".to_string()),
        ("seed", ctx.seed.to_string()),
        ("pipeline", format!("tiny seed {}", cfg.seed)),
        ("daemon", args[3..].join(" ")),
        (
            "clients",
            format!(
                "open loop {CHURN_RATE}/s, {CHURN_STREAMS} streams zipf {CHURN_SKEW}, 1 connection"
            ),
        ),
        (
            "fsm",
            format!("{} states, {} symbols", fsm.num_states(), fsm.num_symbols()),
        ),
    ];
    Ok(out)
}
