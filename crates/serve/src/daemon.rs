//! The serving daemon: Unix-socket listener, connection routing, admission
//! control, and crash-safe hot reload.
//!
//! Topology: one acceptor thread, one reader thread per connection, and
//! `shards` worker threads (see [`crate::shard`]) behind bounded queues.
//! Streams are hashed to shards ([`shard_of`]), so one stream's requests
//! are always ordered through one worker. There is no writer thread:
//! every connection's write half is a shared [`ReplyConn`], and whoever
//! has the answer writes it — a shard writes its batch's replies itself,
//! one coalesced write per connection per batch, and the reader writes the
//! answers it produces inline (sheds, stats, pings, reloads, errors).
//!
//! Slow clients: a reply write may block for at most [`WRITE_TIMEOUT`].
//! A client that stops reading its replies fills its socket buffer; the
//! next write to it that cannot finish in time shuts the connection down
//! in both directions (a partly written frame must never be followed by
//! another one), marks it dead so later writes to it are skipped, and
//! counts one `slow_client_drops`. The daemon therefore never buffers
//! replies for a client without bound, and a stalled client delays the
//! shards that answer it by at most about one write timeout, once.
//!
//! Admission control: enqueue uses `try_send` against the bounded shard
//! queue, retrying `ADMISSION_RETRIES` times with a short backoff on
//! transient fullness; persistent fullness *sheds* the request — it is
//! answered inline from the scenario-baseline fallback policy (labelled
//! [`crate::Source::Shed`]) instead of being rejected, and counted.
//!
//! Hot reload: a [`Request::Reload`] validates the candidate bundle
//! off-path on the connection thread ([`ServeBundle::load`]: checked
//! artifact parsing plus an inference probe). Only a sound bundle is
//! published — the generation counter bumps and every shard swaps at its
//! next batch boundary. A corrupt candidate is rejected with the old
//! bundle untouched; there is nothing to roll back because nothing was
//! swapped. (There is no portable signal handling in std, so reload is
//! command-triggered over the socket rather than via SIGHUP.)

use std::io::{BufReader, ErrorKind, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lahd_core::PipelineConfig;
use lahd_fsm::VecPolicy;

use crate::bundle::ServeBundle;
use crate::metrics::{render_stats_json, ServeMetrics};
use crate::protocol::{push_frame, read_frame, Request, Response, Source};
use crate::shard::{run_shard, ShardMsg, TIER_BASELINE};
use crate::telemetry::{run_aggregator, telemetry_channel, TelemetryHub};

/// `try_send` retries before a request is shed.
const ADMISSION_RETRIES: u32 = 2;

/// Sleep between admission retries.
const RETRY_BACKOFF: Duration = Duration::from_micros(100);

/// Longest a reply write to one connection may block before the client
/// counts as stalled and is disconnected (see the module doc).
pub const WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// The write half of one client connection, shared by its reader thread
/// and by every shard that answers it.
pub struct ReplyConn {
    inner: Mutex<ConnWriter>,
}

struct ConnWriter {
    stream: UnixStream,
    /// Set once a write failed; the socket is shut down and every later
    /// write is skipped.
    dead: bool,
}

impl ReplyConn {
    /// Wraps a connection's write half and arms its [`WRITE_TIMEOUT`].
    pub fn new(stream: UnixStream) -> std::io::Result<Self> {
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(Self {
            inner: Mutex::new(ConnWriter {
                stream,
                dead: false,
            }),
        })
    }

    /// Writes `frames` — whole frames, as built by
    /// [`crate::protocol::push_frame`] — with one `write` call, looping
    /// only on a short write. A write that fails, or that has not finished
    /// [`WRITE_TIMEOUT`] after it began, kills the connection (counted in
    /// `slow_client_drops` when the client stalled rather than left).
    pub fn write_frames(&self, frames: &[u8], metrics: &ServeMetrics) {
        let mut w = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if w.dead {
            return;
        }
        let started = Instant::now();
        let mut rest = frames;
        let failed = loop {
            if rest.is_empty() {
                break None;
            }
            match w.stream.write(rest) {
                Ok(0) => break Some(ErrorKind::WriteZero),
                Ok(n) => {
                    rest = &rest[n..];
                    // Each blocked call is bounded by the socket timeout;
                    // this bounds a trickle of short writes too.
                    if !rest.is_empty() && started.elapsed() >= WRITE_TIMEOUT {
                        break Some(ErrorKind::TimedOut);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Some(e.kind()),
            }
        };
        let Some(kind) = failed else {
            return;
        };
        if matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            ServeMetrics::bump(&metrics.slow_client_drops);
        }
        let _ = w.stream.shutdown(Shutdown::Both);
        w.dead = true;
    }

    /// Writes one response as one frame.
    pub fn send(&self, resp: &Response, metrics: &ServeMetrics) {
        let mut frame = Vec::new();
        push_frame(&mut frame, &resp.encode());
        self.write_frames(&frame, metrics);
    }
}

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of shard worker threads.
    pub shards: usize,
    /// Bounded per-shard queue capacity (admission control trips beyond).
    pub queue_capacity: usize,
    /// Maximum live streams per shard; excess streams are shed.
    pub max_streams: usize,
    /// Whether chaos requests ([`Request::Crash`], [`Request::Hold`]) are
    /// honoured. Off by default; the chaos harness turns it on.
    pub allow_chaos: bool,
    /// Decisions between periodic full-guard audits of a compact stream
    /// (staggered per stream; 0 disables audits).
    pub audit_every: u64,
    /// Idle shard ticks (batches or 20 ms idle intervals) before a compact
    /// stream hibernates into the arena (0 disables hibernation).
    pub hibernate_after: u64,
    /// Shard ticks between clock-sweep invocations.
    pub sweep_every: u64,
    /// Hibernation-arena capacity per shard; clock/second-chance eviction
    /// beyond (an evicted stream re-admits fresh).
    pub max_hibernated: usize,
    /// Directory for durable per-shard state (checkpoints + journals);
    /// `None` disables persistence entirely.
    pub state_dir: Option<PathBuf>,
    /// Shard ticks between periodic checkpoints (0 = checkpoint only on
    /// graceful drain). Ignored without a `state_dir`.
    pub checkpoint_every: u64,
    /// Whether shards load their checkpoint + journal on first boot (a
    /// one-shot latch: panic restarts and bundle swaps never reload).
    pub recover: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            queue_capacity: 64,
            max_streams: 1024,
            allow_chaos: false,
            audit_every: 4096,
            hibernate_after: 512,
            sweep_every: 32,
            max_hibernated: 1 << 20,
            state_dir: None,
            checkpoint_every: 0,
            recover: false,
        }
    }
}

impl ServeConfig {
    /// Clamps fields into their safe ranges (1–256 shards, non-zero
    /// queue, table, sweep cadence and arena).
    pub fn sanitized(mut self) -> Self {
        self.shards = self.shards.clamp(1, 256);
        self.queue_capacity = self.queue_capacity.max(1);
        self.max_streams = self.max_streams.max(1);
        self.sweep_every = self.sweep_every.max(1);
        self.max_hibernated = self.max_hibernated.max(1);
        self
    }
}

/// State shared by every daemon thread.
pub struct SharedState {
    /// Daemon knobs.
    pub cfg: ServeConfig,
    /// Pipeline configuration reload candidates are validated under.
    pub pipeline_cfg: PipelineConfig,
    /// The currently published bundle.
    pub bundle: Mutex<Arc<ServeBundle>>,
    /// Bundle generation; bumps on every accepted reload.
    pub generation: AtomicU64,
    /// Daemon-wide off-path counters (decision-path counters travel
    /// through `telemetry`).
    pub metrics: ServeMetrics,
    /// The telemetry sidecar's shard-facing half: shards flush deltas
    /// through it, the stats endpoint syncs snapshots from it.
    pub telemetry: TelemetryHub,
    /// Set once; every loop drains and exits. (`Arc` so the aggregator
    /// thread can hold it past the daemon's lifetime edge cases.)
    pub shutdown: Arc<AtomicBool>,
    /// Per-shard one-shot recovery latches: `true` until the shard's first
    /// boot consumes it via [`SharedState::take_recover`].
    pub recover_shards: Vec<AtomicBool>,
}

impl SharedState {
    /// Consumes shard `i`'s recovery latch. Returns `true` exactly once
    /// per daemon lifetime — a panic restart or bundle swap rebuilds the
    /// shard fresh instead of resurrecting a checkpoint that is now stale
    /// against the live daemon's state.
    pub fn take_recover(&self, shard: usize) -> bool {
        self.recover_shards
            .get(shard)
            .is_some_and(|latch| latch.swap(false, Ordering::AcqRel))
    }
}

/// Hashes a stream id to its shard (FNV-1a over the id bytes).
pub fn shard_of(stream: u64, shards: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in stream.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// A running daemon; drop order is handled by [`ServeHandle::wait`].
pub struct ServeHandle {
    shared: Arc<SharedState>,
    socket: PathBuf,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    aggregator: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// The socket the daemon listens on.
    pub fn socket_path(&self) -> &Path {
        &self.socket
    }

    /// Shared state (metrics, generation) for in-process harnesses.
    pub fn shared(&self) -> &Arc<SharedState> {
        &self.shared
    }

    /// Requests shutdown without waiting (clients normally send
    /// [`Request::Shutdown`] instead).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Blocks until the acceptor, every shard worker, and the telemetry
    /// aggregator have exited, then removes the socket file.
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for handle in self.shards.drain(..) {
            let _ = handle.join();
        }
        // Shards are gone, so no more deltas; let the aggregator see the
        // flag on its next idle interval.
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(aggregator) = self.aggregator.take() {
            let _ = aggregator.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Starts the daemon over an already-validated bundle.
pub fn serve(
    bundle: ServeBundle,
    pipeline_cfg: PipelineConfig,
    cfg: ServeConfig,
    socket: &Path,
) -> std::io::Result<ServeHandle> {
    let cfg = cfg.sanitized();
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
    listener.set_nonblocking(true)?;

    // Sidecar channel sized a few deltas per shard: shards defer (never
    // block, never drop) on transient fullness.
    let (telemetry, telemetry_rx) = telemetry_channel(cfg.shards * 4);
    let shutdown = Arc::new(AtomicBool::new(false));
    let recover = cfg.recover && cfg.state_dir.is_some();
    let shared = Arc::new(SharedState {
        recover_shards: (0..cfg.shards).map(|_| AtomicBool::new(recover)).collect(),
        cfg: cfg.clone(),
        pipeline_cfg,
        bundle: Mutex::new(Arc::new(bundle)),
        generation: AtomicU64::new(1),
        metrics: ServeMetrics::default(),
        telemetry: telemetry.clone(),
        shutdown: shutdown.clone(),
    });

    let aggregator = {
        let hub = telemetry.clone();
        let shards = cfg.shards;
        std::thread::Builder::new()
            .name("lahd-telemetry".to_string())
            .spawn(move || run_aggregator(telemetry_rx, hub, shards, shutdown))?
    };

    let mut senders = Vec::with_capacity(cfg.shards);
    let mut shards = Vec::with_capacity(cfg.shards);
    for i in 0..cfg.shards {
        let (tx, rx) = mpsc::sync_channel::<ShardMsg>(cfg.queue_capacity);
        senders.push(tx);
        let shared = shared.clone();
        shards.push(
            std::thread::Builder::new()
                .name(format!("lahd-shard-{i}"))
                .spawn(move || run_shard(i, rx, shared))?,
        );
    }

    let acceptor = {
        let shared = shared.clone();
        let senders = senders.clone();
        std::thread::Builder::new()
            .name("lahd-accept".to_string())
            .spawn(move || accept_loop(listener, shared, senders))?
    };

    Ok(ServeHandle {
        shared,
        socket: socket.to_path_buf(),
        acceptor: Some(acceptor),
        shards,
        aggregator: Some(aggregator),
    })
}

/// Loads + validates the bundle in `dir`, then starts the daemon.
pub fn serve_dir(
    pipeline_cfg: &PipelineConfig,
    dir: &Path,
    cfg: ServeConfig,
    socket: &Path,
) -> Result<ServeHandle, String> {
    let bundle = ServeBundle::load(pipeline_cfg, dir)?;
    serve(bundle, pipeline_cfg.clone(), cfg, socket).map_err(|e| format!("bind failed: {e}"))
}

fn accept_loop(
    listener: UnixListener,
    shared: Arc<SharedState>,
    senders: Vec<SyncSender<ShardMsg>>,
) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = shared.clone();
                let senders = senders.clone();
                let _ = std::thread::Builder::new()
                    .name("lahd-conn".to_string())
                    .spawn(move || handle_conn(stream, shared, senders));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(_) => break,
        }
    }
    // Stop the workers; queued requests drain first (FIFO).
    for tx in &senders {
        let _ = tx.send(ShardMsg::Shutdown);
    }
}

fn handle_conn(stream: UnixStream, shared: Arc<SharedState>, senders: Vec<SyncSender<ShardMsg>>) {
    let Ok(conn) = stream.try_clone().and_then(ReplyConn::new) else {
        return;
    };
    let conn = Arc::new(conn);
    let metrics = &shared.metrics;
    let mut reader = BufReader::new(stream);
    // Built lazily from the current bundle; depends only on the scenario,
    // so it survives reloads.
    let mut shed_policy: Option<Box<dyn VecPolicy>> = None;
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        let req = match Request::decode(&frame) {
            Ok(req) => req,
            Err(e) => {
                conn.send(&Response::Err(e.to_string()), metrics);
                continue;
            }
        };
        let resp = match req {
            Request::Decide {
                req_id,
                stream: stream_id,
                deadline_us,
                obs,
            } => {
                route_decide(
                    &shared,
                    &senders,
                    &conn,
                    &mut shed_policy,
                    req_id,
                    stream_id,
                    deadline_us,
                    obs,
                );
                continue;
            }
            Request::Stats => {
                // The sync is a read barrier: every delta a shard flushed
                // before any reply this client has seen is merged first.
                let snap = shared.telemetry.sync();
                let gen = shared.generation.load(Ordering::Acquire);
                Response::StatsJson(render_stats_json(gen, shared.cfg.shards, metrics, &snap))
            }
            Request::Reload { dir } => {
                match ServeBundle::load(&shared.pipeline_cfg, Path::new(&dir)) {
                    Ok(bundle) => {
                        *shared.bundle.lock().unwrap() = Arc::new(bundle);
                        let gen = shared.generation.fetch_add(1, Ordering::AcqRel) + 1;
                        ServeMetrics::bump(&metrics.reloads_ok);
                        Response::ReloadOk { generation: gen }
                    }
                    Err(e) => {
                        ServeMetrics::bump(&metrics.reloads_rejected);
                        Response::Err(format!("reload rejected: {e}"))
                    }
                }
            }
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::Release);
                Response::Ok
            }
            // Liveness probe: answered inline on the connection thread,
            // so it works even while every shard queue is saturated.
            Request::Ping => Response::Ok,
            Request::Crash { shard } => chaos_send(&shared, &senders, shard, ShardMsg::Crash),
            Request::Hold { shard, ms } => chaos_send(
                &shared,
                &senders,
                shard,
                ShardMsg::Hold { ms: ms.min(10_000) },
            ),
        };
        conn.send(&resp, metrics);
    }
}

fn chaos_send(
    shared: &SharedState,
    senders: &[SyncSender<ShardMsg>],
    shard: u32,
    msg: ShardMsg,
) -> Response {
    if !shared.cfg.allow_chaos {
        return Response::Err("chaos requests are disabled".to_string());
    }
    let Some(tx) = senders.get(shard as usize) else {
        return Response::Err(format!("no such shard {shard}"));
    };
    match tx.try_send(msg) {
        Ok(()) => Response::Ok,
        Err(_) => Response::Err(format!("shard {shard} queue full")),
    }
}

#[allow(clippy::too_many_arguments)]
fn route_decide(
    shared: &SharedState,
    senders: &[SyncSender<ShardMsg>],
    conn: &Arc<ReplyConn>,
    shed_policy: &mut Option<Box<dyn VecPolicy>>,
    req_id: u64,
    stream_id: u64,
    deadline_us: u64,
    obs: Vec<f32>,
) {
    let shard = shard_of(stream_id, senders.len());
    let enqueued = Instant::now();
    let deadline = (deadline_us > 0).then(|| enqueued + Duration::from_micros(deadline_us));
    let mut msg = ShardMsg::Decide {
        req_id,
        stream: stream_id,
        deadline,
        enqueued,
        obs,
        reply: conn.clone(),
    };
    for attempt in 0..=ADMISSION_RETRIES {
        match senders[shard].try_send(msg) {
            Ok(()) => return,
            Err(TrySendError::Full(back)) => {
                ServeMetrics::bump(&shared.metrics.queue_full);
                msg = back;
                if attempt < ADMISSION_RETRIES {
                    std::thread::sleep(RETRY_BACKOFF);
                }
            }
            Err(TrySendError::Disconnected(back)) => {
                msg = back;
                break;
            }
        }
    }
    // Persistent backpressure: degrade gracefully by answering from the
    // cheap scenario-baseline fallback instead of erroring.
    let ShardMsg::Decide { req_id, obs, .. } = msg else {
        unreachable!("decide admission only routes decide messages");
    };
    let policy = shed_policy.get_or_insert_with(|| {
        let bundle = shared.bundle.lock().unwrap().clone();
        bundle
            .scenario()
            .baselines(&bundle.cfg.sim)
            .into_iter()
            .next()
            .expect("every scenario registers at least one baseline")
    });
    let action = policy.act_vec(&obs) as u16;
    ServeMetrics::bump(&shared.metrics.shed);
    conn.send(
        &Response::Decision {
            req_id,
            action,
            tier: TIER_BASELINE as u8,
            source: Source::Shed as u8,
        },
        &shared.metrics,
    );
}
