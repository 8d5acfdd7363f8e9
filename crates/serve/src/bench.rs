//! The correctness harnesses behind `lahd serve-bench` and
//! `lahd serve-drill`. Serving performance is measured by the
//! repository benchmark (`perfbench/`), not here.
//!
//! - **Chaos plan** ([`run_bench`]): `rounds` lockstep rounds of one
//!   decision per stream, with an optional [`ChaosPlan`] firing mid-run —
//!   kill a shard worker, hold a shard while bursting `burst_factor ×`
//!   load at it (exercising admission control and a deadline miss
//!   deterministically), and offer a corrupt artifact bundle for hot
//!   reload. The summary contains only run-invariant facts
//!   (request/response totals, recovery booleans, a checksum of every
//!   pre-chaos action), so a same-seed re-run against a fresh daemon
//!   produces a byte-identical chaos JSON.
//! - **Streams sweep** ([`run_streams_sweep`]): self-hosts one daemon per
//!   size, admits every stream with one windowed lockstep round, and
//!   reads the admitted count and the live/RSS bytes per stream.
//! - **Restart drill** ([`run_restart_drill`]): SIGKILLs a durable daemon
//!   child and checks that the restarted one serves the same actions.
//!
//! All three drive load through [`lockstep_round`]. Observations are
//! synthesised per `(stream, round)` from the artifact directory's
//! `baseline.profile` (uniform inside each dimension's interquartile
//! band), so the traffic looks healthy to the guards and is a pure
//! function of the seed.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lahd_guard::BaselineProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::client::ServeClient;
use crate::metrics::MetricsSnapshot;
use crate::persist;
use crate::protocol::{Request, Response, Source};

/// When chaos events fire, relative to the lockstep round counter.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Round at which the target shard's worker is crashed.
    pub kill_round: u64,
    /// Shard whose worker is crashed (also the shard held during the
    /// burst).
    pub kill_shard: u32,
    /// Round at which the 10×-style burst fires.
    pub burst_round: u64,
    /// Load multiplier during the burst round.
    pub burst_factor: u64,
    /// How long the target shard is held (asleep) during the burst,
    /// milliseconds — this is what makes shedding deterministic.
    pub hold_ms: u32,
    /// Round at which the corrupt reload candidate is offered.
    pub reload_round: u64,
    /// Artifact directory of the (deliberately corrupt) reload candidate.
    pub corrupt_dir: PathBuf,
}

impl ChaosPlan {
    /// The standard plan: kill at ¼, burst 10× at ½, corrupt reload at ¾.
    pub fn standard(rounds: u64, corrupt_dir: PathBuf) -> Self {
        Self {
            kill_round: (rounds / 4).max(1),
            kill_shard: 0,
            burst_round: (rounds / 2).max(2),
            burst_factor: 10,
            hold_ms: 100,
            reload_round: (3 * rounds / 4).max(3),
            corrupt_dir,
        }
    }

    /// First round at which any chaos fires (the checksum covers rounds
    /// strictly before it).
    pub fn first_round(&self) -> u64 {
        self.kill_round.min(self.burst_round).min(self.reload_round)
    }

    fn describe(&self) -> String {
        format!(
            "kill shard {}@r{}, burst x{}@r{} (hold {}ms), corrupt-reload@r{}",
            self.kill_shard,
            self.kill_round,
            self.burst_factor,
            self.burst_round,
            self.hold_ms,
            self.reload_round
        )
    }
}

/// Harness parameters.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Number of concurrent streams.
    pub streams: u64,
    /// Lockstep rounds.
    pub rounds: u64,
    /// Seed for observation synthesis.
    pub seed: u64,
    /// Optional chaos plan fired during the rounds.
    pub chaos: Option<ChaosPlan>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            streams: 8,
            rounds: 40,
            seed: 7,
            chaos: None,
        }
    }
}

/// Run-invariant chaos-plan outcome; [`ChaosOutcome::to_json`] is the
/// byte-reproducible summary the acceptance test compares.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosOutcome {
    /// Echo of the bench seed.
    pub seed: u64,
    /// Echo of the stream count.
    pub streams: u64,
    /// Echo of the round count.
    pub rounds: u64,
    /// Human-readable plan description ("none" without a plan).
    pub plan: String,
    /// Decision requests in the rounds driven (one whose send failed
    /// counts, and goes unanswered).
    pub requests: u64,
    /// Responses received (must equal `requests`: shedding degrades, it
    /// never drops).
    pub responses: u64,
    /// FNV-1a over every pre-chaos `(round, stream, action)` triple.
    pub prechaos_checksum: u64,
    /// The daemon still answered a stats request after the last round.
    pub daemon_alive: bool,
    /// The killed shard's worker restarted and served guarded decisions
    /// again afterwards (vacuously true without a plan).
    pub shard_recovered: bool,
    /// The corrupt reload candidate was rejected (vacuously true without a
    /// plan).
    pub reload_rejected: bool,
    /// The bundle generation did not change across the run.
    pub generation_unchanged: bool,
    /// At least one burst request was shed to the fallback tier.
    pub shed_observed: bool,
    /// The deliberately-delayed request was answered from the fallback
    /// tier with the deadline label.
    pub deadline_fallback: bool,
}

impl ChaosOutcome {
    /// Stable-order JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"seed\":{},\"streams\":{},\"rounds\":{},\"plan\":\"{}\",",
                "\"requests\":{},\"responses\":{},\"prechaos_checksum\":\"{:#018x}\",",
                "\"daemon_alive\":{},\"shard_recovered\":{},\"reload_rejected\":{},",
                "\"generation_unchanged\":{},\"shed_observed\":{},\"deadline_fallback\":{}}}"
            ),
            self.seed,
            self.streams,
            self.rounds,
            self.plan,
            self.requests,
            self.responses,
            self.prechaos_checksum,
            self.daemon_alive,
            self.shard_recovered,
            self.reload_rejected,
            self.generation_unchanged,
            self.shed_observed,
            self.deadline_fallback
        )
    }

    /// Whether every robustness property held.
    pub fn all_good(&self) -> bool {
        self.responses == self.requests
            && self.daemon_alive
            && self.shard_recovered
            && self.reload_rejected
            && self.generation_unchanged
            && self.shed_observed
            && self.deadline_fallback
    }
}

/// One point of the streams sweep: a self-hosted daemon sized for
/// `streams`, after one decision per stream.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Requested concurrent stream count.
    pub streams: u64,
    /// Streams actually admitted (compact + resident + hibernated, from
    /// the daemon's sync-barriered gauges).
    pub admitted: u64,
    /// Measured live heap bytes per admitted stream (counting allocator;
    /// 0 when the allocator is not installed — see [`crate::live_bytes`]).
    pub live_bytes_per_stream: u64,
    /// RSS growth across the warm, bytes (page-granular, informational).
    pub rss_delta_bytes: u64,
    /// RSS growth per admitted stream (informational).
    pub rss_bytes_per_stream: u64,
    /// Requests shed during the warm (labelled answers, not errors).
    pub shed: u64,
    /// Gauge after warm: compact streams.
    pub compact: u64,
    /// Gauge after warm: resident (full-ladder) streams.
    pub resident: u64,
    /// Gauge after warm: hibernated streams.
    pub hibernated: u64,
}

/// The streams sweep a `lahd serve-bench --streams-sweep …` run produced.
#[derive(Clone, Debug, Default)]
pub struct StreamsSweep {
    /// One point per requested size, in request order.
    pub points: Vec<SweepPoint>,
}

impl StreamsSweep {
    /// Stable-order JSON rendering.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    concat!(
                        "{{\"streams\":{},\"admitted\":{},",
                        "\"live_bytes_per_stream\":{},\"rss_delta_bytes\":{},",
                        "\"rss_bytes_per_stream\":{},\"shed\":{},",
                        "\"compact\":{},\"resident\":{},\"hibernated\":{}}}"
                    ),
                    p.streams,
                    p.admitted,
                    p.live_bytes_per_stream,
                    p.rss_delta_bytes,
                    p.rss_bytes_per_stream,
                    p.shed,
                    p.compact,
                    p.resident,
                    p.hibernated
                )
            })
            .collect();
        format!("{{\"points\":[{}]}}", points.join(","))
    }
}

/// One decision reply: `(action, tier, source)`.
type Reply = (u16, u8, u8);

/// How long the harness client waits for any one reply. The slowest
/// legitimate wait is a held or restarting shard (hundreds of ms); a
/// reply later than this counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Request id of stream `stream`'s decision in `round`, repetition `rep`
/// (only the chaos burst sends more than one per stream and round).
fn req_id(round: u64, rep: u64, stream: u64) -> u64 {
    (round << 40) | (rep << 24) | stream
}

/// Drives one lockstep round: one [`synth_obs`] decision per stream, with
/// at most `window` outstanding (backpressure instead of queue sheds).
/// Returns each stream's reply in stream order, `None` where none came:
/// a failed send or receive (the daemon dropped the connection, or no
/// reply within [`REPLY_TIMEOUT`]) ends the round, because the
/// connection's reply stream can no longer be trusted.
fn lockstep_round(
    client: &mut ServeClient,
    profile: &BaselineProfile,
    seed: u64,
    streams: u64,
    round: u64,
    window: u64,
) -> Result<Vec<Option<Reply>>, String> {
    let mut replies: Vec<Option<Reply>> = vec![None; streams as usize];
    let (mut sent, mut received) = (0u64, 0u64);
    while received < streams {
        while sent < streams && sent - received < window.max(1) {
            let req = Request::Decide {
                req_id: req_id(round, 0, sent),
                stream: sent,
                deadline_us: 0,
                obs: synth_obs(profile, seed, sent, round),
            };
            if client.send(&req).is_err() {
                return Ok(replies);
            }
            sent += 1;
        }
        match client.recv() {
            Ok(Response::Decision {
                req_id: id,
                action,
                tier,
                source,
            }) => {
                let slot = id
                    .checked_sub(req_id(round, 0, 0))
                    .and_then(|stream| replies.get_mut(stream as usize))
                    .filter(|slot| slot.is_none())
                    .ok_or(format!("round {round}: stray reply id {id:#x}"))?;
                *slot = Some((action, tier, source));
                received += 1;
            }
            Ok(other) => return Err(format!("round {round}: unexpected response {other:?}")),
            Err(_) => break,
        }
    }
    Ok(replies)
}

/// A round's replies, or an error naming how many never arrived.
fn complete(round: u64, replies: Vec<Option<Reply>>) -> Result<Vec<Reply>, String> {
    let lost = replies.iter().filter(|r| r.is_none()).count();
    if lost > 0 {
        return Err(format!("round {round}: {lost} replies lost"));
    }
    Ok(replies.into_iter().flatten().collect())
}

/// Folds one round's actions into an FNV-1a checksum: `(round, stream,
/// action)` for every stream, in stream order.
fn fold_round(mut h: u64, round: u64, replies: &[Reply]) -> u64 {
    for (stream, &(action, _, _)) in replies.iter().enumerate() {
        for v in [round, stream as u64, action as u64] {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
    }
    h
}

/// FNV-1a offset basis: the checksum of no rounds.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Runs the streams sweep: for each size, self-host a daemon sized for it
/// (hibernation off, so the measurement reflects the live compact tier),
/// admit every stream with one windowed lockstep round, read the memory
/// deltas, and shut down. Memory numbers are process-wide deltas, so the
/// sweep must run with no other daemon in-process.
pub fn run_streams_sweep(
    pipeline_cfg: &lahd_core::PipelineConfig,
    artifacts: &Path,
    base: &crate::ServeConfig,
    sizes: &[u64],
    seed: u64,
) -> Result<StreamsSweep, String> {
    let profile = load_profile(artifacts)?;
    let mut points = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let n = n.max(1);
        let mut cfg = base.clone();
        // Sized so hash imbalance across shards cannot shed, and with the
        // cold tier disabled: every admitted stream stays live in its
        // table, which is the bytes/stream story the sweep reports.
        cfg.max_streams = n as usize;
        cfg.hibernate_after = 0;
        cfg.allow_chaos = false;
        let window = (cfg.queue_capacity as u64).clamp(16, 256);
        let socket =
            std::env::temp_dir().join(format!("lahd-sweep-{}-{n}.sock", std::process::id()));
        let handle = crate::daemon::serve_dir(pipeline_cfg, artifacts, cfg, &socket)?;
        let result = (|| -> Result<SweepPoint, String> {
            let mut client = connect(&socket)?;
            stats(&mut client)?; // settle: daemon + sidecar up
            let live0 = crate::live_bytes();
            let rss0 = crate::rss_bytes();
            let replies = complete(
                0,
                lockstep_round(&mut client, &profile, seed, n, 0, window)?,
            )?;
            let snap = stats(&mut client)?; // sync barrier: exact gauges
            let live_delta = crate::live_bytes().saturating_sub(live0);
            let rss_delta = crate::rss_bytes().saturating_sub(rss0);
            let admitted = snap.streams_total().max(1);
            Ok(SweepPoint {
                streams: n,
                admitted: snap.streams_total(),
                live_bytes_per_stream: live_delta / admitted,
                rss_delta_bytes: rss_delta,
                rss_bytes_per_stream: rss_delta / admitted,
                shed: replies.iter().filter(|r| r.2 == Source::Shed as u8).count() as u64,
                compact: snap.streams_compact,
                resident: snap.streams_resident,
                hibernated: snap.streams_hibernated,
            })
        })();
        // Always stop the daemon, even on a failed measurement, so the
        // next size starts from a clean process-wide memory baseline.
        handle.shutdown();
        handle.wait();
        points.push(result?);
    }
    Ok(StreamsSweep { points })
}

/// Copies the artifact directory to `out` and flips one bit in the middle
/// of `agent.params` — the hot-reload candidate that must be rejected.
pub fn prepare_corrupt_candidate(artifacts: &Path, out: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(out);
    std::fs::create_dir_all(out)?;
    for entry in std::fs::read_dir(artifacts)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), out.join(entry.file_name()))?;
        }
    }
    let target = out.join("agent.params");
    let mut bytes = std::fs::read(&target)?;
    let at = bytes.len() / 2;
    bytes[at] ^= 0x10;
    std::fs::write(&target, bytes)
}

/// Deterministic healthy-looking observation for `(stream, round)`:
/// uniform inside each dimension's interquartile band.
fn synth_obs(profile: &BaselineProfile, seed: u64, stream: u64, round: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    profile
        .dims
        .iter()
        .map(|d| {
            let (lo, hi) = (d.p25 as f32, d.p75 as f32);
            if hi > lo {
                rng.gen_range(lo..hi)
            } else {
                lo
            }
        })
        .collect()
}

/// Connects to the daemon at `socket`, retrying while it binds; every
/// receive is bounded by [`REPLY_TIMEOUT`].
fn connect(socket: &Path) -> Result<ServeClient, String> {
    let client = ServeClient::connect_retry(socket, Duration::from_secs(10))
        .map_err(|e| format!("connect to {} failed: {e}", socket.display()))?;
    client
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok(client)
}

fn stats(client: &mut ServeClient) -> Result<MetricsSnapshot, String> {
    client
        .stats()
        .map_err(|e| format!("stats request failed: {e}"))
}

/// Sends one control request that must be acknowledged with `Ok`.
fn expect_ok(client: &mut ServeClient, req: &Request) -> Result<(), String> {
    match client.call(req).map_err(|e| e.to_string())? {
        Response::Ok => Ok(()),
        other => Err(format!("{req:?} refused: {other:?}")),
    }
}

/// Loads the baseline profile the harnesses synthesise observations from.
pub fn load_profile(artifacts: &Path) -> Result<BaselineProfile, String> {
    let file = std::fs::File::open(artifacts.join("baseline.profile"))
        .map_err(|e| format!("baseline.profile unreadable: {e}"))?;
    let mut reader = std::io::BufReader::new(file);
    lahd_guard::read_profile(&mut reader).map_err(|e| format!("baseline.profile corrupt: {e}"))
}

/// Drives the daemon at `socket` through `cfg`'s lockstep rounds and
/// chaos plan, synthesising observations from
/// `artifacts/baseline.profile`.
pub fn run_bench(
    socket: &Path,
    artifacts: &Path,
    cfg: &BenchConfig,
) -> Result<ChaosOutcome, String> {
    let profile = load_profile(artifacts)?;
    let mut client = connect(socket)?;
    let before = stats(&mut client)?;
    let shards = before.shards as usize;
    let first_chaos = cfg
        .chaos
        .as_ref()
        .map_or(cfg.rounds, ChaosPlan::first_round);

    let mut requests = 0u64;
    let mut responses = 0u64;
    let mut checksum = FNV_BASIS;
    let mut reload_rejected = cfg.chaos.is_none();
    let mut shed_observed = false;
    let mut deadline_fallback = cfg.chaos.is_none();
    let mut post_kill_guarded = cfg.chaos.is_none();
    let is_shed = |r: &Reply| r.2 == Source::Shed as u8;

    for round in 0..cfg.rounds {
        let plan = cfg.chaos.as_ref();
        if let Some(plan) = plan.filter(|p| p.kill_round == round) {
            expect_ok(
                &mut client,
                &Request::Crash {
                    shard: plan.kill_shard,
                },
            )?;
        }
        if let Some(plan) = plan.filter(|p| p.reload_round == round) {
            let dir = plan.corrupt_dir.to_string_lossy().into_owned();
            match client
                .call(&Request::Reload { dir })
                .map_err(|e| e.to_string())?
            {
                Response::Err(_) => reload_rejected = true,
                other => return Err(format!("corrupt reload was not rejected: {other:?}")),
            }
        }
        let (sent, replies) = if let Some(plan) = plan.filter(|p| p.burst_round == round) {
            let (sent, got, deadline_id) =
                burst_round(&mut client, &profile, cfg, plan, shards, round)?;
            responses += got.len() as u64;
            shed_observed |= got.values().any(is_shed);
            deadline_fallback |=
                matches!(got.get(&deadline_id), Some(r) if r.2 == Source::Deadline as u8);
            let replies = (0..cfg.streams)
                .map(|s| got.get(&req_id(round, 0, s)).copied())
                .collect();
            (sent, replies)
        } else {
            let replies = lockstep_round(
                &mut client,
                &profile,
                cfg.seed,
                cfg.streams,
                round,
                cfg.streams,
            )?;
            responses += replies.iter().flatten().count() as u64;
            shed_observed |= replies.iter().flatten().any(is_shed);
            (cfg.streams, replies)
        };
        requests += sent;
        let lost = replies.iter().any(Option::is_none);
        let replies: Vec<Reply> = replies.into_iter().flatten().collect();
        if round < first_chaos {
            checksum = fold_round(checksum, round, &replies);
        }
        if let Some(plan) = plan.filter(|p| round > p.kill_round) {
            post_kill_guarded |= replies.iter().enumerate().any(|(stream, r)| {
                crate::daemon::shard_of(stream as u64, shards) == plan.kill_shard as usize
                    && r.2 == Source::Guarded as u8
            });
        }
        if lost {
            // A lost reply leaves the connection's reply stream unusable;
            // the shortfall in `responses` already fails the gate.
            break;
        }
    }

    let after = client.stats().ok();
    let shard_recovered = post_kill_guarded
        && after
            .as_ref()
            .is_some_and(|a| cfg.chaos.is_none() || a.restarts > before.restarts);
    Ok(ChaosOutcome {
        seed: cfg.seed,
        streams: cfg.streams,
        rounds: cfg.rounds,
        plan: cfg
            .chaos
            .as_ref()
            .map_or("none".to_string(), ChaosPlan::describe),
        requests,
        responses,
        prechaos_checksum: checksum,
        daemon_alive: after.is_some(),
        shard_recovered,
        reload_rejected,
        generation_unchanged: after.is_some_and(|a| a.generation == before.generation),
        shed_observed: shed_observed || cfg.chaos.is_none(),
        deadline_fallback,
    })
}

/// The chaos burst: holds the plan's shard, sends it one request whose
/// 1 ms budget expires during the hold (so it must come back from the
/// deadline fallback), then `burst_factor` decisions per stream. Returns
/// the number of requests in the burst, every reply received by request
/// id, and the deadline request's id; like [`lockstep_round`], a failed
/// send or receive ends the round early.
fn burst_round(
    client: &mut ServeClient,
    profile: &BaselineProfile,
    cfg: &BenchConfig,
    plan: &ChaosPlan,
    shards: usize,
    round: u64,
) -> Result<(u64, HashMap<u64, Reply>, u64), String> {
    expect_ok(
        client,
        &Request::Hold {
            shard: plan.kill_shard,
            ms: plan.hold_ms,
        },
    )?;
    let victim = (0..cfg.streams)
        .find(|&s| crate::daemon::shard_of(s, shards) == plan.kill_shard as usize)
        .unwrap_or(0);
    let deadline_id = req_id(round, plan.burst_factor, victim);
    let mut sends = vec![(deadline_id, victim, 1000)];
    for rep in 0..plan.burst_factor {
        sends.extend((0..cfg.streams).map(|s| (req_id(round, rep, s), s, 0)));
    }
    let mut sent = 0;
    for &(id, stream, deadline_us) in &sends {
        let req = Request::Decide {
            req_id: id,
            stream,
            deadline_us,
            obs: synth_obs(profile, cfg.seed, stream, round),
        };
        if client.send(&req).is_err() {
            break;
        }
        sent += 1;
    }
    let mut got = HashMap::with_capacity(sends.len());
    while got.len() < sent {
        match client.recv() {
            Ok(Response::Decision {
                req_id,
                action,
                tier,
                source,
            }) => {
                got.insert(req_id, (action, tier, source));
            }
            Ok(other) => return Err(format!("unexpected mid-burst response {other:?}")),
            Err(_) => break,
        }
    }
    Ok((sends.len() as u64, got, deadline_id))
}

/// Parameters of the supervisor-style crash-restart drill.
#[derive(Clone, Debug)]
pub struct DrillConfig {
    /// Concurrent streams admitted during the warm phase.
    pub streams: u64,
    /// Lockstep rounds driven before the SIGKILL.
    pub rounds_before: u64,
    /// Lockstep rounds driven after recovery — the checksummed window
    /// compared against the uninterrupted reference daemon.
    pub rounds_after: u64,
    /// Seed for observation synthesis (shared by both daemons).
    pub seed: u64,
    /// Arguments appended verbatim to every `<exe> serve` spawn (scale,
    /// artifact dir, shard count, audit cadence, …). The drill adds its
    /// own `--socket`, `--state-dir`, `--checkpoint-every` and
    /// `--recover`.
    pub serve_args: Vec<String>,
}

impl Default for DrillConfig {
    fn default() -> Self {
        Self {
            streams: 32,
            rounds_before: 6,
            rounds_after: 6,
            seed: 7,
            serve_args: Vec::new(),
        }
    }
}

/// What one crash-restart drill produced. Every field is a pure function
/// of the drill parameters and the injected faults, so
/// [`DrillOutcome::to_json`] is byte-reproducible across same-seed runs.
#[derive(Clone, Debug, PartialEq)]
pub struct DrillOutcome {
    /// Echo of the drill seed.
    pub seed: u64,
    /// Echo of the stream count.
    pub streams: u64,
    /// Echo of the pre-kill round count.
    pub rounds_before: u64,
    /// Echo of the post-recovery round count.
    pub rounds_after: u64,
    /// Description of the disk faults injected between kill and restart
    /// ("none" for the clean drill).
    pub faults: String,
    /// Streams admitted before the kill.
    pub admitted: u64,
    /// Streams the restarted daemon resumed from durable state.
    pub recovered: u64,
    /// Records recovery had to quarantine (checksum failures + torn-tail
    /// losses) — zero on the clean drill, positive under injected faults.
    pub quarantined: u64,
    /// Journal operations replayed over the checkpoint at recovery.
    pub journal_ops: u64,
    /// `recovered * 100 / admitted`, integer percent.
    pub resumed_pct: u64,
    /// FNV-1a over every post-window `(round, stream, action)` of the
    /// uninterrupted reference daemon.
    pub baseline_checksum: u64,
    /// The same fold over the killed-and-recovered daemon's answers.
    pub recovered_checksum: u64,
    /// The two checksums agree — recovery was action-identical.
    pub lockstep: bool,
    /// Both daemons (reference, and the recovered one after its drill
    /// window) drained and exited with status 0.
    pub clean_exit: bool,
}

impl DrillOutcome {
    /// Stable-order JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"seed\":{},\"streams\":{},\"rounds_before\":{},\"rounds_after\":{},",
                "\"faults\":\"{}\",\"admitted\":{},\"recovered\":{},\"quarantined\":{},",
                "\"journal_ops\":{},\"resumed_pct\":{},",
                "\"baseline_checksum\":\"{:#018x}\",\"recovered_checksum\":\"{:#018x}\",",
                "\"lockstep\":{},\"clean_exit\":{}}}"
            ),
            self.seed,
            self.streams,
            self.rounds_before,
            self.rounds_after,
            self.faults,
            self.admitted,
            self.recovered,
            self.quarantined,
            self.journal_ops,
            self.resumed_pct,
            self.baseline_checksum,
            self.recovered_checksum,
            self.lockstep,
            self.clean_exit
        )
    }

    /// The clean-drill gate: ≥99% of streams resumed, bit-identical
    /// post-recovery actions, graceful exits throughout.
    pub fn all_good(&self) -> bool {
        self.resumed_pct >= 99 && self.lockstep && self.clean_exit
    }
}

/// A spawned `serve` child that is SIGKILLed on drop, so a failed drill
/// never leaks daemons.
struct DrillDaemon {
    child: std::process::Child,
}

impl DrillDaemon {
    fn spawn(
        exe: &Path,
        serve_args: &[String],
        socket: &Path,
        state_dir: &Path,
        recover: bool,
    ) -> Result<Self, String> {
        let mut cmd = std::process::Command::new(exe);
        cmd.arg("serve")
            .args(serve_args)
            .arg("--socket")
            .arg(socket)
            .arg("--state-dir")
            .arg(state_dir)
            .arg("--checkpoint-every")
            .arg("1")
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        if recover {
            cmd.arg("--recover");
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("failed to spawn {}: {e}", exe.display()))?;
        Ok(Self { child })
    }

    /// Reaps a daemon that was asked to shut down; true on exit status 0.
    fn wait_clean(mut self) -> Result<bool, String> {
        self.child
            .wait()
            .map(|status| status.success())
            .map_err(|e| format!("wait failed: {e}"))
    }
}

impl Drop for DrillDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Blocks until every shard has written a checkpoint strictly newer than
/// its tick at entry. Called after the last reply of the warm phase, any
/// such checkpoint postdates that reply's batch, so it holds every
/// stream's final cursor — the precondition for a lossless SIGKILL.
fn await_quiescent_checkpoint(state_dir: &Path, shards: usize) -> Result<(), String> {
    let t0: HashMap<usize, u64> = persist::inspect(state_dir)
        .into_iter()
        .map(|c| (c.shard, c.tick))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let infos = persist::inspect(state_dir);
        if infos.len() >= shards
            && infos
                .iter()
                .all(|c| c.tick > t0.get(&c.shard).copied().unwrap_or(0))
        {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err("timed out waiting for a quiescent checkpoint".to_string());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The supervisor-style crash-restart drill behind `lahd serve-drill`.
///
/// Two daemon lineages run the same seeded lockstep load:
///
/// 1. A **reference** daemon serves every round uninterrupted; its
///    post-window actions are checksummed.
/// 2. A **victim** daemon serves the warm rounds, is held until a
///    quiescent checkpoint lands, then is SIGKILLed mid-flight. An
///    optional `corrupt` hook damages the state directory (the CLI wires
///    seeded [`lahd-sim` disk faults](DrillOutcome::faults) through it).
///    A third spawn restarts on the damaged directory with `--recover`
///    and serves the same post-window rounds.
///
/// Daemons are spawned as real child processes of `exe` (the `lahd`
/// binary), so the kill is a genuine `SIGKILL` against a separate address
/// space — no in-process shortcuts. The returned [`DrillOutcome`] is
/// byte-reproducible for fixed parameters and faults.
pub fn run_restart_drill(
    exe: &Path,
    artifacts: &Path,
    work_dir: &Path,
    cfg: &DrillConfig,
    corrupt: Option<&dyn Fn(&Path) -> Result<String, String>>,
) -> Result<DrillOutcome, String> {
    let profile = load_profile(artifacts)?;
    let total = cfg.rounds_before + cfg.rounds_after;
    let pid = std::process::id();
    // Stale state from an earlier drill would poison both recovery and
    // the quiesce poll (old checkpoints carry ticks a fresh daemon never
    // reaches), so each lineage starts from an empty directory.
    let mkdir = |p: &Path| {
        let _ = std::fs::remove_dir_all(p);
        std::fs::create_dir_all(p).map_err(|e| format!("create {} failed: {e}", p.display()))
    };
    // Drives `rounds` lockstep rounds; returns their action checksum.
    let drive = |client: &mut ServeClient, rounds: std::ops::Range<u64>| {
        rounds.into_iter().try_fold(FNV_BASIS, |sum, round| {
            let replies =
                lockstep_round(client, &profile, cfg.seed, cfg.streams, round, cfg.streams)?;
            Ok::<u64, String>(fold_round(sum, round, &complete(round, replies)?))
        })
    };

    // Reference lineage: never interrupted.
    let base_state = work_dir.join("baseline-state");
    let base_sock = work_dir.join(format!("drill-base-{pid}.sock"));
    mkdir(&base_state)?;
    let base = DrillDaemon::spawn(exe, &cfg.serve_args, &base_sock, &base_state, false)?;
    let mut client = connect(&base_sock)?;
    drive(&mut client, 0..cfg.rounds_before)?;
    let baseline_checksum = drive(&mut client, cfg.rounds_before..total)?;
    expect_ok(&mut client, &Request::Shutdown)?;
    let base_clean = base.wait_clean()?;

    // Victim lineage: warm, quiesce, SIGKILL.
    let crash_state = work_dir.join("crash-state");
    let crash_sock = work_dir.join(format!("drill-crash-{pid}.sock"));
    mkdir(&crash_state)?;
    let victim = DrillDaemon::spawn(exe, &cfg.serve_args, &crash_sock, &crash_state, false)?;
    let mut client = connect(&crash_sock)?;
    let shards = stats(&mut client)?.shards as usize;
    drive(&mut client, 0..cfg.rounds_before)?;
    drop(client);
    await_quiescent_checkpoint(&crash_state, shards)?;
    drop(victim); // SIGKILL: no drain, no flush — the crash under test

    let faults = match corrupt {
        Some(inject) => inject(&crash_state)?,
        None => "none".to_string(),
    };

    // Recovery lineage: restart on the (possibly damaged) state directory.
    let revived = DrillDaemon::spawn(exe, &cfg.serve_args, &crash_sock, &crash_state, true)?;
    let mut client = connect(&crash_sock)?;
    let recovered_checksum = drive(&mut client, cfg.rounds_before..total)?;
    let snap = stats(&mut client)?;
    expect_ok(&mut client, &Request::Shutdown)?;
    let revived_clean = revived.wait_clean()?;

    let admitted = cfg.streams;
    Ok(DrillOutcome {
        seed: cfg.seed,
        streams: cfg.streams,
        rounds_before: cfg.rounds_before,
        rounds_after: cfg.rounds_after,
        faults,
        admitted,
        recovered: snap.recovered_streams,
        quarantined: snap.quarantined_records,
        journal_ops: snap.journal_ops,
        resumed_pct: snap.recovered_streams * 100 / admitted.max(1),
        baseline_checksum,
        recovered_checksum,
        lockstep: recovered_checksum == baseline_checksum,
        clean_exit: base_clean && revived_clean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_obs_is_deterministic_and_in_band() {
        let mut sp = lahd_guard::StreamingProfile::new(3);
        for i in 0..100 {
            sp.push(&[i as f32 * 0.01, 1.0, -(i as f32) * 0.02]);
        }
        let profile = sp.profile();
        let a = synth_obs(&profile, 11, 2, 5);
        let b = synth_obs(&profile, 11, 2, 5);
        assert_eq!(a, b);
        let c = synth_obs(&profile, 11, 2, 6);
        assert_ne!(a, c);
        for (d, v) in profile.dims.iter().zip(&a) {
            assert!(
                (*v as f64) >= d.p25 - 1e-6 && (*v as f64) <= d.p75 + 1e-6,
                "obs outside interquartile band"
            );
        }
    }

    #[test]
    fn chaos_outcome_json_is_stable() {
        let outcome = ChaosOutcome {
            seed: 7,
            streams: 8,
            rounds: 40,
            plan: "none".to_string(),
            requests: 320,
            responses: 320,
            prechaos_checksum: 0xdead_beef,
            daemon_alive: true,
            shard_recovered: true,
            reload_rejected: true,
            generation_unchanged: true,
            shed_observed: true,
            deadline_fallback: true,
        };
        assert_eq!(outcome.to_json(), outcome.clone().to_json());
        assert!(outcome.all_good());
        assert!(outcome
            .to_json()
            .contains("\"prechaos_checksum\":\"0x00000000deadbeef\""));
    }

    #[test]
    fn chaos_gate_needs_the_shed_and_the_deadline_fallback() {
        let survived = ChaosOutcome {
            seed: 7,
            streams: 8,
            rounds: 24,
            plan: "kill".to_string(),
            requests: 280,
            responses: 280,
            prechaos_checksum: 1,
            daemon_alive: true,
            shard_recovered: true,
            reload_rejected: true,
            generation_unchanged: true,
            shed_observed: true,
            deadline_fallback: true,
        };
        assert!(survived.all_good());
        let no_shed = ChaosOutcome {
            shed_observed: false,
            ..survived.clone()
        };
        assert!(!no_shed.all_good(), "a burst that shed nothing must fail");
        let no_deadline = ChaosOutcome {
            deadline_fallback: false,
            ..survived
        };
        assert!(
            !no_deadline.all_good(),
            "an expired request not answered by the fallback must fail"
        );
    }

    #[test]
    fn chaos_gate_counts_lost_replies_and_a_dead_daemon() {
        use crate::protocol::{read_frame, write_frame};
        use std::os::unix::net::UnixListener;

        let dir = std::env::temp_dir().join(format!("lahd_bench_lost_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut sp = lahd_guard::StreamingProfile::new(2);
        for i in 0..16 {
            sp.push(&[i as f32, 1.0]);
        }
        let mut file = std::fs::File::create(dir.join("baseline.profile")).unwrap();
        lahd_guard::write_profile(&sp.profile(), &mut file).unwrap();
        let socket = dir.join("fake.sock");
        let listener = UnixListener::bind(&socket).unwrap();
        // A fake daemon: answers the opening stats call, then answers three
        // of round 0's four decisions and closes the connection — a reply
        // lost the way a dropped connection loses it.
        let fake = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
            let mut decided = 0;
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                let resp = match Request::decode(&frame).unwrap() {
                    Request::Stats => Response::StatsJson("{\"generation\":1,\"shards\":1}".into()),
                    Request::Decide { req_id, .. } => {
                        decided += 1;
                        if decided == 4 {
                            return;
                        }
                        Response::Decision {
                            req_id,
                            action: 0,
                            tier: 0,
                            source: Source::Guarded as u8,
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                };
                write_frame(&mut conn, &resp.encode()).unwrap();
            }
        });
        let cfg = BenchConfig {
            streams: 4,
            rounds: 3,
            seed: 1,
            chaos: None,
        };
        let outcome = run_bench(&socket, &dir, &cfg).unwrap();
        fake.join().unwrap();
        assert_eq!((outcome.requests, outcome.responses), (4, 3));
        assert!(!outcome.daemon_alive, "the final stats call failed");
        assert!(!outcome.all_good());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drill_outcome_json_is_stable_and_gates_correctly() {
        let outcome = DrillOutcome {
            seed: 7,
            streams: 32,
            rounds_before: 6,
            rounds_after: 6,
            faults: "none".to_string(),
            admitted: 32,
            recovered: 32,
            quarantined: 0,
            journal_ops: 0,
            resumed_pct: 100,
            baseline_checksum: 0xdead_beef,
            recovered_checksum: 0xdead_beef,
            lockstep: true,
            clean_exit: true,
        };
        assert_eq!(outcome.to_json(), outcome.clone().to_json());
        assert!(outcome.all_good());
        let json = outcome.to_json();
        assert!(json.contains("\"baseline_checksum\":\"0x00000000deadbeef\""));
        assert!(json.contains("\"resumed_pct\":100"));
        let torn = DrillOutcome {
            recovered: 20,
            resumed_pct: 62,
            quarantined: 12,
            lockstep: false,
            recovered_checksum: 0xbad,
            faults: "torn-write keep=100".to_string(),
            ..outcome
        };
        assert!(!torn.all_good(), "lossy recovery must fail the clean gate");
    }

    #[test]
    fn standard_plan_orders_its_events() {
        let plan = ChaosPlan::standard(40, PathBuf::from("/tmp/x"));
        assert!(plan.kill_round < plan.burst_round);
        assert!(plan.burst_round < plan.reload_round);
        assert!(plan.reload_round < 40);
        assert_eq!(plan.first_round(), plan.kill_round);
    }
}
