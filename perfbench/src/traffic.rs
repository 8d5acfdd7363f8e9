//! Seeded traffic: observations recorded from scenario rollouts, and the
//! request schedules the load generator replays.
//!
//! Observations come from real Dorado rollouts (fresh real-trace splices
//! seeded by the benchmark seed, driven by the served FSM), so the guard
//! sees in-distribution sequences. Every byte of every request is a pure
//! function of the seed and the artifacts.

use lahd::core::Scenario;
use lahd::fsm::{CompiledCursor, CompiledFsm};
use lahd::serve::Request;
use lahd::sim::SimConfig;
use lahd::workload::real_trace_set;

/// SplitMix64: a tiny, fully specified generator, so the traffic does not
/// depend on any library's stream layout.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a stream label.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Recorded observation sequences, one per rollout, flattened row-major.
pub struct Episodes {
    /// Observation width.
    pub dim: usize,
    /// Each episode's observations, `len * dim` floats.
    pub obs: Vec<Vec<f32>>,
}

impl Episodes {
    /// Observation `step` of episode `ep`, wrapping around its end.
    pub fn row(&self, ep: usize, step: usize) -> &[f32] {
        let e = &self.obs[ep % self.obs.len()];
        let rows = e.len() / self.dim;
        let at = (step % rows) * self.dim;
        &e[at..at + self.dim]
    }

    /// Observations in episode `ep`.
    pub fn len_of(&self, ep: usize) -> usize {
        self.obs[ep % self.obs.len()].len() / self.dim
    }

    /// Total recorded observations.
    pub fn rows(&self) -> usize {
        self.obs.iter().map(|e| e.len() / self.dim).sum()
    }
}

/// Records `count` rollouts of `scenario` on fresh real traces seeded from
/// `seed`, each driven by the compiled FSM `fsm` from its start state.
pub fn record_episodes(
    scenario: &dyn Scenario,
    sim: &SimConfig,
    fsm: &CompiledFsm,
    trace_len: usize,
    count: usize,
    seed: u64,
) -> Episodes {
    let traces = real_trace_set(count, trace_len, seed.wrapping_mul(31).wrapping_add(5));
    let mut scratch = fsm.make_scratch();
    let obs = traces
        .into_iter()
        .enumerate()
        .map(|(i, trace)| {
            let mut rollout = scenario.make_rollout(sim, trace, seed.wrapping_add(i as u64));
            let mut cursor = CompiledCursor::new(fsm);
            let mut flat = Vec::new();
            while !rollout.is_done() {
                let o = rollout.observe();
                let action = cursor.apply(fsm.step(&o, cursor.state(), &mut scratch));
                flat.extend_from_slice(&o);
                rollout.step(action);
            }
            flat
        })
        .collect();
    Episodes {
        dim: scenario.obs_dim(),
        obs,
    }
}

/// One scheduled decision of an open-loop schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scheduled {
    /// Stream id.
    pub stream: u64,
    /// Due time, nanoseconds from the start of the schedule.
    pub due_ns: u64,
}

/// An open-loop schedule at a fixed `rate` per second over `streams`
/// streams with power-law (Zipf, exponent `skew`) popularity; stream ids
/// are scrambled so popularity does not follow the shard hash.
pub fn open_loop_schedule(
    seed: u64,
    streams: u64,
    skew: f64,
    rate: f64,
    count: usize,
) -> Vec<Scheduled> {
    let zipf = Zipf::new(streams, skew);
    let mut rng = Rng::new(seed, 0x5C4E);
    let gap = 1e9 / rate;
    (0..count)
        .map(|i| Scheduled {
            stream: stream_id(zipf.sample(&mut rng)),
            due_ns: (i as f64 * gap) as u64,
        })
        .collect()
}

/// Public stream id of popularity rank `rank` (a bijective scramble).
pub fn stream_id(rank: u64) -> u64 {
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x00C0_FFEE
}

/// Inverse-CDF Zipf sampler over ranks `0..n`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, skew: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(skew);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }
}

/// The wire request for decision `req_id` on `stream` with observation
/// `obs` (no deadline: every decision is served by the stream's ladder).
pub fn decide(req_id: u64, stream: u64, obs: &[f32]) -> Request {
    Request::Decide {
        req_id,
        stream,
        deadline_us: 0,
        obs: obs.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahd::core::PipelineConfig;
    use lahd::fsm::compile_fsm;

    #[test]
    fn rng_is_seeded_and_uniform_enough() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(7, 1);
        let mean = (0..10_000).map(|_| r.unit()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
    }

    #[test]
    fn schedule_is_deterministic_skewed_and_paced() {
        let a = open_loop_schedule(11, 10_000, 1.1, 20_000.0, 50_000);
        let b = open_loop_schedule(11, 10_000, 1.1, 20_000.0, 50_000);
        assert_eq!(a, b);
        assert_ne!(a, open_loop_schedule(12, 10_000, 1.1, 20_000.0, 50_000));
        assert_eq!(a[1].due_ns, 50_000);
        let top = a.iter().filter(|s| s.stream == stream_id(0)).count();
        let tail = a.iter().filter(|s| s.stream == stream_id(5_000)).count();
        assert!(top > 100 * tail.max(1), "top {top} tail {tail}");
    }

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        let cfg = PipelineConfig::tiny();
        let artifacts = lahd::core::Pipeline::new(cfg.clone()).run();
        let fsm = compile_fsm(
            &artifacts.fsm,
            &artifacts.obs_qbn,
            cfg.metric,
            cfg.nn_matching,
        )
        .expect("tiny machine lowers");
        let scenario = cfg.scenario.get();
        let bytes = |seed: u64| -> Vec<u8> {
            let eps = record_episodes(scenario, &cfg.sim, &fsm, cfg.trace_len, 3, seed);
            assert!(eps.rows() > 0);
            let sched = open_loop_schedule(seed, 100, 1.1, 1000.0, 200);
            let mut out = Vec::new();
            for (i, s) in sched.iter().enumerate() {
                out.extend(decide(i as u64, s.stream, eps.row(s.stream as usize, i)).encode());
            }
            out
        };
        assert_eq!(bytes(3), bytes(3));
        assert_ne!(bytes(3), bytes(4));
    }
}
