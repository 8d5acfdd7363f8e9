//! Output checks on every decision reply.
//!
//! A reply from the FSM tier must equal what an in-process replay of the
//! stream's accepted observations through the same compiled machine
//! answers. The replay keeps the set of cursor states the daemon may
//! hold; it is a single state unless evictions are possible, where an
//! evicted stream legitimately restarts from the initial state on its next
//! request. A stream whose ladder demoted it off the FSM tier is no longer
//! compared (the ladder's cursor may stop while demoted). Any other reply
//! must carry a valid action index.

use std::collections::HashMap;

use lahd::fsm::{CompiledFsm, CompiledScratch};
use lahd::serve::{Response, Source, TIER_FSM};

/// Per-stream replay state.
#[derive(Default)]
struct Replay {
    /// Cursor states consistent with every reply so far.
    states: Vec<u16>,
    /// The stream left the FSM tier once; its replies are not compared.
    demoted: bool,
}

/// Tallies of the reply check.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Replies received.
    pub replies: u64,
    /// FSM-tier replies compared against the replay.
    pub checked: u64,
    /// Replies that failed a check (wrong action, bad index, error reply).
    pub mismatches: u64,
    /// Replies shed by admission control or answered past a deadline.
    pub degraded: u64,
    /// Replies per serving tier.
    pub tiers: [u64; 4],
}

/// Checks replies against an in-process replay of one compiled machine.
pub struct Checker<'a> {
    fsm: &'a CompiledFsm,
    scratch: CompiledScratch,
    num_actions: usize,
    allow_reset: bool,
    streams: HashMap<u64, Replay>,
    /// Running tallies.
    pub tally: Tally,
}

impl<'a> Checker<'a> {
    /// A checker over `fsm`; `allow_reset` admits eviction restarts.
    pub fn new(fsm: &'a CompiledFsm, num_actions: usize, allow_reset: bool) -> Self {
        Self {
            fsm,
            scratch: fsm.make_scratch(),
            num_actions,
            allow_reset,
            streams: HashMap::new(),
            tally: Tally::default(),
        }
    }

    /// Checks one reply to a decision on `stream` with observation `obs`;
    /// returns whether it passed.
    pub fn reply(&mut self, stream: u64, obs: &[f32], resp: &Response) -> bool {
        self.tally.replies += 1;
        let ok = self.judge(stream, obs, resp);
        if !ok {
            self.tally.mismatches += 1;
        }
        ok
    }

    fn judge(&mut self, stream: u64, obs: &[f32], resp: &Response) -> bool {
        let Response::Decision {
            action,
            tier,
            source,
            ..
        } = *resp
        else {
            return false;
        };
        if action as usize >= self.num_actions || tier as usize >= self.tally.tiers.len() {
            return false;
        }
        self.tally.tiers[tier as usize] += 1;
        if source != Source::Guarded as u8 {
            // Shed and deadline answers come from the fallback policy and
            // leave the stream's cursor where it was.
            self.tally.degraded += 1;
            return true;
        }
        let initial = self.fsm.initial_state();
        let replay = self.streams.entry(stream).or_insert_with(|| Replay {
            states: vec![initial],
            demoted: false,
        });
        if tier as usize != TIER_FSM {
            replay.demoted = true;
            return true;
        }
        if replay.demoted {
            return true;
        }
        let mut next: Vec<u16> = Vec::with_capacity(replay.states.len() + 1);
        let reset = self.allow_reset && !replay.states.contains(&initial);
        for &state in replay.states.iter().chain(reset.then_some(&initial)) {
            let out = self.fsm.step(obs, state, &mut self.scratch);
            if out.action == action && !next.contains(&out.next_state) {
                next.push(out.next_state);
            }
        }
        self.tally.checked += 1;
        if next.is_empty() {
            return false;
        }
        replay.states = next;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahd::core::{Pipeline, PipelineConfig};
    use lahd::fsm::{compile_fsm, CompiledCursor};

    fn machine() -> (CompiledFsm, usize) {
        let cfg = PipelineConfig::tiny();
        let art = Pipeline::new(cfg.clone()).run();
        let fsm = compile_fsm(&art.fsm, &art.obs_qbn, cfg.metric, cfg.nn_matching).unwrap();
        (fsm, art.agent.num_actions())
    }

    fn decision(action: u16, tier: usize, source: Source) -> Response {
        Response::Decision {
            req_id: 0,
            action,
            tier: tier as u8,
            source: source as u8,
        }
    }

    #[test]
    fn replayed_actions_pass_and_wrong_actions_fail() {
        let (fsm, actions) = machine();
        let obs: Vec<Vec<f32>> = (0..40)
            .map(|i| {
                (0..fsm.input_dim())
                    .map(|d| ((i * 7 + d) % 5) as f32 * 0.3)
                    .collect()
            })
            .collect();
        let mut checker = Checker::new(&fsm, actions, false);
        let mut cursor = CompiledCursor::new(&fsm);
        let mut scratch = fsm.make_scratch();
        for o in &obs {
            let a = cursor.apply(fsm.step(o, cursor.state(), &mut scratch)) as u16;
            assert!(checker.reply(1, o, &decision(a, TIER_FSM, Source::Guarded)));
        }
        let o = &obs[0];
        let right = fsm.step(o, cursor.state(), &mut scratch).action;
        let wrong = (right + 1) % actions as u16;
        assert!(!checker.reply(1, o, &decision(wrong, TIER_FSM, Source::Guarded)));
        assert!(!checker.reply(2, o, &decision(actions as u16, 3, Source::Guarded)));
        assert!(!checker.reply(2, o, &Response::Err("boom".into())));
        assert_eq!(checker.tally.mismatches, 3);
        assert_eq!(checker.tally.checked, 41);
    }

    #[test]
    fn degraded_and_demoted_replies_are_not_compared() {
        let (fsm, actions) = machine();
        let o = vec![0.1; fsm.input_dim()];
        let mut checker = Checker::new(&fsm, actions, false);
        assert!(checker.reply(3, &o, &decision(0, 3, Source::Shed)));
        assert!(checker.reply(3, &o, &decision(0, 1, Source::Guarded)));
        // Demoted once: FSM-tier replies of this stream are counted, not compared.
        assert!(checker.reply(3, &o, &decision(0, TIER_FSM, Source::Guarded)));
        assert_eq!(checker.tally.degraded, 1);
        assert_eq!(checker.tally.checked, 0);
        assert_eq!(checker.tally.tiers, [1, 1, 0, 1]);
    }
}
