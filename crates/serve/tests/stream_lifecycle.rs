//! Stream-lifecycle acceptance pins for the tiered serving path.
//!
//! The hibernation guarantee is *exact equivalence*: a stream that gets
//! compacted into the arena and rehydrated later must emit byte-identical
//! actions and `FsmRunStats` versus one that stayed resident the whole
//! time. Pinned three ways: a proptest over random observation sequences
//! and split points against the real compiled machine; a daemon-level
//! lockstep comparison between a default daemon and one forced to
//! hibernate every idle stream every tick; and a full chaos plan on the
//! hibernating daemon whose same-seed summary stays byte-identical.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use lahd_core::{save_artifacts, Pipeline, PipelineConfig};
use lahd_fsm::CompiledCursor;
use lahd_serve::{
    load_profile, prepare_corrupt_candidate, run_bench, run_streams_sweep, serve_dir, BenchConfig,
    ChaosPlan, CompactStream, HibernationArena, Request, Response, ServeBundle, ServeClient,
    ServeConfig, ServeHandle,
};
use proptest::collection;
use proptest::prelude::*;

/// Train the tiny pipeline once per process; every test serves from it.
fn artifacts() -> &'static (PipelineConfig, PathBuf) {
    static ARTIFACTS: OnceLock<(PipelineConfig, PathBuf)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let cfg = PipelineConfig::tiny();
        let produced = Pipeline::new(cfg.clone()).run();
        let dir = std::env::temp_dir().join("lahd_serve_lifecycle_artifacts");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        save_artifacts(&produced, &dir).unwrap();
        (cfg, dir)
    })
}

fn bundle() -> &'static ServeBundle {
    static BUNDLE: OnceLock<ServeBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let (cfg, dir) = artifacts();
        ServeBundle::load(cfg, dir).expect("tiny artifacts must load")
    })
}

/// A daemon config that hibernates any stream idle for one tick and
/// sweeps on every tick — every inter-round gap parks streams, so the
/// lockstep load exercises hibernate/wake on nearly every round.
fn hibernating_cfg(allow_chaos: bool) -> ServeConfig {
    ServeConfig {
        shards: 2,
        queue_capacity: 16,
        hibernate_after: 1,
        sweep_every: 1,
        allow_chaos,
        ..ServeConfig::default()
    }
}

fn shutdown(handle: ServeHandle) {
    let mut client =
        ServeClient::connect_retry(handle.socket_path(), Duration::from_secs(5)).unwrap();
    assert_eq!(client.call(&Request::Shutdown).unwrap(), Response::Ok);
    handle.wait();
}

proptest! {
    /// Arena round-trip mid-run is invisible: same actions, same stats.
    #[test]
    fn hibernated_cursor_resumes_bit_identically(
        raw in collection::vec(collection::vec(-2.0f32..2.0, 1..8), 2..40),
        split_frac in 0.0f64..1.0,
    ) {
        let bundle = bundle();
        let compiled = bundle.compiled.as_deref().expect("tiny bundle compiles its FSM");
        let width = bundle.baseline.dims.len();
        // Map the raw vectors onto the bundle's observation width.
        let obs: Vec<Vec<f32>> = raw
            .iter()
            .map(|r| (0..width).map(|i| r[i % r.len()]).collect())
            .collect();
        let split = ((obs.len() as f64) * split_frac) as usize;

        let mut scratch = compiled.make_scratch();
        let mut resident = CompiledCursor::new(compiled);
        let mut resident_actions = Vec::new();
        for o in &obs {
            let outcome = compiled.step(o, resident.state(), &mut scratch);
            resident_actions.push(resident.apply(outcome));
        }

        let mut arena = HibernationArena::new(16);
        let mut roaming = CompiledCursor::new(compiled);
        let mut roaming_actions = Vec::new();
        for (i, o) in obs.iter().enumerate() {
            if i == split {
                // Park through the real serialize/deserialize path.
                arena.hibernate(7, &CompactStream::new(roaming.clone(), 4096));
                roaming = arena.wake(7).expect("just parked").cursor;
            }
            let outcome = compiled.step(o, roaming.state(), &mut scratch);
            roaming_actions.push(roaming.apply(outcome));
        }

        prop_assert_eq!(roaming_actions, resident_actions);
        prop_assert_eq!(roaming.save(), resident.save());
    }
}

#[test]
fn forced_hibernation_is_action_identical_to_default_daemon() {
    let (_, dir) = artifacts();
    let bench = BenchConfig {
        streams: 6,
        rounds: 16,
        seed: 33,
        chaos: None,
    };
    let mut jsons = Vec::new();
    for (name, cfg) in [
        (
            "default",
            ServeConfig {
                shards: 2,
                queue_capacity: 16,
                ..ServeConfig::default()
            },
        ),
        ("hibernating", hibernating_cfg(false)),
    ] {
        let socket = std::env::temp_dir().join(format!("lahd_lifecycle_{name}.sock"));
        let (pcfg, _) = artifacts();
        let handle = serve_dir(pcfg, dir, cfg, &socket).unwrap();
        let chaos = run_bench(&socket, dir, &bench).unwrap();
        assert_eq!(
            chaos.responses, chaos.requests,
            "{name} answered everything"
        );
        jsons.push(chaos.to_json());
        shutdown(handle);
    }
    // The summary folds an FNV checksum over every served action, so this
    // equality is the hibernate/wake action-equivalence pin.
    assert_eq!(
        jsons[0], jsons[1],
        "hibernating daemon must serve byte-identical decisions"
    );
}

#[test]
fn chaos_plan_on_hibernating_daemon_is_survived_and_reproducible() {
    let (pcfg, dir) = artifacts();
    let corrupt = std::env::temp_dir().join("lahd_lifecycle_corrupt");
    prepare_corrupt_candidate(dir, &corrupt).unwrap();
    let rounds = 24;
    let bench = BenchConfig {
        streams: 8,
        rounds,
        seed: 7,
        chaos: Some(ChaosPlan::standard(rounds, corrupt)),
    };
    let mut jsons = Vec::new();
    for run in 0..2 {
        let socket = std::env::temp_dir().join(format!("lahd_lifecycle_chaos_{run}.sock"));
        let handle = serve_dir(pcfg, dir, hibernating_cfg(true), &socket).unwrap();
        let chaos = run_bench(&socket, dir, &bench).unwrap();
        assert!(chaos.all_good(), "plan survived with hibernation forced");
        jsons.push(chaos.to_json());
        shutdown(handle);
    }
    assert_eq!(
        jsons[0], jsons[1],
        "same-seed chaos JSON stays byte-identical"
    );
}

/// Graceful-restart lockstep: a durable daemon drained mid-load and
/// restarted with `recover` must serve the remaining rounds byte-
/// identically to a daemon that never stopped. This is the library-level
/// half of the recovery pin; the SIGKILL half runs through the real
/// binary in the CLI's `serve-drill` end-to-end test.
#[test]
fn durable_restart_resumes_streams_bit_identically() {
    let (pcfg, dir) = artifacts();
    let profile = load_profile(dir).unwrap();
    let streams = 12u64;
    let (warm_rounds, probe_rounds) = (5u64, 5u64);

    // Deterministic in-band observation for `(stream, round)`.
    let obs = |stream: u64, round: u64| -> Vec<f32> {
        profile
            .dims
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let (lo, hi) = (d.p25 as f32, d.p75 as f32);
                let frac = ((stream * 31 + round * 17 + i as u64 * 7) % 97) as f32 / 96.0;
                if hi > lo {
                    lo + (hi - lo) * frac
                } else {
                    lo
                }
            })
            .collect()
    };
    // One lockstep window; returns every action in (round, stream) order.
    let drive = |client: &mut ServeClient, from: u64, to: u64| -> Vec<u16> {
        let mut actions = Vec::new();
        for round in from..to {
            for stream in 0..streams {
                client
                    .send(&Request::Decide {
                        req_id: (round << 24) | stream,
                        stream,
                        deadline_us: 0,
                        obs: obs(stream, round),
                    })
                    .unwrap();
            }
            let mut got = std::collections::HashMap::new();
            while got.len() < streams as usize {
                match client.recv().unwrap() {
                    Response::Decision { req_id, action, .. } => {
                        got.insert(req_id, action);
                    }
                    other => panic!("unexpected response {other:?}"),
                }
            }
            for stream in 0..streams {
                actions.push(got[&((round << 24) | stream)]);
            }
        }
        actions
    };

    // Reference: one daemon, no persistence, never interrupted.
    let expected = {
        let socket = std::env::temp_dir().join("lahd_lifecycle_durable_ref.sock");
        let cfg = ServeConfig {
            shards: 2,
            audit_every: 0,
            ..ServeConfig::default()
        };
        let handle = serve_dir(pcfg, dir, cfg, &socket).unwrap();
        let mut client = ServeClient::connect_retry(&socket, Duration::from_secs(5)).unwrap();
        drive(&mut client, 0, warm_rounds);
        let expected = drive(&mut client, warm_rounds, warm_rounds + probe_rounds);
        drop(client);
        shutdown(handle);
        expected
    };

    // Durable daemon in drain-only mode (checkpoint_every 0): the only
    // checkpoint is the one graceful shutdown writes.
    let state = std::env::temp_dir().join("lahd_lifecycle_durable_state");
    let _ = std::fs::remove_dir_all(&state);
    std::fs::create_dir_all(&state).unwrap();
    let durable = ServeConfig {
        shards: 2,
        audit_every: 0,
        state_dir: Some(state.clone()),
        checkpoint_every: 0,
        ..ServeConfig::default()
    };
    {
        let socket = std::env::temp_dir().join("lahd_lifecycle_durable_warm.sock");
        let handle = serve_dir(pcfg, dir, durable.clone(), &socket).unwrap();
        let mut client = ServeClient::connect_retry(&socket, Duration::from_secs(5)).unwrap();
        drive(&mut client, 0, warm_rounds);
        drop(client);
        shutdown(handle);
    }
    // Restart over the drained state and serve the probe window.
    let socket = std::env::temp_dir().join("lahd_lifecycle_durable_recover.sock");
    let recovering = ServeConfig {
        recover: true,
        ..durable
    };
    let handle = serve_dir(pcfg, dir, recovering, &socket).unwrap();
    let mut client = ServeClient::connect_retry(&socket, Duration::from_secs(5)).unwrap();
    let resumed = drive(&mut client, warm_rounds, warm_rounds + probe_rounds);
    let snap = client.stats().unwrap();
    assert_eq!(
        snap.recovered_streams, streams,
        "every warm stream must come back from durable state"
    );
    assert_eq!(snap.quarantined_records, 0, "clean shutdown, clean scan");
    drop(client);
    shutdown(handle);
    assert_eq!(
        resumed, expected,
        "recovered streams must serve byte-identical actions"
    );
}

#[test]
fn streams_sweep_admits_everyone_and_reports_memory() {
    let (pcfg, dir) = artifacts();
    let base = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let sweep = run_streams_sweep(pcfg, dir, &base, &[48, 96], 11).unwrap();
    assert_eq!(sweep.points.len(), 2);
    for p in &sweep.points {
        assert_eq!(
            p.admitted, p.streams,
            "closed-loop warm admits every stream"
        );
        assert_eq!(p.shed, 0, "windowed load never overruns the queues");
        assert_eq!(p.hibernated, 0, "the sweep disables the cold tier");
        assert_eq!(p.compact + p.resident, p.admitted);
        // Tests run without the counting allocator installed, so the live
        // measurement reads 0.
        assert_eq!(p.live_bytes_per_stream, 0);
    }
    let json = sweep.to_json();
    assert!(json.contains("\"streams\":48") && json.contains("\"streams\":96"));
}
