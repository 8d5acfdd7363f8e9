//! End-to-end acceptance tests for the serving daemon.
//!
//! The headline test is the ISSUE's chaos acceptance criterion: under the
//! seeded chaos plan (shard kill + 10× burst + corrupt hot reload) the
//! daemon never exits, sheds to fallback tiers with labelled responses,
//! recovers the killed shard, keeps serving the old artifact after the
//! corrupt reload — and a same-seed re-run against a fresh daemon
//! produces a byte-identical chaos JSON summary.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

use lahd_core::{save_artifacts, Pipeline, PipelineConfig};
use lahd_serve::{
    prepare_corrupt_candidate, run_bench, serve_dir, BenchConfig, ChaosPlan, MetricsSnapshot,
    Request, Response, ServeClient, ServeConfig, ServeHandle,
};

/// Train the tiny pipeline once per process and stamp its artifacts to
/// disk; every test serves from this directory.
fn artifacts() -> &'static (PipelineConfig, PathBuf) {
    static ARTIFACTS: OnceLock<(PipelineConfig, PathBuf)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let cfg = PipelineConfig::tiny();
        let produced = Pipeline::new(cfg.clone()).run();
        let dir = std::env::temp_dir().join("lahd_serve_e2e_artifacts");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        save_artifacts(&produced, &dir).unwrap();
        (cfg, dir)
    })
}

fn chaos_serve_cfg() -> ServeConfig {
    ServeConfig {
        shards: 2,
        // Small enough that a held shard's queue genuinely fills during
        // the 10× burst, making shedding deterministic.
        queue_capacity: 16,
        allow_chaos: true,
        ..ServeConfig::default()
    }
}

fn start_daemon(socket: &Path) -> ServeHandle {
    let (cfg, dir) = artifacts();
    serve_dir(cfg, dir, chaos_serve_cfg(), socket).expect("daemon must start")
}

/// Stops the daemon through the protocol `Shutdown` request, the path an
/// external client takes.
fn shutdown(handle: ServeHandle) {
    let mut client =
        ServeClient::connect_retry(handle.socket_path(), Duration::from_secs(5)).unwrap();
    assert_eq!(client.call(&Request::Shutdown).unwrap(), Response::Ok);
    handle.wait();
}

fn daemon_stats(socket: &Path) -> MetricsSnapshot {
    let mut client = ServeClient::connect_retry(socket, Duration::from_secs(5)).unwrap();
    client.stats().unwrap()
}

fn chaos_bench_cfg(corrupt_dir: PathBuf) -> BenchConfig {
    let rounds = 24;
    BenchConfig {
        streams: 8,
        rounds,
        seed: 7,
        chaos: Some(ChaosPlan::standard(rounds, corrupt_dir)),
    }
}

#[test]
fn chaos_plan_is_survived_and_reproducible() {
    let (_, dir) = artifacts();
    let corrupt = std::env::temp_dir().join("lahd_serve_e2e_corrupt");
    prepare_corrupt_candidate(dir, &corrupt).unwrap();
    let bench = chaos_bench_cfg(corrupt);

    let mut jsons = Vec::new();
    for run in 0..2 {
        let socket = std::env::temp_dir().join(format!("lahd_serve_e2e_chaos_{run}.sock"));
        let handle = start_daemon(&socket);
        let chaos = run_bench(&socket, dir, &bench).expect("bench must complete");

        assert_eq!(
            chaos.requests, chaos.responses,
            "shedding degrades, it never drops"
        );
        assert!(chaos.daemon_alive, "daemon answered stats after the plan");
        assert!(chaos.shard_recovered, "killed shard restarted and served");
        assert!(chaos.reload_rejected, "corrupt bundle rejected");
        assert!(
            chaos.generation_unchanged,
            "old artifact still serving after corrupt reload"
        );
        assert!(chaos.shed_observed, "burst produced labelled shed answers");
        assert!(
            chaos.deadline_fallback,
            "expired work answered from fallback"
        );
        assert!(chaos.all_good());

        let stats = daemon_stats(&socket);
        assert!(stats.panics >= 1, "the injected crash was caught");
        assert!(stats.restarts >= 1, "the worker restarted");
        assert!(stats.reloads_rejected >= 1);
        assert_eq!(stats.reloads_ok, 0);
        assert!(stats.shed >= 1);
        assert!(stats.deadline_misses >= 1);

        jsons.push(chaos.to_json());
        shutdown(handle);
    }
    assert_eq!(
        jsons[0], jsons[1],
        "same-seed chaos runs must produce identical JSON summaries"
    );
}

#[test]
fn healthy_lockstep_runs_are_deterministic_and_fully_guarded() {
    let (_, dir) = artifacts();
    let bench = BenchConfig {
        streams: 6,
        rounds: 16,
        seed: 21,
        chaos: None,
    };
    let mut jsons = Vec::new();
    for run in 0..2 {
        let socket = std::env::temp_dir().join(format!("lahd_serve_e2e_clean_{run}.sock"));
        let handle = start_daemon(&socket);
        let chaos = run_bench(&socket, dir, &bench).unwrap();
        assert_eq!(chaos.requests, 6 * 16);
        assert_eq!(chaos.responses, chaos.requests);
        let stats = daemon_stats(&socket);
        assert_eq!(stats.shed, 0, "no shedding under lockstep load");
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.served, chaos.requests);
        jsons.push(chaos.to_json());
        shutdown(handle);
    }
    assert_eq!(jsons[0], jsons[1]);
}

#[test]
fn sound_hot_reload_swaps_the_generation_and_keeps_serving() {
    let (_, dir) = artifacts();
    let socket = std::env::temp_dir().join("lahd_serve_e2e_reload.sock");
    let handle = start_daemon(&socket);
    let mut client = ServeClient::connect_retry(&socket, Duration::from_secs(5)).unwrap();

    // A valid candidate (the serving directory itself) must be accepted.
    match client
        .call(&Request::Reload {
            dir: dir.to_string_lossy().into_owned(),
        })
        .unwrap()
    {
        Response::ReloadOk { generation } => assert_eq!(generation, 2),
        other => panic!("sound reload refused: {other:?}"),
    }

    // And decisions keep flowing on the new generation.
    let profile = lahd_serve::load_profile(dir).unwrap();
    let obs: Vec<f32> = profile.dims.iter().map(|d| d.p50 as f32).collect();
    let resp = client
        .call(&Request::Decide {
            req_id: 1,
            stream: 0,
            deadline_us: 0,
            obs,
        })
        .unwrap();
    assert!(
        matches!(resp, Response::Decision { req_id: 1, .. }),
        "got {resp:?}"
    );

    let stats = daemon_stats(&socket);
    assert_eq!(stats.generation, 2);
    assert_eq!(stats.reloads_ok, 1);
    shutdown(handle);
}

#[test]
fn malformed_and_chaos_requests_get_typed_errors() {
    let (_, dir) = artifacts();
    let socket = std::env::temp_dir().join("lahd_serve_e2e_errors.sock");
    // Chaos disabled here: injection must be refused.
    let (cfg, _) = artifacts();
    let handle = serve_dir(cfg, dir, ServeConfig::default(), &socket).unwrap();
    let mut client = ServeClient::connect_retry(&socket, Duration::from_secs(5)).unwrap();

    match client.call(&Request::Crash { shard: 0 }).unwrap() {
        Response::Err(msg) => assert!(msg.contains("disabled"), "{msg}"),
        other => panic!("chaos injection must be refused: {other:?}"),
    }
    // Wrong observation width comes back as an error, not a panic.
    match client
        .call(&Request::Decide {
            req_id: 9,
            stream: 0,
            deadline_us: 0,
            obs: vec![0.0; 2],
        })
        .unwrap()
    {
        Response::Err(msg) => assert!(msg.contains("width"), "{msg}"),
        other => panic!("bad width must error: {other:?}"),
    }
    // Reload from a missing directory is rejected, daemon stays up.
    match client
        .call(&Request::Reload {
            dir: "/nonexistent/lahd".to_string(),
        })
        .unwrap()
    {
        Response::Err(msg) => assert!(msg.contains("rejected"), "{msg}"),
        other => panic!("missing dir must be rejected: {other:?}"),
    }
    let stats = daemon_stats(&socket);
    assert_eq!(stats.generation, 1);
    assert_eq!(stats.reloads_rejected, 1);
    shutdown(handle);
}
