//! The reply path: shards and connection readers write replies straight to
//! the client socket through one shared, mutex-guarded write half.
//!
//! Two properties are checked against a live daemon: concurrent writers
//! (several shards plus the reader's inline sheds) never tear or lose a
//! frame, and a client that stops reading is disconnected within the
//! write timeout instead of stalling every other client of its shard.

use std::collections::HashSet;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use lahd_core::{save_artifacts, Pipeline, PipelineConfig};
use lahd_serve::{
    load_profile, serve_dir, shard_of, write_frame, Request, Response, ServeClient, ServeConfig,
    ServeHandle, WRITE_TIMEOUT,
};

/// Train the tiny pipeline once per process and stamp its artifacts to
/// disk; every test serves from this directory.
fn artifacts() -> &'static (PipelineConfig, PathBuf) {
    static ARTIFACTS: OnceLock<(PipelineConfig, PathBuf)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let cfg = PipelineConfig::tiny();
        let produced = Pipeline::new(cfg.clone()).run();
        let dir = std::env::temp_dir().join("lahd_serve_reply_path_artifacts");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        save_artifacts(&produced, &dir).unwrap();
        (cfg, dir)
    })
}

/// A healthy observation: the middle of each dimension's baseline band.
fn healthy_obs() -> Vec<f32> {
    let (_, dir) = artifacts();
    load_profile(dir)
        .unwrap()
        .dims
        .iter()
        .map(|d| ((d.p25 + d.p75) / 2.0) as f32)
        .collect()
}

fn start(name: &str, shards: usize) -> (ServeHandle, PathBuf) {
    let (cfg, dir) = artifacts();
    let socket = std::env::temp_dir().join(format!("lahd-{name}-{}.sock", std::process::id()));
    let serve_cfg = ServeConfig {
        shards,
        ..ServeConfig::default()
    };
    (serve_dir(cfg, dir, serve_cfg, &socket).unwrap(), socket)
}

fn connect(socket: &Path) -> ServeClient {
    let client = ServeClient::connect_retry(socket, Duration::from_secs(5)).unwrap();
    // A lost reply must fail the test, not hang it.
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client
}

fn decide(req_id: u64, stream: u64, obs: &[f32]) -> Request {
    Request::Decide {
        req_id,
        stream,
        deadline_us: 0,
        obs: obs.to_vec(),
    }
}

#[test]
fn concurrent_shard_writers_never_tear_or_lose_frames() {
    const SHARDS: usize = 4;
    const STREAMS: u64 = 64;
    const DECISIONS: u64 = 12_000;
    const WINDOW: u64 = 96;
    let (handle, socket) = start("tear", SHARDS);
    let mut hit = [false; SHARDS];
    for s in 0..STREAMS {
        hit[shard_of(s, SHARDS)] = true;
    }
    assert!(hit.iter().all(|&h| h), "streams must cover every shard");
    let obs = healthy_obs();

    // One connection, many decisions in flight: every shard (and the
    // reader, for any shed) writes to the same socket concurrently.
    let mut client = connect(&socket);
    let mut answered = HashSet::with_capacity(DECISIONS as usize);
    let mut sent = 0u64;
    while (answered.len() as u64) < DECISIONS {
        while sent < DECISIONS && sent - (answered.len() as u64) < WINDOW {
            client.send(&decide(sent, sent % STREAMS, &obs)).unwrap();
            sent += 1;
        }
        match client.recv().expect("every reply frame decodes") {
            Response::Decision { req_id, .. } => {
                assert!(req_id < DECISIONS, "stray req_id {req_id}");
                assert!(answered.insert(req_id), "req_id {req_id} answered twice");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let stats = client.stats().expect("no reply outstanding after the run");
    assert_eq!(stats.served + stats.shed, DECISIONS);
    assert_eq!(stats.slow_client_drops, 0);
    handle.shutdown();
    handle.wait();
}

#[test]
fn a_client_that_stops_reading_is_dropped_without_stalling_others() {
    let (handle, socket) = start("stall", 2);
    let obs = healthy_obs();
    let streams: Vec<u64> = (0..64).filter(|&s| shard_of(s, 2) == 0).collect();
    let (a_stream, b_stream) = (streams[0], streams[1]);
    let slack = Duration::from_secs(2);

    // Connection A pipelines decisions to shard 0 and never reads. Its
    // sends fail once the daemon shuts the connection down.
    let a = UnixStream::connect(&socket).unwrap();
    a.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    let a_started = Instant::now();
    let stalled = std::thread::spawn(move || {
        let mut a = a;
        let frame = decide(0, a_stream, &obs).encode();
        for _ in 0..2_000_000 {
            if let Err(e) = write_frame(&mut a, &frame) {
                return (a_started.elapsed(), e.kind());
            }
        }
        panic!("the daemon never stopped accepting a client that does not read");
    });

    // Connection B keeps deciding on the same shard meanwhile, and after.
    let mut b = connect(&socket);
    let obs = healthy_obs();
    let mut worst = Duration::ZERO;
    let mut answered = 0u64;
    let mut id = 0u64;
    while !stalled.is_finished() || answered < 200 {
        let t = Instant::now();
        match b.call(&decide(id, b_stream, &obs)).unwrap() {
            Response::Decision { req_id, .. } => assert_eq!(req_id, id),
            other => panic!("unexpected reply {other:?}"),
        }
        worst = worst.max(t.elapsed());
        answered += 1;
        id += 1;
        assert!(a_started.elapsed() < Duration::from_secs(30), "run overran");
    }
    let (closed_after, kind) = stalled.join().unwrap();

    assert!(
        matches!(
            kind,
            std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset
        ),
        "A's sends end because the daemon closed it, not by timing out ({kind:?})"
    );
    assert!(
        closed_after < 2 * WRITE_TIMEOUT + slack,
        "A closed after {closed_after:?}"
    );
    assert!(
        worst < 2 * WRITE_TIMEOUT + slack,
        "B waited {worst:?} behind the stalled client"
    );
    let stats = b.stats().unwrap();
    assert_eq!(stats.slow_client_drops, 1);
    b.ping().expect("the daemon stays up");
    drop(b);
    let mut fresh = connect(&socket);
    fresh.ping().expect("and takes new connections");
    handle.shutdown();
    handle.wait();
}
