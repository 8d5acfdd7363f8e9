//! Criterion micro-benchmark: the serving daemon's wire protocol.
//!
//! The decision path's fixed overhead per request is one frame each way —
//! encode + length-prefixed write on the client, read + decode on the
//! daemon, and the reverse for the response. These rows pin that framing
//! cost at the paper's observation width (6 dims) so a protocol change
//! that bloats the per-request budget shows up in the trajectory. The
//! end-to-end round trip is measured by the repository benchmark
//! (`perfbench/`), whose `protocol.encode_ns`/`protocol.decode_ns` layer
//! rows time the same frames in place.

use criterion::{criterion_group, criterion_main, Criterion};
use lahd_serve::{read_frame, write_frame, Request, Response};

fn bench_serve_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_protocol");

    let decide = Request::Decide {
        req_id: 0x1234_5678_9abc_def0,
        stream: 42,
        deadline_us: 1500,
        obs: vec![0.25, 0.5, 0.75, 1.0, 1.25, 1.5],
    };
    let decision = Response::Decision {
        req_id: 0x1234_5678_9abc_def0,
        action: 3,
        tier: 1,
        source: 0,
    };

    group.bench_function("encode_decide_6dim", |b| {
        b.iter(|| std::hint::black_box(decide.encode()).len())
    });

    let decide_bytes = decide.encode();
    group.bench_function("decode_decide_6dim", |b| {
        b.iter(
            || match Request::decode(std::hint::black_box(&decide_bytes)) {
                Ok(Request::Decide { req_id, .. }) => req_id,
                other => panic!("decode failed: {other:?}"),
            },
        )
    });

    let decision_bytes = decision.encode();
    group.bench_function("decode_decision", |b| {
        b.iter(
            || match Response::decode(std::hint::black_box(&decision_bytes)) {
                Ok(Response::Decision { action, .. }) => action,
                other => panic!("decode failed: {other:?}"),
            },
        )
    });

    // Full request round-trip through the framing layer (in-memory
    // buffer): write_frame + read_frame + decode — what one decision
    // costs on the wire, minus the kernel's socket copies.
    group.bench_function("frame_roundtrip_decide_6dim", |b| {
        let mut buf = Vec::with_capacity(128);
        b.iter(|| {
            buf.clear();
            write_frame(&mut buf, &decide.encode()).expect("vec write");
            let mut cursor = std::io::Cursor::new(buf.as_slice());
            let frame = read_frame(&mut cursor).expect("read").expect("frame");
            match Request::decode(&frame) {
                Ok(Request::Decide { stream, .. }) => stream,
                other => panic!("decode failed: {other:?}"),
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_serve_protocol);
criterion_main!(benches);
