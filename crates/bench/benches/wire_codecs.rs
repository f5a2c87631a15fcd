//! Criterion micro-benches for the middleware wire codec: the encode
//! and decode paths of a single `Publish` frame and of a batched
//! `BridgeBatch` frame (the federation's O(1)-frames-per-N-publishes
//! claim only pays off if batch encode stays linear and cheap).
//!
//! Both run on `WirePacketRef`, the one packet type: `wire/encode/*`
//! serializes a view built over owned buffers, as senders do, and
//! `wire/decode/*` runs the borrowed, zero-copy decoder.

use bench_support::criterion::{criterion_group, criterion_main, Criterion};
use pubsub::{BridgeFrame, QoS, Topic, WirePacketRef};
use std::hint::black_box;

/// The owned publish a sender holds: publish `i` of the fixture.
fn frame(i: usize) -> BridgeFrame {
    BridgeFrame {
        topic: Topic::new(format!(
            "district/d{}/entity/b{}/device/dev{}/temperature",
            i % 4,
            i % 50,
            i
        ))
        .expect("valid topic"),
        payload: format!("{{\"value\":{}.25,\"unit\":\"C\",\"seq\":{i}}}", i % 40).into_bytes(),
        retain: i.is_multiple_of(2),
        qos: QoS::AtLeastOnce,
        trace: i as u64,
        span: i as u64 + 1,
    }
}

fn publish(i: usize, f: &BridgeFrame) -> WirePacketRef<'_> {
    WirePacketRef::Publish {
        id: i as u64,
        topic: (&f.topic).into(),
        payload: &f.payload,
        retain: f.retain,
        qos: f.qos,
        trace: f.trace,
        span: f.span,
    }
}

fn bridge_batch(frames: &[BridgeFrame]) -> WirePacketRef<'_> {
    WirePacketRef::BridgeBatch {
        incarnation: 3,
        batch_id: 17,
        frames: frames.iter().map(BridgeFrame::view).collect(),
    }
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");

    let owned = frame(17);
    let single = publish(17, &owned);
    let single_bytes = single.encode();
    group.bench_function("encode/publish", |b| b.iter(|| black_box(&single).encode()));
    group.bench_function("decode/publish", |b| {
        b.iter(|| WirePacketRef::decode(black_box(&single_bytes)).expect("round-trips"))
    });

    for &n in &[8usize, 64] {
        let owned: Vec<BridgeFrame> = (0..n).map(frame).collect();
        let batch = bridge_batch(&owned);
        let batch_bytes = batch.encode();
        group.bench_function(format!("encode/bridge_batch_{n}"), |b| {
            b.iter(|| black_box(&batch).encode())
        });
        group.bench_function(format!("decode/bridge_batch_{n}"), |b| {
            b.iter(|| WirePacketRef::decode(black_box(&batch_bytes)).expect("round-trips"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
