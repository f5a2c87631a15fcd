//! Per-layer figures: counts read from the library's public stats, span
//! self times of a traced run, and replays that time one library function
//! over the inputs the traced nodes captured.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

use dimmer_core::codec::{self, DataFormat};
use pubsub::{BrokerNode, WirePacketRef};
use simnet::telemetry::Registry;
use simnet::NodeId;

use crate::host::{Host, Layer};
use crate::workload::Outcome;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simnet.events", "count"),
    ("simnet.engine_ns", "ns"),
    ("simnet.windows", "count"),
    ("simnet.cross_packets", "count"),
    ("simnet.barrier_stall_ns", "ns"),
    ("simnet.bytes", "bytes"),
    ("telemetry.series", "count"),
    ("telemetry.incr_ns", "ns"),
    ("telemetry.trace_dropped", "count"),
    ("pubsub.calls", "count"),
    ("pubsub.self_ns", "ns"),
    ("pubsub.published", "count"),
    ("pubsub.delivered", "count"),
    ("pubsub.bridge.items_per_batch", "ratio"),
    ("pubsub.wire_decode_ns", "ns"),
    ("protocols.self_ns", "ns"),
    ("protocols.frames", "count"),
    ("protocols.decode_ns", "ns"),
    ("proxy.device.self_ns", "ns"),
    ("proxy.database.self_ns", "ns"),
    ("proxy.samples_ingested", "count"),
    ("proxy.decode_errors", "count"),
    ("proxy.shed", "count"),
    ("core.json_ns", "ns"),
    ("core.xml_ns", "ns"),
    ("core.body_bytes", "bytes"),
    ("streams.self_ns", "ns"),
    ("streams.samples_in", "count"),
    ("streams.accepted", "count"),
    ("streams.late_dropped", "count"),
    ("streams.shed", "count"),
    ("streams.rollups", "count"),
    ("streams.rollup_lag_p99_ms", "ms"),
    ("storage.points", "count"),
    ("storage.bytes_compressed", "bytes"),
    ("storage.segments", "count"),
    ("storage.range_ns", "ns"),
    ("master.self_ns", "ns"),
    ("master.registrations", "count"),
    ("master.queries", "count"),
    ("ontology.resolve_ns", "ns"),
    ("district.self_ns", "ns"),
    ("district.requests_per_query", "ratio"),
    ("district.errors", "count"),
    ("setup.scenario_s", "s"),
    ("setup.deploy_s", "s"),
    ("setup.register_s", "s"),
    ("setup.preload_s", "s"),
    ("bench.self_ns", "ns"),
    ("bench.trace_overhead", "ratio"),
];

/// Where a traced run writes its spans.
pub const SPANS_FILE: &str = ".perfbench/spans.csv";

/// The bridge ledger: every frame a broker queued for a peer is acked,
/// dropped, still buffered or in flight, and none was dropped.
pub fn check_bridges(host: &Host, brokers: &[NodeId], out: &mut Outcome) {
    for &b in brokers {
        let broker = host.node::<BrokerNode>(b);
        let s = broker.bridge_stats();
        let open = (broker.bridge_buffered() + broker.bridge_in_flight()) as u64;
        out.require(
            s.frames_enqueued == s.frames_acked + s.frames_dropped + open,
            || format!("bridge ledger of {b} does not balance: {s:?}, {open} open"),
        );
        out.fail(s.frames_dropped, format!("{b} dropped bridge frames"));
    }
}

/// Counts of the engine, the telemetry registry and the broker tier.
pub fn sim_counts(host: &Host, brokers: &[NodeId], counts: &mut BTreeMap<&'static str, f64>) {
    let net = host.sim.metrics();
    let par = host.sim.stats();
    counts.insert("simnet.events", net.events_processed as f64);
    counts.insert("simnet.windows", par.windows as f64);
    counts.insert("simnet.cross_packets", par.cross_packets as f64);
    counts.insert("simnet.bytes", net.bytes_delivered as f64);
    let (mut series, mut dropped) = (0, 0);
    for t in telemetries(host) {
        let snap = t.metrics.snapshot();
        series += snap.counters.len() + snap.gauges.len() + snap.histograms.len();
        dropped += t.tracer.dropped();
    }
    counts.insert("telemetry.series", series as f64);
    counts.insert("telemetry.trace_dropped", dropped as f64);
    let (mut published, mut delivered, mut frames, mut batches) = (0, 0, 0, 0);
    for &b in brokers {
        let broker = host.node::<BrokerNode>(b);
        published += broker.stats().published;
        delivered += broker.stats().delivered;
        frames += broker.bridge_stats().frames_enqueued;
        batches += broker.bridge_stats().batches_sent;
    }
    counts.insert("pubsub.published", published as f64);
    counts.insert("pubsub.delivered", delivered as f64);
    counts.insert(
        "pubsub.bridge.items_per_batch",
        if batches == 0 {
            0.0
        } else {
            frames as f64 / batches as f64
        },
    );
}

fn telemetries(host: &Host) -> impl Iterator<Item = &simnet::Telemetry> {
    std::iter::once(host.sim.telemetry())
        .chain((0..host.sim.shard_count()).map(|s| host.sim.shard_telemetry(s)))
}

/// Self time per layer from the handler spans that fall inside the
/// measured run's slices, and the engine's time outside every handler.
/// Writes every span to [`SPANS_FILE`].
pub fn trace_timings(
    host: &Host,
    slices: &[(u64, u64)],
    timings: &mut BTreeMap<&'static str, f64>,
) {
    let mut self_ns: BTreeMap<Layer, (u64, u64)> = BTreeMap::new();
    let mut inside = 0u64;
    let mut csv = String::from("layer,slice,start_ns,end_ns,trace\n");
    for rec in host.recorders() {
        for span in &rec.spans {
            let slot = slices.partition_point(|&(start, _)| start <= span.start_ns);
            let Some(slice) = slot.checked_sub(1).filter(|&i| span.end_ns <= slices[i].1) else {
                continue;
            };
            let dur = span.end_ns - span.start_ns;
            let e = self_ns.entry(rec.layer).or_default();
            e.0 += 1;
            e.1 += dur;
            inside += dur;
            csv.push_str(&format!(
                "{:?},{slice},{},{},{}\n",
                rec.layer, span.start_ns, span.end_ns, span.trace
            ));
        }
    }
    let total: u64 = slices.iter().map(|&(s, e)| e - s).sum();
    timings.insert("simnet.engine_ns", total.saturating_sub(inside) as f64);
    for layer in Layer::ALL {
        let (calls, ns) = self_ns.get(&layer).copied().unwrap_or_default();
        let name = match layer {
            Layer::Device => "protocols.self_ns",
            Layer::DeviceProxy => "proxy.device.self_ns",
            Layer::DatabaseProxy => "proxy.database.self_ns",
            Layer::Broker => {
                timings.insert("pubsub.calls", calls as f64);
                "pubsub.self_ns"
            }
            Layer::Aggregator => "streams.self_ns",
            Layer::Master => "master.self_ns",
            Layer::Client => "district.self_ns",
            Layer::Bench => "bench.self_ns",
        };
        timings.insert(name, ns as f64);
    }
    let written = std::fs::create_dir_all(".perfbench")
        .and_then(|()| std::fs::File::create(SPANS_FILE))
        .and_then(|mut f| f.write_all(csv.as_bytes()));
    if let Err(e) = written {
        eprintln!("cannot write {SPANS_FILE}: {e}");
    }
}

/// Host ns to run `f` once over every item.
fn time_each<T>(items: impl IntoIterator<Item = T>, mut f: impl FnMut(T)) -> f64 {
    let items: Vec<T> = items.into_iter().collect();
    let t0 = Instant::now();
    for item in items {
        f(item);
    }
    t0.elapsed().as_nanos() as f64
}

/// `PacketRef::decode` over every packet the brokers received.
pub fn replay_wire(host: &Host, timings: &mut BTreeMap<&'static str, f64>) {
    let recs = host.recorders();
    let frames = recs
        .iter()
        .filter(|r| r.layer == Layer::Broker)
        .flat_map(|r| r.capture.iter());
    let ns = time_each(frames, |bytes| {
        black_box(WirePacketRef::decode(black_box(bytes)).is_ok());
    });
    timings.insert("pubsub.wire_decode_ns", ns);
}

/// `Registry::incr` over the run's own counter names, once per unit of
/// each counter (capped per series), on a fresh registry.
pub fn replay_incr(host: &Host, timings: &mut BTreeMap<&'static str, f64>) {
    const CAP: u64 = 100_000;
    let snapshots: Vec<_> = telemetries(host).map(|t| t.metrics.snapshot()).collect();
    let calls = snapshots
        .iter()
        .flat_map(|s| s.counters.iter())
        .flat_map(|(name, v)| std::iter::repeat_n(name.as_str(), (*v).min(CAP) as usize));
    let registry = Registry::new();
    let ns = time_each(calls, |name| registry.incr(black_box(name)));
    timings.insert("telemetry.incr_ns", ns);
}

/// `codec::decode_value` then `encode_value` over every Web-Service
/// response body the clients received, split by format.
pub fn replay_ws_bodies(host: &Host, timings: &mut BTreeMap<&'static str, f64>) {
    let mut bodies: Vec<(DataFormat, String)> = Vec::new();
    for rec in host.recorders() {
        if rec.layer != Layer::Client {
            continue;
        }
        for payload in rec.capture.iter() {
            let Ok(simnet::rpc::RpcFrame::Response { body, .. }) = simnet::rpc::decode(payload)
            else {
                continue;
            };
            let Some((&marker, text)) = body.split_first() else {
                continue;
            };
            let format = if marker == 0 {
                DataFormat::Json
            } else {
                DataFormat::Xml
            };
            bodies.push((format, String::from_utf8_lossy(text).into_owned()));
        }
    }
    for (format, name) in [
        (DataFormat::Json, "core.json_ns"),
        (DataFormat::Xml, "core.xml_ns"),
    ] {
        let texts = bodies.iter().filter(|(f, _)| *f == format);
        let ns = time_each(texts, |(_, text)| {
            let value =
                codec::decode_value(black_box(text), format).expect("captured body decodes");
            black_box(codec::encode_value(&value, format));
        });
        timings.insert(name, ns);
    }
}

/// `codec::decode_value`/`encode_value` (JSON) over every measurement
/// payload the benchmark's subscribers received.
pub fn replay_json_payloads(host: &Host, timings: &mut BTreeMap<&'static str, f64>) {
    let mut texts: Vec<String> = Vec::new();
    for rec in host.recorders() {
        if rec.layer != Layer::Bench {
            continue;
        }
        for payload in rec.capture.iter() {
            if let Ok(WirePacketRef::Deliver { payload, .. }) = WirePacketRef::decode(payload) {
                texts.push(String::from_utf8_lossy(payload).into_owned());
            }
        }
    }
    let ns = time_each(texts.iter(), |text| {
        let value = codec::decode_value(black_box(text), DataFormat::Json)
            .expect("measurement payloads are JSON");
        black_box(codec::encode_value(&value, DataFormat::Json));
    });
    timings.insert("core.json_ns", ns);
}

/// Bytes the given nodes received (bodies the replays decode).
pub fn bytes_received(host: &Host, nodes: &[NodeId]) -> f64 {
    nodes
        .iter()
        .map(|&n| host.sim.node_metrics(n).bytes_received)
        .sum::<u64>() as f64
}

/// Time `f` and return host ns (for workload-specific replays).
pub fn time_ns(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64
}

/// Storage-engine state summed over stores.
pub fn storage_counts<'a>(
    stores: impl Iterator<Item = &'a storage::tskv::TimeSeriesStore>,
    counts: &mut BTreeMap<&'static str, f64>,
) {
    let (mut points, mut bytes, mut segments) = (0u64, 0u64, 0u64);
    for s in stores {
        let st = s.stats();
        points += st.head_points as u64 + st.sealed_points;
        bytes += st.bytes_compressed;
        segments += st.segments as u64;
    }
    counts.insert("storage.points", points as f64);
    counts.insert("storage.bytes_compressed", bytes as f64);
    counts.insert("storage.segments", segments as f64);
}
