//! `ingest`: the full Fig. 1(b) write path through
//! `Deployment::build_on`. Radio frames are decoded by Device-proxies,
//! translated to JSON, stored in each proxy's tskv, published through a
//! 4-shard broker tier and folded into 60 s windows by the district
//! aggregators. The master sees only registration, which is set-up.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use dimmer_core::{Measurement, QuantityKind};
use district::deploy::Deployment;
use district::scenario::{AggregationSpec, DeviceSpec, FederationSpec, Scenario, ScenarioConfig};
use master::MasterNode;
use protocols::enocean::Eep;
use protocols::ieee802154::PanId;
use protocols::ProtocolKind;
use proxy::adapters::{DeviceAdapter, EnoceanAdapter, Ieee802154Adapter, ZigbeeAdapter};
use proxy::database_proxy::DatabaseProxyNode;
use proxy::device_proxy::DeviceProxyNode;
use proxy::devices::{CoapFieldNode, OpcUaFieldNode, UplinkDeviceNode};
use pubsub::{
    MeasurementTopic, PubSubClient, PubSubEvent, QoS, RollupScope, RollupTopic, TopicFilter,
    PUBSUB_PORT,
};
use simnet::chaos::FaultTarget;
use simnet::{Context, Node, NodeId, Packet, SimDuration, SimHost, SimTime, TimerTag};
use streams::{AggregatorNode, Rollup};

use crate::host::Host;
use crate::layers;
use crate::workload::{quantile, run_sliced, secs, Defect, Outcome, Rep, RunCfg, Scale, Setup};

const WINDOW_MILLIS: i64 = 60_000;
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// Registration must finish well inside this.
const REGISTER_LIMIT: SimDuration = SimDuration::from_secs(120);
/// After the devices stop, long enough for every frame and publish to
/// land.
const DRAIN: SimDuration = SimDuration::from_secs(5);

struct Size {
    districts: usize,
    buildings: usize,
    devices: usize,
    shards: usize,
    measure: SimDuration,
}

fn size(scale: Scale) -> Size {
    match scale {
        // 1,600 devices: per-sample host cost grows with the city, so the
        // size is pinned.
        Scale::Full => Size {
            districts: 8,
            buildings: 25,
            devices: 8,
            shards: 4,
            measure: SimDuration::from_secs(300),
        },
        Scale::Tiny => Size {
            districts: 2,
            buildings: 4,
            devices: 3,
            shards: 2,
            measure: SimDuration::from_secs(150),
        },
    }
}

fn scenario(seed: u64, size: &Size) -> Scenario {
    let mut config = ScenarioConfig::small()
        .with_seed(seed)
        .with_districts(size.districts)
        .with_buildings(size.buildings)
        .with_devices_per_building(size.devices);
    config.sample_interval = SAMPLE_INTERVAL;
    config.publish_qos = QoS::AtMostOnce;
    config
        .with_aggregation(AggregationSpec::tumbling(WINDOW_MILLIS))
        .with_federation(FederationSpec::sharded(size.shards))
        .build()
}

/// A district subscriber on `district/<d>/#`: measurement deliveries
/// with their sample→deliver latency, and district rollups with their
/// window-end→deliver lag.
struct DistrictSub {
    client: PubSubClient,
    filter: String,
    epoch_millis: i64,
    window: (SimTime, SimTime),
    measurements: u64,
    latencies_ns: Vec<u64>,
    rollup_lags_ns: Vec<u64>,
    drop: u64,
}

impl Node for DistrictSub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let filter = TopicFilter::new(&self.filter).expect("valid filter");
        self.client.subscribe(ctx, filter, QoS::AtMostOnce);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port != PUBSUB_PORT {
            return;
        }
        let Some(PubSubEvent::Message { topic, payload, .. }) = self.client.accept(ctx, &pkt)
        else {
            return;
        };
        let value = std::str::from_utf8(&payload)
            .ok()
            .and_then(|t| dimmer_core::json::from_str(t).ok());
        let now = ctx.now();
        let epoch = self.epoch_millis;
        let sim_ns = |unix_millis: i64| ((unix_millis - epoch).max(0) as u64) * 1_000_000;
        let in_window = now >= self.window.0 && now < self.window.1;
        if MeasurementTopic::parse(&topic).is_some() {
            if self.drop > 0 {
                self.drop -= 1;
                return;
            }
            self.measurements += 1;
            let m = value
                .and_then(|v| Measurement::from_value(&v).ok())
                .expect("measurement payloads decode");
            if in_window {
                let at = sim_ns(m.timestamp().as_unix_millis());
                self.latencies_ns.push(now.as_nanos().saturating_sub(at));
            }
        } else if let Some(rt) = RollupTopic::parse(&topic) {
            if rt.scope == RollupScope::District && in_window {
                let r = value
                    .and_then(|v| Rollup::from_value(&v).ok())
                    .expect("rollup payloads decode");
                let end = sim_ns(r.window_end());
                self.rollup_lags_ns.push(now.as_nanos().saturating_sub(end));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

/// Runs until every proxy and aggregator has registered on the master.
pub fn register(host: &mut Host, deployment: &Deployment) -> bool {
    let limit = host.sim.now() + REGISTER_LIMIT;
    loop {
        let done = deployment
            .device_proxies()
            .all(|p| host.node::<DeviceProxyNode>(p).is_registered())
            && deployment
                .database_proxies()
                .all(|p| host.node::<DatabaseProxyNode>(p).is_registered())
            && deployment
                .aggregators()
                .all(|a| host.node::<AggregatorNode>(a).is_registered());
        if done {
            return true;
        }
        if host.sim.now() >= limit {
            return false;
        }
        let next = host.sim.now() + SimDuration::from_millis(500);
        host.sim.run_until(next);
    }
}

/// Samples one frame of `spec` decodes into.
fn samples_per_frame(spec: &DeviceSpec) -> u64 {
    if spec.protocol == ProtocolKind::EnOcean && spec.eep == Some(Eep::A50401) {
        2
    } else {
        1
    }
}

/// Frames a device node emitted (pushed or answered to a poll).
fn frames_emitted(host: &Host, spec: &DeviceSpec, device: NodeId) -> u64 {
    match spec.protocol {
        ProtocolKind::OpcUa => host.node::<OpcUaFieldNode>(device).polls_answered,
        ProtocolKind::Coap => host.node::<CoapFieldNode>(device).requests_answered,
        _ => host.node::<UplinkDeviceNode>(device).frames_sent,
    }
}

/// An adapter like the deployment's for a push device, for the decode
/// replay (polled devices have no uplink frames). `district::deploy`
/// keeps its PAN derivation private, so it is repeated here.
fn uplink_adapter(
    scenario: &Scenario,
    district: usize,
    spec: &DeviceSpec,
) -> Option<Box<dyn DeviceAdapter>> {
    let d = &scenario.districts[district].district;
    let pan_offset = d.as_str().bytes().fold(0u16, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(u16::from(b))
    }) % 0x100;
    Some(match spec.protocol {
        ProtocolKind::Ieee802154 => Box::new(Ieee802154Adapter::new(
            PanId(0x2300 + pan_offset),
            spec.address as u16,
        )),
        ProtocolKind::Zigbee => Box::new(ZigbeeAdapter::new(spec.address as u16)),
        ProtocolKind::EnOcean => Box::new(EnoceanAdapter::new(
            spec.address,
            spec.eep.unwrap_or(Eep::A50205),
        )),
        ProtocolKind::OpcUa | ProtocolKind::Coap => return None,
    })
}

/// The scenario's device specs in deployment order, with their district.
fn device_specs(scenario: &Scenario) -> Vec<(usize, &DeviceSpec)> {
    scenario
        .districts
        .iter()
        .enumerate()
        .flat_map(|(i, d)| {
            d.buildings
                .iter()
                .flat_map(move |b| b.devices.iter().map(move |s| (i, s)))
        })
        .collect()
}

pub fn run(cfg: &RunCfg) -> Rep {
    let size = size(cfg.scale);
    let mut setup = Setup::default();

    let t = Instant::now();
    let scenario = scenario(cfg.seed, &size);
    setup.scenario_s = secs(t);

    let t = Instant::now();
    let mut host = Host::new(cfg.seed, size.shards, cfg.threads, cfg.traced);
    let deployment = Deployment::build_on(&mut host, &scenario);
    let epoch = scenario.config.epoch_offset_millis;
    let drop_first = u64::from(cfg.defect == Some(Defect::DropDelivery));
    let mut window = (SimTime::ZERO, SimTime::ZERO);
    let subs: Vec<NodeId> = deployment
        .districts
        .iter()
        .enumerate()
        .map(|(i, d)| {
            host.place_node(
                d.broker.shard(),
                format!("sub-{}", d.district),
                DistrictSub {
                    client: PubSubClient::new(d.broker, 100),
                    filter: format!("district/{}/#", d.district),
                    epoch_millis: epoch,
                    window,
                    measurements: 0,
                    latencies_ns: Vec::new(),
                    rollup_lags_ns: Vec::new(),
                    drop: if i == 0 { drop_first } else { 0 },
                },
            )
        })
        .collect();
    setup.deploy_s = secs(t);

    let mut out = Outcome::default();
    let t = Instant::now();
    let registered = register(&mut host, &deployment);
    setup.register_s = secs(t);
    out.require(registered, || "proxies did not all register".to_owned());

    let start = host.sim.now();
    let end = start + size.measure;
    window = (start, end);
    for &s in &subs {
        host.host_node_mut::<DistrictSub>(s).expect("placed").window = window;
    }
    let work_before = work_done(&host, &deployment);
    let origin = host.origin();
    let mut slices = Vec::new();
    let t = Instant::now();
    run_sliced(
        &mut host.sim,
        end,
        SimDuration::from_secs(1),
        origin,
        &mut slices,
    );
    let run_s = secs(t);
    let work = work_done(&host, &deployment) - work_before;

    // Stop the devices and let every frame in flight land, so emitted
    // and ingested counts can be compared exactly.
    for d in &deployment.districts {
        for &dev in &d.devices {
            host.sim.crash(dev);
        }
    }
    let drained = host.sim.now() + DRAIN;
    host.sim.run_until(drained);

    check(&host, &scenario, &deployment, &subs, cfg.defect, &mut out);

    let mut latencies_ns = Vec::new();
    let mut lags = Vec::new();
    for &s in &subs {
        let sub = host.node::<DistrictSub>(s);
        latencies_ns.extend_from_slice(&sub.latencies_ns);
        lags.extend_from_slice(&sub.rollup_lags_ns);
    }
    latencies_ns.sort_unstable();
    lags.sort_unstable();

    let mut counts = BTreeMap::new();
    layers::sim_counts(&host, &deployment.brokers, &mut counts);
    proxy_counts(&host, &scenario, &deployment, &mut counts);
    counts.insert(
        "streams.rollup_lag_p99_ms",
        quantile(&lags, 0.99) as f64 / 1e6,
    );
    counts.insert("core.body_bytes", layers::bytes_received(&host, &subs));

    let mut timings = BTreeMap::new();
    if cfg.traced {
        layers::trace_timings(&host, &slices, &mut timings);
        layers::replay_wire(&host, &mut timings);
        layers::replay_incr(&host, &mut timings);
        layers::replay_json_payloads(&host, &mut timings);
        replay_decode(&host, &scenario, &deployment, &mut timings, &mut out);
    }
    Rep {
        setup,
        run_s,
        sim_s: size.measure.as_secs_f64(),
        work,
        latencies_ns,
        outcome: out,
        counts,
        timings,
        flight_digest: host.sim.flight_digest(),
        barrier_stall_ns: host.sim.stats().barrier_stall_ns,
    }
}

/// Samples stored at Device-proxies plus samples accepted by
/// aggregators so far.
fn work_done(host: &Host, deployment: &Deployment) -> u64 {
    let stored: u64 = deployment
        .device_proxies()
        .map(|p| host.node::<DeviceProxyNode>(p).stats().samples_ingested)
        .sum();
    let accepted: u64 = deployment
        .aggregators()
        .map(|a| host.node::<AggregatorNode>(a).window_stats().accepted)
        .sum();
    stored + accepted
}

fn check(
    host: &Host,
    scenario: &Scenario,
    deployment: &Deployment,
    subs: &[NodeId],
    defect: Option<Defect>,
    out: &mut Outcome,
) {
    let specs = device_specs(scenario);
    let proxies: Vec<NodeId> = deployment.device_proxies().collect();
    let devices: Vec<NodeId> = deployment
        .districts
        .iter()
        .flat_map(|d| d.devices.iter().copied())
        .collect();
    // Every sample a device emitted was ingested or failed to decode.
    let mut extra = u64::from(defect == Some(Defect::ExtraFrame));
    for (((_, spec), &proxy), &device) in specs.iter().zip(&proxies).zip(&devices) {
        let k = samples_per_frame(spec);
        let emitted = (frames_emitted(host, spec, device) + std::mem::take(&mut extra)) * k;
        let st = host.node::<DeviceProxyNode>(proxy).stats();
        out.attempted += emitted;
        out.fail(
            emitted.abs_diff(st.samples_ingested + st.decode_errors * k),
            format!(
                "device {}: emitted {emitted} samples, ingested {} + {} decode errors",
                spec.device, st.samples_ingested, st.decode_errors
            ),
        );
        out.fail(
            st.decode_errors * k,
            format!("device {}: decode errors", spec.device),
        );
    }
    layers::check_bridges(host, &deployment.brokers, out);

    for (i, d) in deployment.districts.iter().enumerate() {
        let published: u64 = d
            .device_proxies
            .iter()
            .map(|&p| host.node::<DeviceProxyNode>(p).stats().published)
            .sum();
        let sub = host.node::<DistrictSub>(subs[i]);
        out.fail(
            published.abs_diff(sub.measurements),
            format!(
                "{}: subscriber got {} of {published} samples",
                d.district, sub.measurements
            ),
        );
        let Some(agg_id) = d.aggregator else {
            out.require(false, || format!("{} has no aggregator", d.district));
            continue;
        };
        let agg = host.node::<AggregatorNode>(agg_id);
        let ws = agg.window_stats();
        out.require(
            ws.samples_in == ws.accepted + ws.late_dropped + ws.shed,
            || format!("{}: window stats do not conserve: {ws:?}", d.district),
        );
        let st = agg.stats();
        out.fail(
            published.abs_diff(st.samples_in + st.duplicates + st.decode_errors),
            format!(
                "{}: aggregator saw {st:?} of {published} published samples",
                d.district
            ),
        );
        // Every closed district rollup equals a fold of the raw samples
        // the district's proxies hold.
        let mut quantities: Vec<QuantityKind> = Vec::new();
        for (_, spec) in specs.iter().filter(|(di, _)| *di == i) {
            quantities.push(spec.quantity);
            if samples_per_frame(spec) == 2 {
                quantities.push(QuantityKind::Humidity);
            }
        }
        quantities.sort_by_key(|q| q.as_str());
        quantities.dedup();
        let mut closed = 0;
        let mut skip = u64::from(defect == Some(Defect::DropSample) && i == 0);
        for q in quantities {
            for r in agg.district_rollups(q, i64::MIN, i64::MAX) {
                closed += 1;
                let (mut count, mut sum, mut min, mut max) =
                    (0u64, 0.0, f64::INFINITY, f64::NEG_INFINITY);
                for &p in &d.device_proxies {
                    let store = host.node::<DeviceProxyNode>(p).store();
                    store.for_each_in(q.as_str(), r.window_start, r.window_end(), |_, v| {
                        if skip > 0 {
                            skip -= 1;
                            return;
                        }
                        count += 1;
                        sum += v;
                        min = min.min(v);
                        max = max.max(v);
                    });
                }
                let same = count == r.count
                    && min == r.min
                    && max == r.max
                    && (sum - r.sum).abs() <= 1e-9 * sum.abs().max(1.0);
                out.require(same, || {
                    format!(
                        "{} {q} window {}: rollup {}/{}/{}/{} != raw fold {count}/{sum}/{min}/{max}",
                        d.district, r.window_start, r.count, r.sum, r.min, r.max
                    )
                });
            }
        }
        out.require(closed > 0, || format!("{}: no window closed", d.district));
    }
}

pub fn proxy_counts(
    host: &Host,
    scenario: &Scenario,
    deployment: &Deployment,
    counts: &mut BTreeMap<&'static str, f64>,
) {
    let specs = device_specs(scenario);
    let devices = deployment
        .districts
        .iter()
        .flat_map(|d| d.devices.iter().copied());
    let frames: u64 = specs
        .iter()
        .zip(devices)
        .map(|((_, s), d)| frames_emitted(host, s, d))
        .sum();
    counts.insert("protocols.frames", frames as f64);
    let (mut ingested, mut errors, mut shed) = (0, 0, 0);
    for p in deployment.device_proxies() {
        let st = host.node::<DeviceProxyNode>(p).stats();
        ingested += st.samples_ingested;
        errors += st.decode_errors;
        shed += st.shed_capacity + st.shed_decode + st.ws_shed;
    }
    counts.insert("proxy.samples_ingested", ingested as f64);
    counts.insert("proxy.decode_errors", errors as f64);
    counts.insert("proxy.shed", shed as f64);
    let (mut samples_in, mut accepted, mut late, mut agg_shed, mut rollups) = (0, 0, 0, 0, 0);
    for a in deployment.aggregators() {
        let agg = host.node::<AggregatorNode>(a);
        let ws = agg.window_stats();
        samples_in += ws.samples_in;
        accepted += ws.accepted;
        late += ws.late_dropped;
        agg_shed += ws.shed;
        rollups += agg.stats().rollups_published;
    }
    counts.insert("streams.samples_in", samples_in as f64);
    counts.insert("streams.accepted", accepted as f64);
    counts.insert("streams.late_dropped", late as f64);
    counts.insert("streams.shed", agg_shed as f64);
    counts.insert("streams.rollups", rollups as f64);
    let stores = deployment
        .device_proxies()
        .map(|p| host.node::<DeviceProxyNode>(p).store())
        .chain(
            deployment
                .aggregators()
                .map(|a| host.node::<AggregatorNode>(a).store()),
        );
    layers::storage_counts(stores, counts);
    let master = host.node::<MasterNode>(deployment.master).stats();
    counts.insert("master.registrations", master.registrations as f64);
    counts.insert("master.queries", master.queries as f64);
}

/// `DeviceAdapter::decode_uplink` over every frame the Device-proxies
/// received. Every frame must decode: an adapter that drifted from the
/// deployment's would time the error path instead, so it fails the run.
fn replay_decode(
    host: &Host,
    scenario: &Scenario,
    deployment: &Deployment,
    timings: &mut BTreeMap<&'static str, f64>,
    out: &mut Outcome,
) {
    let specs = device_specs(scenario);
    let by_proxy: HashMap<NodeId, (usize, &DeviceSpec)> = deployment
        .device_proxies()
        .zip(specs.iter().copied())
        .collect();
    let mut ns = 0.0;
    let (mut frames, mut failed) = (0u64, 0u64);
    for id in deployment.device_proxies() {
        let rec = host.recorder(id).expect("traced run");
        let (district, spec) = by_proxy[&id];
        let Some(mut adapter) = uplink_adapter(scenario, district, spec) else {
            continue;
        };
        frames += rec.capture.iter().count() as u64;
        ns += layers::time_ns(|| {
            for frame in rec.capture.iter() {
                failed += u64::from(std::hint::black_box(adapter.decode_uplink(frame)).is_err());
            }
        });
    }
    out.fail(
        failed,
        format!("decode replay: {failed} of {frames} frames did not decode"),
    );
    out.require(frames > 0, || {
        "decode replay: no frames captured".to_owned()
    });
    timings.insert("protocols.decode_ns", ns);
}
