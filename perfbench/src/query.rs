//! `query`: area and profile queries read while devices keep writing at
//! a low rate. It covers the master redirect (ontology + GIS), the
//! Database- and Device-proxy Web Services, the JSON/XML codec and the
//! tskv read path over sealed segments and the mutable head, none of
//! which `ingest` touches.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use dimmer_core::codec::DataFormat;
use dimmer_core::{DistrictId, QuantityKind};
use district::client::{AreaSnapshot, ClientConfig, ClientNode};
use district::deploy::Deployment;
use district::profile::{ProfileClientNode, ProfileConfig};
use district::scenario::{AggregationSpec, FederationSpec, Scenario, ScenarioConfig};
use gis::geo::BoundingBox;
use master::MasterNode;
use models::profiles::EnergyProfile;
use proxy::device_proxy::DeviceProxyNode;
use proxy::uri_node;
use simnet::rng::DeterministicRng;
use simnet::{NodeId, SimDuration, SimHost, SimTime};

use crate::host::Host;
use crate::ingest;
use crate::layers;
use crate::workload::{run_sliced, secs, Defect, OpenLoop, Outcome, Rep, RunCfg, Scale, Setup};

/// Preloaded history: one point a minute for 36 h before the epoch, all
/// of it sealed, so each series spans a full day segment before live
/// samples reach the mutable head.
const HISTORY_MILLIS: i64 = 36 * 3_600_000;
const HISTORY_STEP_MILLIS: i64 = 60_000;
/// The data window of every area query: the last 10 min of history plus
/// the first live minute, crossing the sealed/head boundary.
const WINDOW_BEFORE_MILLIS: i64 = 10 * 60_000;
const WINDOW_AFTER_MILLIS: i64 = 61_000;
/// Queries start once every device has written into the window.
const FIRST_QUERY: SimDuration = SimDuration::from_secs(65);
/// After the last query is due, long enough for it to complete.
const DRAIN: SimDuration = SimDuration::from_secs(5);
const AREAS_PER_DISTRICT: usize = 4;
const PROFILE_QUANTITY: QuantityKind = QuantityKind::Temperature;

struct Size {
    districts: usize,
    buildings: usize,
    devices: usize,
    shards: usize,
    /// Each client's query period; a district's clients are spread
    /// evenly over it.
    period: SimDuration,
    /// Queries each client issues, so every client issues as many.
    rounds: u64,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            districts: 4,
            buildings: 16,
            devices: 4,
            shards: 4,
            period: SimDuration::from_secs(9),
            rounds: 28,
        },
        Scale::Tiny => Size {
            districts: 2,
            buildings: 4,
            devices: 2,
            shards: 2,
            period: SimDuration::from_secs(5),
            rounds: 4,
        },
    }
}

fn scenario(seed: u64, size: &Size) -> Scenario {
    ScenarioConfig::small()
        .with_seed(seed)
        .with_districts(size.districts)
        .with_buildings(size.buildings)
        .with_devices_per_building(size.devices)
        .with_aggregation(AggregationSpec::tumbling(60_000))
        .with_federation(FederationSpec::sharded(size.shards))
        .build()
}

/// A seeded sub-area: a 2×2 block of the district's building grid, so
/// every seed queries the same amount of data. Buildings sit on a grid
/// 0.001° × 0.0012° apart with at most 2e-4° of jitter, so a 1e-4°
/// margin around the block's four buildings takes in no other building.
fn sub_area(rng: &mut DeterministicRng, scenario: &Scenario, district: usize) -> BoundingBox {
    let buildings = &scenario.districts[district].buildings;
    let grid = (buildings.len() as f64).sqrt().ceil() as usize;
    assert!(
        grid >= 2 && buildings.len() >= grid * 2,
        "the grid holds a 2x2 block"
    );
    let row = rng.next_bounded((buildings.len() / grid - 1) as u64) as usize;
    let col = rng.next_bounded((grid - 1) as u64) as usize;
    let block = [0, 1, grid, grid + 1].map(|i| &buildings[row * grid + col + i].location);
    BoundingBox::around(block)
        .expect("four buildings")
        .expanded(1e-4)
}

/// One area, queried by a JSON and an XML client.
struct Area {
    district: usize,
    bbox: BoundingBox,
    json: NodeId,
    xml: NodeId,
}

pub fn run(cfg: &RunCfg) -> Rep {
    let size = size(cfg.scale);
    let mut setup = Setup::default();

    let t = Instant::now();
    let scenario = scenario(cfg.seed, &size);
    let mut rng = DeterministicRng::seed_from(cfg.seed ^ 0xA4EA);
    let bboxes: Vec<(usize, BoundingBox)> = (0..size.districts)
        .flat_map(|d| std::iter::repeat_n(d, AREAS_PER_DISTRICT))
        .map(|d| (d, sub_area(&mut rng, &scenario, d)))
        .collect();
    setup.scenario_s = secs(t);

    let t = Instant::now();
    let mut host = Host::new(cfg.seed, size.shards, cfg.threads, cfg.traced);
    let deployment = Deployment::build_on(&mut host, &scenario);
    let epoch = scenario.config.epoch_offset_millis;
    let window = (epoch - WINDOW_BEFORE_MILLIS, epoch + WINDOW_AFTER_MILLIS);
    let first = SimTime::ZERO + FIRST_QUERY;
    let until = first + size.period * size.rounds;
    let clients = AREAS_PER_DISTRICT * 2 + 1;
    let stagger = |slot: usize| {
        FIRST_QUERY + SimDuration::from_nanos(size.period.as_nanos() * slot as u64 / clients as u64)
    };
    let mut areas = Vec::new();
    let mut profiles = Vec::new();
    for (i, &(d, bbox)) in bboxes.iter().enumerate() {
        let home = deployment.districts[d].broker.shard();
        let district = scenario.districts[d].district.clone();
        let mut place = |format: DataFormat, slot: usize| {
            let client = ClientNode::new(ClientConfig {
                master: deployment.master,
                district: district.clone(),
                bbox,
                data_window_millis: Some(window),
                period: None,
                format,
            });
            host.place_node(
                home,
                format!("client-{i}-{}", format.as_str()),
                OpenLoop::new(client, stagger(slot), size.period, until),
            )
        };
        let slot = (i % AREAS_PER_DISTRICT) * 2;
        let json = place(DataFormat::Json, slot);
        let xml = place(DataFormat::Xml, slot + 1);
        areas.push(Area {
            district: d,
            bbox,
            json,
            xml,
        });
    }
    for (d, dd) in deployment.districts.iter().enumerate() {
        let client = ProfileClientNode::new(ProfileConfig {
            master: deployment.master,
            district: dd.district.clone(),
            quantity: PROFILE_QUANTITY,
            window_millis: None,
            range: (epoch, epoch + 3_600_000),
        });
        profiles.push(host.place_node(
            dd.broker.shard(),
            format!("profile-{d}"),
            OpenLoop::new(client, stagger(clients - 1), size.period, until),
        ));
    }
    setup.deploy_s = secs(t);

    let mut out = Outcome::default();
    let t = Instant::now();
    let sealed = preload(&mut host, &scenario, &deployment);
    setup.preload_s = secs(t);
    out.require(sealed, || {
        "preloaded history is not all in sealed segments".to_owned()
    });

    let t = Instant::now();
    let registered = ingest::register(&mut host, &deployment);
    setup.register_s = secs(t);
    out.require(registered && host.sim.now() < first, || {
        "proxies did not all register before the first query".to_owned()
    });

    let start = host.sim.now();
    let end = until + DRAIN;
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

    let (work, latencies_ns) = check(
        &host, &scenario, &areas, &profiles, window, cfg.defect, &mut out,
    );
    // Every query window read sealed history and live head points.
    let spans = deployment.device_proxies().all(|p| {
        let store = host.node::<DeviceProxyNode>(p).store();
        let (mut history, mut live) = (0, 0);
        for series in store.series_names() {
            store.for_each_in(series, window.0, window.1, |t, _| {
                if t < epoch {
                    history += 1;
                } else {
                    live += 1;
                }
            });
        }
        history > 0 && live > 0 && store.stats().head_points > 0
    });
    out.require(spans, || {
        "a query window does not span sealed history and the live head".to_owned()
    });

    let mut counts = BTreeMap::new();
    layers::sim_counts(&host, &deployment.brokers, &mut counts);
    ingest::proxy_counts(&host, &scenario, &deployment, &mut counts);
    let client_ids: Vec<NodeId> = areas
        .iter()
        .flat_map(|a| [a.json, a.xml])
        .chain(profiles.iter().copied())
        .collect();
    counts.insert(
        "core.body_bytes",
        layers::bytes_received(&host, &client_ids),
    );
    let (mut requests, mut errors, mut done) = (0, 0, 0);
    for a in &areas {
        for id in [a.json, a.xml] {
            for s in host.node::<OpenLoop<ClientNode>>(id).inner.snapshots() {
                requests += s.requests;
                errors += s.errors;
                done += 1;
            }
        }
    }
    for &p in &profiles {
        for s in host
            .node::<OpenLoop<ProfileClientNode>>(p)
            .inner
            .snapshots()
        {
            requests += s.requests;
            errors += s.errors;
            done += 1;
        }
    }
    counts.insert(
        "district.requests_per_query",
        requests as f64 / f64::from(done.max(1)),
    );
    counts.insert("district.errors", errors as f64);

    let mut timings = BTreeMap::new();
    if cfg.traced {
        layers::trace_timings(&host, &slices, &mut timings);
        layers::replay_wire(&host, &mut timings);
        layers::replay_incr(&host, &mut timings);
        layers::replay_ws_bodies(&host, &mut timings);
        replay_reads(&host, &scenario, &deployment, &areas, window, &mut timings);
    }
    Rep {
        setup,
        run_s,
        sim_s: end.saturating_since(start).as_secs_f64(),
        work,
        latencies_ns,
        outcome: out,
        counts,
        timings,
        flight_digest: host.sim.flight_digest(),
        barrier_stall_ns: host.sim.stats().barrier_stall_ns,
    }
}

/// Writes each Device-proxy's history through the public store API,
/// seals all of it and runs one maintenance pass, which compacts the
/// segments. Live samples, all at or after the epoch, then land in the
/// mutable head. Returns whether every history point was sealed.
fn preload(host: &mut Host, scenario: &Scenario, deployment: &Deployment) -> bool {
    let epoch = scenario.config.epoch_offset_millis;
    let specs = scenario
        .districts
        .iter()
        .flat_map(|d| d.buildings.iter().flat_map(|b| b.devices.iter()));
    let proxies: Vec<NodeId> = deployment.device_proxies().collect();
    let mut sealed = true;
    for (spec, proxy) in specs.zip(proxies) {
        let mut profile =
            EnergyProfile::for_quantity(spec.quantity, 0x9E1A ^ u64::from(spec.address));
        let store = host
            .host_node_mut::<DeviceProxyNode>(proxy)
            .expect("placed")
            .store_mut();
        let mut t = epoch - HISTORY_MILLIS;
        while t < epoch {
            store.insert(spec.quantity.as_str(), t, profile.sample(t));
            t += HISTORY_STEP_MILLIS;
        }
        store.seal_all();
        store.maintain();
        let st = store.stats();
        sealed &= st.head_points == 0 && st.sealed_points > 0;
    }
    sealed
}

/// The entity and device ids of the scenario inside `bbox`.
fn expected(
    scenario: &Scenario,
    district: usize,
    bbox: &BoundingBox,
) -> (BTreeSet<String>, BTreeSet<String>) {
    let d = &scenario.districts[district];
    let mut entities = BTreeSet::new();
    let mut devices = BTreeSet::new();
    for b in d.buildings.iter().filter(|b| bbox.contains(&b.location)) {
        entities.insert(b.building.as_str().to_owned());
        devices.extend(b.devices.iter().map(|s| s.device.as_str().to_owned()));
    }
    for n in d.networks.iter().filter(|n| bbox.contains(&n.location)) {
        entities.insert(n.network.as_str().to_owned());
    }
    (entities, devices)
}

/// Measurements of a snapshot in a canonical order.
fn sorted_measurements(s: &AreaSnapshot) -> Vec<String> {
    let mut v: Vec<String> = s
        .measurements
        .iter()
        .map(|m| format!("{:?}", m.to_value()))
        .collect();
    v.sort();
    v
}

/// Checks every snapshot; returns the completed queries and their
/// sorted due→complete latencies.
fn check(
    host: &Host,
    scenario: &Scenario,
    areas: &[Area],
    profiles: &[NodeId],
    window: (i64, i64),
    defect: Option<Defect>,
    out: &mut Outcome,
) -> (u64, Vec<u64>) {
    let mut latencies = Vec::new();
    let mut drop_entity = defect == Some(Defect::DropEntity);
    let mut drop_point = defect == Some(Defect::DropPoint);
    for a in areas {
        let (want_entities, want_devices) = expected(scenario, a.district, &a.bbox);
        let json = &host.node::<OpenLoop<ClientNode>>(a.json);
        let xml = &host.node::<OpenLoop<ClientNode>>(a.xml);
        let mut answers = [json, xml].map(|c| {
            c.inner
                .snapshots()
                .iter()
                .map(sorted_measurements)
                .collect::<Vec<_>>()
        });
        if let Some(p) = answers[0].first_mut().filter(|_| drop_point) {
            p.pop();
            drop_point = false;
        }
        for (client, answers) in [json, xml].into_iter().zip(&answers) {
            out.attempted += client.issued;
            out.fail(
                client
                    .issued
                    .saturating_sub(client.inner.snapshots().len() as u64),
                format!(
                    "{} of {} area queries never completed",
                    client.issued - client.inner.snapshots().len() as u64,
                    client.issued
                ),
            );
            for (s, points) in client.inner.snapshots().iter().zip(answers) {
                latencies.push(s.latency().as_nanos());
                let mut entities: BTreeSet<String> = s.entities.keys().cloned().collect();
                if drop_entity {
                    entities.pop_first();
                    drop_entity = false;
                }
                let resolved: BTreeSet<String> = s
                    .resolution
                    .entities
                    .iter()
                    .map(|e| e.id().to_owned())
                    .collect();
                let devices: BTreeSet<String> = s
                    .resolution
                    .devices
                    .iter()
                    .map(|d| d.device().as_str().to_owned())
                    .collect();
                // Every point the proxies hold in the window came back.
                let stored: usize = s
                    .resolution
                    .devices
                    .iter()
                    .filter_map(|d| uri_node(d.proxy()).map(|p| (d, p)))
                    .map(|(d, p)| {
                        host.node::<DeviceProxyNode>(p)
                            .store()
                            .range(d.quantity().as_str(), window.0, window.1)
                            .len()
                    })
                    .sum();
                let ok = s.errors == 0
                    && entities == want_entities
                    && resolved == want_entities
                    && devices == want_devices;
                out.require(ok, || {
                    format!(
                        "area query at {:?}: {} errors, entities {entities:?} / {resolved:?} vs {want_entities:?}, devices {} vs {}",
                        s.started_at,
                        s.errors,
                        devices.len(),
                        want_devices.len(),
                    )
                });
                out.require(stored > 0 && points.len() == stored, || {
                    format!(
                        "area query at {:?}: {} of {stored} stored points returned",
                        s.started_at,
                        points.len()
                    )
                });
            }
        }
        // JSON and XML answers to the same query decode to equal values.
        let (js, xs) = (json.inner.snapshots(), xml.inner.snapshots());
        out.require(js.len() == xs.len(), || {
            format!("{} JSON vs {} XML snapshots", js.len(), xs.len())
        });
        for ((j, x), (jp, xp)) in js.iter().zip(xs).zip(answers[0].iter().zip(&answers[1])) {
            out.require(j.entities == x.entities && jp == xp, || {
                format!(
                    "JSON and XML answers differ for the query due at {:?}",
                    j.started_at
                )
            });
        }
    }
    for &p in profiles {
        let client = host.node::<OpenLoop<ProfileClientNode>>(p);
        out.attempted += client.issued;
        out.fail(
            client
                .issued
                .saturating_sub(client.inner.snapshots().len() as u64),
            "profile queries never completed".to_owned(),
        );
        for s in client.inner.snapshots() {
            latencies.push(s.latency().as_nanos());
            out.require(s.errors == 0 && s.aggregator.is_some(), || {
                format!("profile query at {:?}: {} errors", s.started_at, s.errors)
            });
        }
    }
    latencies.sort_unstable();
    (latencies.len() as u64, latencies)
}

/// Replays the read path of every completed area query: the master's
/// `resolve_area` and each device fetch's tskv range.
fn replay_reads(
    host: &Host,
    scenario: &Scenario,
    deployment: &Deployment,
    areas: &[Area],
    window: (i64, i64),
    timings: &mut BTreeMap<&'static str, f64>,
) {
    let master = host.node::<MasterNode>(deployment.master);
    let mut resolves: Vec<(DistrictId, BoundingBox)> = Vec::new();
    let mut ranges: Vec<(NodeId, QuantityKind)> = Vec::new();
    for a in areas {
        for id in [a.json, a.xml] {
            for s in host.node::<OpenLoop<ClientNode>>(id).inner.snapshots() {
                resolves.push((scenario.districts[a.district].district.clone(), a.bbox));
                ranges.extend(
                    s.resolution
                        .devices
                        .iter()
                        .filter_map(|d| uri_node(d.proxy()).map(|p| (p, d.quantity()))),
                );
            }
        }
    }
    let ns = layers::time_ns(|| {
        for (district, bbox) in &resolves {
            std::hint::black_box(master.ontology().resolve_area(district, bbox).is_ok());
        }
    });
    timings.insert("ontology.resolve_ns", ns);
    let stores: Vec<(&storage::tskv::TimeSeriesStore, QuantityKind)> = ranges
        .iter()
        .map(|&(p, q)| (host.node::<DeviceProxyNode>(p).store(), q))
        .collect();
    let ns = layers::time_ns(|| {
        for (store, q) in &stores {
            std::hint::black_box(store.range(q.as_str(), window.0, window.1));
        }
    });
    timings.insert("storage.range_ns", ns);
}
