//! The simulation host every workload builds on, and the traced run's
//! per-handler span recorder.
//!
//! Placement goes through the library's public [`SimHost`] hook, the same
//! one `district::deploy::Deployment::build_on` takes. In a traced run
//! the host wraps each placed node in a [`Traced`] recorder that times
//! every handler call and keeps the spans in memory; an untraced run
//! places the nodes as they are.

use std::any::TypeId;
use std::collections::BTreeMap;
use std::time::Instant;

use district::client::ClientNode;
use district::profile::ProfileClientNode;
use master::MasterNode;
use proxy::database_proxy::DatabaseProxyNode;
use proxy::device_proxy::DeviceProxyNode;
use proxy::devices::{CoapFieldNode, OpcUaFieldNode, UplinkDeviceNode};
use pubsub::BrokerNode;
use simnet::parallel::{ParallelConfig, ParallelSimulator};
use simnet::{Context, Node, NodeId, Packet, Port, SimHost, TimerTag};
use streams::AggregatorNode;

use crate::workload::OpenLoop;

/// The layer a node belongs to, named after the repository's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Radio devices and field servers (`protocols` encoders).
    Device,
    /// Device-proxies (`proxy::device_proxy`).
    DeviceProxy,
    /// Database-proxies (`proxy::database_proxy`).
    DatabaseProxy,
    /// Broker shards (`pubsub`).
    Broker,
    /// District aggregators (`streams`).
    Aggregator,
    /// The master node (`master`, `ontology`, `gis`).
    Master,
    /// End-user area and profile clients (`district`).
    Client,
    /// The benchmark's own load generators and subscribers.
    Bench,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Device,
        Layer::DeviceProxy,
        Layer::DatabaseProxy,
        Layer::Broker,
        Layer::Aggregator,
        Layer::Master,
        Layer::Client,
        Layer::Bench,
    ];

    fn of<N: 'static>() -> Layer {
        let t = TypeId::of::<N>();
        let is = |other: TypeId| t == other;
        if is(TypeId::of::<UplinkDeviceNode>())
            || is(TypeId::of::<OpcUaFieldNode>())
            || is(TypeId::of::<CoapFieldNode>())
        {
            Layer::Device
        } else if is(TypeId::of::<DeviceProxyNode>()) {
            Layer::DeviceProxy
        } else if is(TypeId::of::<DatabaseProxyNode>()) {
            Layer::DatabaseProxy
        } else if is(TypeId::of::<BrokerNode>()) {
            Layer::Broker
        } else if is(TypeId::of::<AggregatorNode>()) {
            Layer::Aggregator
        } else if is(TypeId::of::<MasterNode>()) {
            Layer::Master
        } else if is(TypeId::of::<OpenLoop<ClientNode>>())
            || is(TypeId::of::<OpenLoop<ProfileClientNode>>())
        {
            Layer::Client
        } else {
            Layer::Bench
        }
    }

    /// The port whose payloads a traced node keeps for the replays.
    fn capture_port(self) -> Option<Port> {
        match self {
            Layer::Broker | Layer::Bench => Some(pubsub::PUBSUB_PORT),
            Layer::DeviceProxy => Some(proxy::DEVICE_UPLINK_PORT),
            Layer::Client => Some(proxy::WS_PORT),
            _ => None,
        }
    }
}

/// One handler call: host start and end (ns since the run's origin) and
/// the flight-recorder trace id of the packet it handled (0 for timers,
/// starts and untraced packets). The parent run slice is assigned after
/// the run from the slice boundaries.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start_ns: u64,
    pub end_ns: u64,
    pub trace: u64,
}

/// Payloads a traced node received on its capture port, packed into one
/// buffer.
#[derive(Debug, Default)]
pub struct Capture {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Capture {
    fn push(&mut self, payload: &[u8]) {
        self.bytes.extend_from_slice(payload);
        self.ends.push(self.bytes.len());
    }

    /// The captured payloads in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let slice = &self.bytes[start..end];
            start = end;
            slice
        })
    }
}

/// What a traced node recorded.
#[derive(Debug)]
pub struct Recorder {
    pub layer: Layer,
    origin: Instant,
    pub spans: Vec<Span>,
    pub capture: Capture,
}

impl Recorder {
    #[inline]
    fn close(&mut self, start: Instant, trace: u64) {
        let end = Instant::now();
        self.spans.push(Span {
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            trace,
        });
    }
}

/// A wrapper node recording one span per handler call of `inner`.
pub struct Traced<N> {
    pub inner: N,
    pub rec: Recorder,
}

impl<N: Node> Node for Traced<N> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        self.rec.close(t0, 0);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if self.rec.layer.capture_port() == Some(pkt.port) {
            self.rec.capture.push(&pkt.payload);
        }
        let trace = pkt.trace;
        let t0 = Instant::now();
        self.inner.on_packet(ctx, pkt);
        self.rec.close(t0, trace);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        let t0 = Instant::now();
        self.inner.on_timer(ctx, tag);
        self.rec.close(t0, 0);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        let t0 = Instant::now();
        self.inner.on_restart(ctx);
        self.rec.close(t0, 0);
    }
}

type RecorderOf = fn(&ParallelSimulator, NodeId) -> Option<&Recorder>;

fn recorder_of<N: Node>(sim: &ParallelSimulator, id: NodeId) -> Option<&Recorder> {
    sim.node_ref::<Traced<N>>(id).map(|t| &t.rec)
}

/// The sharded simulator plus, in a traced run, the recorders' registry.
pub struct Host {
    pub sim: ParallelSimulator,
    traced: Option<(Instant, BTreeMap<NodeId, RecorderOf>)>,
}

impl Host {
    pub fn new(seed: u64, shards: usize, threads: usize, traced: bool) -> Self {
        Host {
            sim: ParallelSimulator::new(ParallelConfig {
                seed,
                shards,
                threads,
                ..ParallelConfig::default()
            }),
            traced: traced.then(|| (Instant::now(), BTreeMap::new())),
        }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Option<Instant> {
        self.traced.as_ref().map(|(origin, _)| *origin)
    }

    /// Borrows a placed node, looking through its recorder.
    pub fn node<N: Node>(&self, id: NodeId) -> &N {
        let node = if self.traced.is_some() {
            self.sim.node_ref::<Traced<N>>(id).map(|t| &t.inner)
        } else {
            self.sim.node_ref::<N>(id)
        };
        node.unwrap_or_else(|| panic!("node {id} has another type"))
    }

    /// Every recorder of a traced run (empty when untraced).
    pub fn recorders(&self) -> Vec<&Recorder> {
        let Some((_, nodes)) = &self.traced else {
            return Vec::new();
        };
        nodes
            .iter()
            .map(|(&id, get)| get(&self.sim, id).expect("placed traced"))
            .collect()
    }

    /// The recorder of one node of a traced run.
    pub fn recorder(&self, id: NodeId) -> Option<&Recorder> {
        let (_, nodes) = self.traced.as_ref()?;
        nodes.get(&id).and_then(|get| get(&self.sim, id))
    }
}

impl SimHost for Host {
    fn host_shards(&self) -> usize {
        self.sim.shard_count()
    }

    fn place_node<N: Node>(&mut self, shard: usize, name: String, node: N) -> NodeId {
        let shard = shard % self.sim.shard_count();
        match &mut self.traced {
            None => self.sim.add_node_on(shard, name, node),
            Some((origin, nodes)) => {
                let rec = Recorder {
                    layer: Layer::of::<N>(),
                    origin: *origin,
                    spans: Vec::new(),
                    capture: Capture::default(),
                };
                let id = self
                    .sim
                    .add_node_on(shard, name, Traced { inner: node, rec });
                nodes.insert(id, recorder_of::<N>);
                id
            }
        }
    }

    fn host_node_mut<N: Node>(&mut self, id: NodeId) -> Option<&mut N> {
        if self.traced.is_some() {
            self.sim.node_mut::<Traced<N>>(id).map(|t| &mut t.inner)
        } else {
            self.sim.node_mut::<N>(id)
        }
    }
}
