//! The middleware broker node.

use std::collections::HashMap;

use simnet::batch::PushOutcome;
use simnet::{Context, Node, Packet as NetPacket, SimDuration, TimerTag};

use crate::federation::{
    FederationConfig, FederationState, BATCH_MAX_RETRIES, BATCH_RETRY_BIT, BATCH_RETRY_TIMEOUT,
    FLUSH_TIMER_BIT,
};
use crate::topic::SubscriptionTrie;
use crate::wire::{BridgeFrame, BridgeFrameRef, PacketRef, QoS};
use crate::{BridgeStats, Topic, TopicFilter, TopicRef};

/// How long the broker waits before redelivering an unacked QoS 1
/// message.
const RETRY_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// How many redeliveries before a QoS 1 message is dropped.
const MAX_RETRIES: u32 = 3;
/// Default bound on the unacked QoS 1 delivery table. At capacity a new
/// QoS 1 delivery degrades to at-most-once (sent once, never retried)
/// instead of growing the table without limit; override with
/// [`BrokerNode::set_pending_capacity`].
pub const DEFAULT_PENDING_CAPACITY: usize = 65_536;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Subscription {
    node: simnet::NodeId,
    qos: QoS,
}

#[derive(Debug)]
struct PendingDelivery {
    to: simnet::NodeId,
    bytes: Vec<u8>,
    retries_left: u32,
    trace: u64,
}

/// Per-QoS local subscriber counts for one filter: drives bridge
/// advertisement (advertise while any local subscriber remains, withdraw
/// on the last unsubscribe, re-advertise after a peer restart).
#[derive(Debug)]
struct AdvertRefs {
    filter: TopicFilter,
    at_most: usize,
    at_least: usize,
}

impl AdvertRefs {
    fn total(&self) -> usize {
        self.at_most + self.at_least
    }

    fn strongest(&self) -> QoS {
        if self.at_least > 0 {
            QoS::AtLeastOnce
        } else {
            QoS::AtMostOnce
        }
    }
}

/// Pre-rendered labeled metric names. A federation runs many brokers in
/// one simulation; unlabeled counters would silently aggregate across
/// all of them, so a labeled broker emits `<name>.<label>` next to every
/// global `<name>` counter (the globals stay, for single-broker
/// deployments and existing dashboards/tests).
#[derive(Debug)]
struct LabeledNames {
    publish: String,
    deliver: String,
    ack: String,
    subscribe: String,
    retry: String,
    drop: String,
    decode_error: String,
    restart: String,
    pending: String,
    queue_shed: String,
    fanout: String,
    bridge_batch_sent: String,
    bridge_frame_forward: String,
    bridge_frame_recv: String,
    bridge_duplicate: String,
    bridge_retry: String,
    bridge_drop: String,
    retained_gauge: String,
    bridge_buffered: String,
    bridge_inflight: String,
}

impl LabeledNames {
    fn new(label: &str) -> Self {
        let n = |name: &str| format!("{name}.{label}");
        LabeledNames {
            publish: n("pubsub.publish"),
            deliver: n("pubsub.deliver"),
            ack: n("pubsub.ack"),
            subscribe: n("pubsub.subscribe"),
            retry: n("pubsub.retry"),
            drop: n("pubsub.drop"),
            decode_error: n("pubsub.decode_error"),
            restart: n("pubsub.broker_restart"),
            pending: n("pubsub.pending_deliveries"),
            queue_shed: n("pubsub.queue_shed"),
            fanout: n("pubsub.fanout"),
            bridge_batch_sent: n("pubsub.bridge.batch_sent"),
            bridge_frame_forward: n("pubsub.bridge.frame_forward"),
            bridge_frame_recv: n("pubsub.bridge.frame_recv"),
            bridge_duplicate: n("pubsub.bridge.duplicate"),
            bridge_retry: n("pubsub.bridge.retry"),
            bridge_drop: n("pubsub.bridge.drop"),
            retained_gauge: n("pubsub.retained"),
            bridge_buffered: n("pubsub.bridge.buffered"),
            bridge_inflight: n("pubsub.bridge.inflight"),
        }
    }
}

/// Counters the broker exposes for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Publish packets received.
    pub published: u64,
    /// Deliver packets sent (including retries).
    pub delivered: u64,
    /// QoS 1 deliveries acknowledged.
    pub acked: u64,
    /// QoS 1 redelivery attempts.
    pub retries: u64,
    /// QoS 1 deliveries abandoned after retry exhaustion (or wiped by a
    /// broker restart).
    pub dropped: u64,
    /// QoS 1 deliveries degraded to at-most-once because the unacked
    /// table was at capacity (a subset of `dropped`).
    pub queue_shed: u64,
    /// Topics currently retained.
    pub retained: u64,
    /// QoS 1 deliveries enqueued for acknowledgement. At any instant the
    /// conservation invariant `qos1_enqueued == acked + dropped +
    /// pending_deliveries()` holds.
    pub qos1_enqueued: u64,
    /// Malformed wire packets received and discarded.
    pub decode_errors: u64,
}

/// A SEEMPubS-style broker running as a [`simnet::Node`].
///
/// Clients talk to it on [`PUBSUB_PORT`](crate::PUBSUB_PORT) with
/// [`WirePacketRef`](crate::WirePacketRef)s; the [`PubSubClient`](crate::PubSubClient)
/// helper wraps that protocol.
///
/// A broker can run standalone (the default, exactly the paper's single
/// entry point) or as one shard of a federation — see
/// [`BrokerNode::federate`] and the [`federation`](crate::federation)
/// module.
#[derive(Debug, Default)]
pub struct BrokerNode {
    subscriptions: SubscriptionTrie<Subscription>,
    /// topic text → (topic, last retained payload, trace id, span).
    ///
    /// Keeping the trace id means a late subscriber's retained delivery
    /// still shows up in the flight recorder as part of the original
    /// publication's journey — without it, samples replayed across a
    /// broker restart would look lost even though they arrived. The span
    /// likewise parents the late delivery under the original publish in
    /// the causal span tree.
    retained: HashMap<String, (Topic, Vec<u8>, u64, u64)>,
    pending: HashMap<u64, PendingDelivery>,
    next_delivery_id: u64,
    /// Bumped on every restart; clients learn it via Ping/Pong and use a
    /// change to detect that their subscriptions were wiped.
    incarnation: u64,
    stats: BrokerStats,
    /// Bound on the unacked QoS 1 delivery table; `None` means
    /// [`DEFAULT_PENDING_CAPACITY`].
    pending_capacity: Option<usize>,
    /// Filter text → live local subscriber refcounts (advertisement
    /// bookkeeping; empty while not federated).
    advert_refs: HashMap<String, AdvertRefs>,
    labels: Option<LabeledNames>,
    federation: Option<FederationState>,
}

impl BrokerNode {
    /// Creates an empty broker.
    pub fn new() -> Self {
        BrokerNode::default()
    }

    /// Creates an empty broker whose telemetry counters additionally
    /// carry `label` (e.g. `pubsub.publish.b2`), so per-broker rates
    /// stay distinguishable inside a federation.
    pub fn with_label(label: impl AsRef<str>) -> Self {
        BrokerNode {
            labels: Some(LabeledNames::new(label.as_ref())),
            ..BrokerNode::default()
        }
    }

    /// Makes this broker one shard of a federation. Call before the
    /// simulation starts (the deployment wires every member with the
    /// same shard map and broker list).
    pub fn federate(&mut self, config: FederationConfig) {
        self.federation = Some(FederationState::new(config));
    }

    /// Current counters.
    pub fn stats(&self) -> BrokerStats {
        BrokerStats {
            retained: self.retained.len() as u64,
            ..self.stats
        }
    }

    /// Bridge-side counters (all zero while not federated).
    pub fn bridge_stats(&self) -> BridgeStats {
        self.federation
            .as_ref()
            .map(|f| f.stats)
            .unwrap_or_default()
    }

    /// Bridge frames buffered in per-peer batchers, not yet sent.
    pub fn bridge_buffered(&self) -> usize {
        self.federation
            .as_ref()
            .map_or(0, FederationState::buffered_frames)
    }

    /// Bridge frames sent and awaiting a batch acknowledgement.
    pub fn bridge_in_flight(&self) -> usize {
        self.federation
            .as_ref()
            .map_or(0, FederationState::in_flight_frames)
    }

    /// The broker's incarnation number (restarts survived).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len()
    }

    /// Number of QoS 1 deliveries awaiting acknowledgement.
    pub fn pending_deliveries(&self) -> usize {
        self.pending.len()
    }

    /// Overrides the bound on the unacked QoS 1 delivery table (default
    /// [`DEFAULT_PENDING_CAPACITY`]).
    pub fn set_pending_capacity(&mut self, capacity: usize) {
        self.pending_capacity = Some(capacity);
    }

    fn incr(&self, ctx: &mut Context<'_>, global: &str, pick: impl Fn(&LabeledNames) -> &String) {
        ctx.telemetry().metrics.incr(global);
        if let Some(l) = &self.labels {
            ctx.telemetry().metrics.incr(pick(l));
        }
    }

    fn gauge_pending(&self, ctx: &mut Context<'_>) {
        let v = self.pending.len() as f64;
        ctx.telemetry()
            .metrics
            .set_gauge("pubsub.pending_deliveries", v);
        if let Some(l) = &self.labels {
            ctx.telemetry().metrics.set_gauge(&l.pending, v);
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the Deliver wire frame field for field
    fn deliver(
        &mut self,
        ctx: &mut Context<'_>,
        to: simnet::NodeId,
        topic: TopicRef<'_>,
        payload: &[u8],
        qos: QoS,
        trace: u64,
        parent_span: u64,
    ) {
        let id = self.next_delivery_id;
        self.next_delivery_id += 1;
        let span = if trace != 0 {
            ctx.span_hop(
                "broker.deliver",
                trace,
                parent_span,
                format!("to={to} topic={topic}"),
            )
        } else {
            0
        };
        // Encode straight from the borrowed view: the topic and payload
        // are never materialized, only serialized.
        let bytes = PacketRef::Deliver {
            id,
            topic,
            payload,
            qos,
            trace,
            span,
        }
        .encode();
        self.incr(ctx, "pubsub.deliver", |l| &l.deliver);
        ctx.send_spanned(to, crate::PUBSUB_PORT, bytes.clone(), trace, span);
        self.stats.delivered += 1;
        if qos == QoS::AtLeastOnce {
            self.stats.qos1_enqueued += 1;
            let capacity = self.pending_capacity.unwrap_or(DEFAULT_PENDING_CAPACITY);
            if self.pending.len() >= capacity {
                // The unacked table is the broker's memory bound: past
                // it the delivery degrades to at-most-once — sent once
                // above, never retried — and is counted dropped right
                // away, so `qos1_enqueued == acked + dropped + pending`
                // survives overload.
                self.stats.dropped += 1;
                self.stats.queue_shed += 1;
                self.incr(ctx, "pubsub.queue_shed", |l| &l.queue_shed);
                return;
            }
            self.pending.insert(
                id,
                PendingDelivery {
                    to,
                    bytes,
                    retries_left: MAX_RETRIES,
                    trace,
                },
            );
            self.gauge_pending(ctx);
            ctx.set_timer(RETRY_TIMEOUT, TimerTag(id));
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the Publish wire frame field for field
    fn on_publish(
        &mut self,
        ctx: &mut Context<'_>,
        from: simnet::NodeId,
        id: u64,
        topic: TopicRef<'_>,
        payload: &[u8],
        retain: bool,
        qos: QoS,
        trace: u64,
        span: u64,
    ) {
        self.stats.published += 1;
        self.incr(ctx, "pubsub.publish", |l| &l.publish);
        let pub_span = if trace != 0 {
            ctx.span_hop(
                "broker.publish",
                trace,
                span,
                format!("from={from} topic={topic}"),
            )
        } else {
            0
        };
        if qos == QoS::AtLeastOnce {
            ctx.send(from, crate::PUBSUB_PORT, PacketRef::PubAck { id }.encode());
        }
        if retain {
            if payload.is_empty() {
                self.retained.remove(topic.as_str());
            } else {
                // Retention outlives the packet: the one place a plain
                // publish materializes its topic and payload.
                self.retained.insert(
                    topic.as_str().to_owned(),
                    (topic.to_topic(), payload.to_vec(), trace, pub_span),
                );
            }
        }
        self.fan_out(ctx, topic, payload, qos, trace, pub_span);
        self.forward_to_peers(ctx, topic, payload, retain, qos, trace, pub_span);
    }

    /// Delivers a publish to every matching local subscriber. Delivery
    /// spans parent under `span` (the local publish or bridge-deliver
    /// hop).
    fn fan_out(
        &mut self,
        ctx: &mut Context<'_>,
        topic: TopicRef<'_>,
        payload: &[u8],
        qos: QoS,
        trace: u64,
        span: u64,
    ) {
        let targets: Vec<Subscription> = self
            .subscriptions
            .matches_str(topic.as_str())
            .into_iter()
            .cloned()
            .collect();
        ctx.telemetry()
            .metrics
            .observe("pubsub.fanout", targets.len() as f64);
        if let Some(l) = &self.labels {
            ctx.telemetry()
                .metrics
                .observe(&l.fanout, targets.len() as f64);
        }
        for sub in targets {
            // Effective delivery guarantee: the weaker of the two ends.
            let effective = if qos == QoS::AtLeastOnce && sub.qos == QoS::AtLeastOnce {
                QoS::AtLeastOnce
            } else {
                QoS::AtMostOnce
            };
            self.deliver(ctx, sub.node, topic, payload, effective, trace, span);
        }
    }

    /// Queues a locally received publish for every peer broker with a
    /// matching advertised filter. Frames ride per-peer batchers; a full
    /// batcher flushes inline, otherwise the age timer does.
    #[allow(clippy::too_many_arguments)] // mirrors the bridge frame field for field
    fn forward_to_peers(
        &mut self,
        ctx: &mut Context<'_>,
        topic: TopicRef<'_>,
        payload: &[u8],
        retain: bool,
        qos: QoS,
        trace: u64,
        span: u64,
    ) {
        let Some(fed) = &self.federation else {
            return;
        };
        let mut peers: Vec<usize> = fed
            .remote_subs
            .matches_str(topic.as_str())
            .into_iter()
            .map(|rs| rs.peer)
            .collect();
        peers.sort_unstable();
        peers.dedup();
        for peer in peers {
            let fwd_span = if trace != 0 {
                ctx.span_hop(
                    "bridge.forward",
                    trace,
                    span,
                    format!("peer={peer} topic={topic}"),
                )
            } else {
                0
            };
            self.incr(ctx, "pubsub.bridge.frame_forward", |l| {
                &l.bridge_frame_forward
            });
            // The batcher retains the frame until the peer acks its
            // batch: the designed ownership boundary of the borrowed
            // publish path.
            let frame = BridgeFrame {
                topic: topic.to_topic(),
                payload: payload.to_vec(),
                retain,
                qos,
                trace,
                span: fwd_span,
            };
            self.enqueue_frame(ctx, peer, frame);
        }
    }

    /// Pushes one frame onto a peer's batcher and acts on the outcome.
    fn enqueue_frame(&mut self, ctx: &mut Context<'_>, peer: usize, frame: BridgeFrame) {
        let Some(fed) = &mut self.federation else {
            return;
        };
        fed.stats.frames_enqueued += 1;
        let cost = frame.topic.as_str().len() + frame.payload.len() + 18;
        let max_age = fed.config.batch.max_age;
        match fed.batchers[peer].push(frame, cost) {
            PushOutcome::Flush => self.flush_peer(ctx, peer),
            PushOutcome::ArmTimer => {
                ctx.set_timer(max_age, TimerTag(FLUSH_TIMER_BIT | peer as u64));
            }
            PushOutcome::Buffered => {}
        }
    }

    /// Cuts the accumulated batch for `peer` and puts it on the wire,
    /// tracked for retransmission until acknowledged.
    fn flush_peer(&mut self, ctx: &mut Context<'_>, peer: usize) {
        let incarnation = self.incarnation;
        let Some(fed) = &mut self.federation else {
            return;
        };
        // An open peer breaker holds the batch back: frames stay
        // buffered (conservation intact) and the age timer keeps
        // re-attempting, so the half-open probe happens naturally.
        if !fed.breakers[peer].allow(ctx.now(), &ctx.telemetry().metrics) {
            if !fed.batchers[peer].is_empty() {
                let max_age = fed.config.batch.max_age;
                ctx.set_timer(max_age, TimerTag(FLUSH_TIMER_BIT | peer as u64));
            }
            return;
        }
        let frames = fed.batchers[peer].take();
        if frames.is_empty() {
            return; // age timer raced a size flush
        }
        let batch_id = fed.next_batch_id;
        fed.next_batch_id += 1;
        // Serialize from borrowed views; the ledger below keeps the
        // encoded bytes, which retries resend as they are.
        let bytes = PacketRef::BridgeBatch {
            incarnation,
            batch_id,
            frames: frames.iter().map(BridgeFrame::view).collect(),
        }
        .encode();
        let dst = fed.config.brokers[peer];
        fed.stats.batches_sent += 1;
        ctx.telemetry()
            .metrics
            .observe("pubsub.bridge.batch_frames", frames.len() as f64);
        fed.pending.insert(
            batch_id,
            crate::federation::PendingBatch {
                peer,
                bytes: bytes.clone(),
                frame_count: frames.len(),
                retries_left: BATCH_MAX_RETRIES,
                sent_at: ctx.now(),
            },
        );
        ctx.send(dst, crate::PUBSUB_PORT, bytes);
        ctx.set_timer(BATCH_RETRY_TIMEOUT, TimerTag(BATCH_RETRY_BIT | batch_id));
        self.incr(ctx, "pubsub.bridge.batch_sent", |l| &l.bridge_batch_sent);
    }

    /// Sends `BridgeHello` to every peer (start and restart), so peers
    /// learn this broker's incarnation without waiting for traffic.
    fn send_hello(&mut self, ctx: &mut Context<'_>) {
        let incarnation = self.incarnation;
        let Some(fed) = &self.federation else {
            return;
        };
        let bytes = PacketRef::BridgeHello { incarnation }.encode();
        for peer in fed.peer_shards() {
            ctx.send(fed.config.brokers[peer], crate::PUBSUB_PORT, bytes.clone());
        }
    }

    /// Observes `incarnation` from `peer`. Returns `false` for frames
    /// from a dead incarnation (the caller drops them). A *newer*
    /// incarnation means the peer restarted: everything it advertised
    /// and every batch id it ever sent died with it, and it needs our
    /// advertisements again.
    fn note_peer_incarnation(
        &mut self,
        ctx: &mut Context<'_>,
        peer: usize,
        incarnation: u64,
    ) -> bool {
        let Some(fed) = &mut self.federation else {
            return false;
        };
        let known = fed.peer_incarnation[peer];
        if incarnation < known {
            return false;
        }
        if incarnation > known {
            fed.peer_incarnation[peer] = incarnation;
            fed.seen_batches[peer].clear();
            let filters: Vec<TopicFilter> = fed.peer_filters[peer].values().cloned().collect();
            for f in &filters {
                fed.remote_subs.remove_where(f, |rs| rs.peer == peer);
            }
            fed.peer_filters[peer].clear();
            ctx.telemetry().metrics.incr("pubsub.bridge.peer_restart");
            self.readvertise_to(ctx, peer);
        }
        true
    }

    /// Re-sends every live local filter advertisement to one peer.
    fn readvertise_to(&mut self, ctx: &mut Context<'_>, peer: usize) {
        let incarnation = self.incarnation;
        let Some(fed) = &self.federation else {
            return;
        };
        let dst = fed.config.brokers[peer];
        for r in self.advert_refs.values() {
            let bytes = PacketRef::BridgeAdvertise {
                incarnation,
                filter: (&r.filter).into(),
                qos: r.strongest(),
            }
            .encode();
            ctx.send(dst, crate::PUBSUB_PORT, bytes);
        }
    }

    /// Applies one bridged publish locally: mirror retained state, fan
    /// out to local subscribers. Never re-forwarded — the federation is
    /// a full mesh and every publish crosses at most one bridge hop,
    /// which is what makes duplicate delivery impossible.
    fn apply_bridge_frame(&mut self, ctx: &mut Context<'_>, frame: BridgeFrameRef<'_>) {
        let BridgeFrameRef {
            topic,
            payload,
            retain,
            qos,
            trace,
            span,
        } = frame;
        let bd_span = if trace != 0 {
            ctx.span_hop("bridge.deliver", trace, span, format!("topic={topic}"))
        } else {
            0
        };
        self.incr(ctx, "pubsub.bridge.frame_recv", |l| &l.bridge_frame_recv);
        if retain {
            if payload.is_empty() {
                self.retained.remove(topic.as_str());
            } else {
                if let Some((_, existing, ..)) = self.retained.get(topic.as_str()) {
                    if existing.as_slice() == payload {
                        // A mirror of a retained message we already hold
                        // (e.g. two peers answered the same advertise):
                        // local subscribers have seen it, don't re-fan.
                        return;
                    }
                }
                // Mirroring retained state outlives the batch packet:
                // the one materialization point on the bridge path.
                self.retained.insert(
                    topic.as_str().to_owned(),
                    (topic.to_topic(), payload.to_vec(), trace, bd_span),
                );
            }
        }
        self.fan_out(ctx, topic, payload, qos, trace, bd_span);
    }

    fn on_subscribe(
        &mut self,
        ctx: &mut Context<'_>,
        from: simnet::NodeId,
        filter: TopicFilter,
        qos: QoS,
    ) {
        self.incr(ctx, "pubsub.subscribe", |l| &l.subscribe);
        self.subscriptions
            .insert(&filter, Subscription { node: from, qos });
        let refs = self
            .advert_refs
            .entry(filter.as_str().to_owned())
            .or_insert_with(|| AdvertRefs {
                filter: filter.clone(),
                at_most: 0,
                at_least: 0,
            });
        match qos {
            QoS::AtMostOnce => refs.at_most += 1,
            QoS::AtLeastOnce => refs.at_least += 1,
        }
        let strongest = refs.strongest();
        self.advertise(ctx, &filter, strongest);
        // Hand the new subscriber any retained messages it now matches,
        // under the original publication's trace id and span.
        let matching: Vec<(Topic, Vec<u8>, u64, u64)> = self
            .retained
            .values()
            .filter(|(topic, ..)| filter.matches(topic))
            .cloned()
            .collect();
        for (topic, payload, trace, span) in matching {
            self.deliver(
                ctx,
                from,
                TopicRef::from(&topic),
                &payload,
                qos,
                trace,
                span,
            );
        }
    }

    /// Tells every peer this broker wants publishes matching `filter`.
    /// Idempotent at the receiver (it replaces any previous entry for
    /// this broker and filter), so it doubles as a QoS upgrade path.
    fn advertise(&mut self, ctx: &mut Context<'_>, filter: &TopicFilter, qos: QoS) {
        let incarnation = self.incarnation;
        let Some(fed) = &self.federation else {
            return;
        };
        let bytes = PacketRef::BridgeAdvertise {
            incarnation,
            filter: filter.into(),
            qos,
        }
        .encode();
        for peer in fed.peer_shards() {
            ctx.send(fed.config.brokers[peer], crate::PUBSUB_PORT, bytes.clone());
        }
    }

    fn on_unsubscribe(&mut self, ctx: &mut Context<'_>, from: simnet::NodeId, filter: TopicFilter) {
        // Remove every subscription this node holds on the filter,
        // counting per QoS so the advertisement refcounts stay exact.
        let (mut gone_most, mut gone_least) = (0usize, 0usize);
        self.subscriptions.remove_where(&filter, |sub| {
            if sub.node == from {
                match sub.qos {
                    QoS::AtMostOnce => gone_most += 1,
                    QoS::AtLeastOnce => gone_least += 1,
                }
                true
            } else {
                false
            }
        });
        if gone_most + gone_least == 0 {
            return;
        }
        let Some(refs) = self.advert_refs.get_mut(filter.as_str()) else {
            return;
        };
        refs.at_most = refs.at_most.saturating_sub(gone_most);
        refs.at_least = refs.at_least.saturating_sub(gone_least);
        if refs.total() == 0 {
            self.advert_refs.remove(filter.as_str());
            let incarnation = self.incarnation;
            if let Some(fed) = &self.federation {
                let bytes = PacketRef::BridgeUnadvertise {
                    incarnation,
                    filter: (&filter).into(),
                }
                .encode();
                for peer in fed.peer_shards() {
                    ctx.send(fed.config.brokers[peer], crate::PUBSUB_PORT, bytes.clone());
                }
            }
        } else {
            // Possibly downgraded (last QoS 1 subscriber left): refresh.
            let strongest = refs.strongest();
            self.advertise(ctx, &filter, strongest);
        }
    }

    fn on_bridge_advertise(
        &mut self,
        ctx: &mut Context<'_>,
        peer: usize,
        incarnation: u64,
        filter: TopicFilter,
        qos: QoS,
    ) {
        if !self.note_peer_incarnation(ctx, peer, incarnation) {
            return;
        }
        let retained_reply: Vec<BridgeFrame>;
        {
            let Some(fed) = &mut self.federation else {
                return;
            };
            fed.remote_subs.remove_where(&filter, |rs| rs.peer == peer);
            fed.remote_subs
                .insert(&filter, crate::federation::RemoteSub { peer, qos });
            fed.peer_filters[peer].insert(filter.as_str().to_owned(), filter.clone());
            // Answer with any retained messages the peer's new filter
            // matches, so its late subscribers see retained state that
            // lives on this side of the bridge.
            retained_reply = self
                .retained
                .values()
                .filter(|(topic, ..)| filter.matches(topic))
                .map(|(topic, payload, trace, span)| BridgeFrame {
                    topic: topic.clone(),
                    payload: payload.clone(),
                    retain: true,
                    qos,
                    trace: *trace,
                    span: *span,
                })
                .collect();
        }
        for frame in retained_reply {
            self.enqueue_frame(ctx, peer, frame);
        }
    }

    fn on_bridge_batch(
        &mut self,
        ctx: &mut Context<'_>,
        src: simnet::NodeId,
        peer: usize,
        incarnation: u64,
        batch_id: u64,
        frames: &[BridgeFrameRef<'_>],
    ) {
        if !self.note_peer_incarnation(ctx, peer, incarnation) {
            return; // dead incarnation; its sender no longer waits
        }
        // Always acknowledge — also for duplicates, whose original ack
        // was evidently lost or outrun by the retry timer.
        ctx.send(
            src,
            crate::PUBSUB_PORT,
            PacketRef::BridgeBatchAck { batch_id }.encode(),
        );
        {
            let Some(fed) = &mut self.federation else {
                return;
            };
            fed.stats.batches_received += 1;
            if !fed.seen_batches[peer].insert(batch_id) {
                fed.stats.duplicate_batches += 1;
                self.incr(ctx, "pubsub.bridge.duplicate", |l| &l.bridge_duplicate);
                return;
            }
            fed.stats.frames_received += frames.len() as u64;
        }
        for frame in frames {
            self.apply_bridge_frame(ctx, *frame);
        }
    }

    fn on_batch_retry(&mut self, ctx: &mut Context<'_>, batch_id: u64) {
        let mut drop_count = 0u64;
        let mut resend: Option<(simnet::NodeId, Vec<u8>)> = None;
        {
            let Some(fed) = &mut self.federation else {
                return;
            };
            let Some(pending) = fed.pending.get_mut(&batch_id) else {
                return; // acked in time
            };
            if pending.retries_left == 0 {
                let dead = fed.pending.remove(&batch_id).expect("present");
                drop_count = dead.frame_count as u64;
                fed.stats.frames_dropped += drop_count;
                fed.breakers[dead.peer].record_failure(ctx.now(), &ctx.telemetry().metrics);
            } else {
                // Each expired retry timer is one failed transmission in
                // the peer breaker's window.
                let peer = pending.peer;
                pending.retries_left -= 1;
                pending.sent_at = ctx.now();
                fed.stats.retries += 1;
                resend = Some((fed.config.brokers[peer], pending.bytes.clone()));
                fed.breakers[peer].record_failure(ctx.now(), &ctx.telemetry().metrics);
            }
        }
        if drop_count > 0 {
            self.incr(ctx, "pubsub.bridge.drop", |l| &l.bridge_drop);
            return;
        }
        if let Some((dst, bytes)) = resend {
            ctx.send(dst, crate::PUBSUB_PORT, bytes);
            ctx.set_timer(BATCH_RETRY_TIMEOUT, TimerTag(BATCH_RETRY_BIT | batch_id));
            self.incr(ctx, "pubsub.bridge.retry", |l| &l.bridge_retry);
        }
    }

    /// Refreshes this broker's occupancy gauges (retained topics, QoS 1
    /// in-flight, bridge batcher/ledger depths) so a scrape sees current
    /// backpressure, not the state at the last mutation.
    fn refresh_scrape_gauges(&self, ctx: &mut Context<'_>) {
        let m = &ctx.telemetry().metrics;
        m.set_gauge("pubsub.retained", self.retained.len() as f64);
        m.set_gauge("pubsub.pending_deliveries", self.pending.len() as f64);
        if let Some(l) = &self.labels {
            m.set_gauge(&l.retained_gauge, self.retained.len() as f64);
            m.set_gauge(&l.pending, self.pending.len() as f64);
        }
        if let Some(fed) = &self.federation {
            m.set_gauge("pubsub.bridge.buffered", fed.buffered_frames() as f64);
            m.set_gauge("pubsub.bridge.inflight", fed.in_flight_frames() as f64);
            if let Some(l) = &self.labels {
                m.set_gauge(&l.bridge_buffered, fed.buffered_frames() as f64);
                m.set_gauge(&l.bridge_inflight, fed.in_flight_frames() as f64);
            }
        }
    }

    /// Serves one ops-plane document over the pub/sub port. Returns an
    /// HTTP-style status and a body.
    fn serve_ops(&mut self, ctx: &mut Context<'_>, path: &str) -> (u16, Vec<u8>) {
        self.refresh_scrape_gauges(ctx);
        match path {
            "/metrics" => (200, ctx.telemetry().exposition().into_bytes()),
            "/health" => {
                let body = format!(
                    "{{\"status\":\"up\",\"incarnation\":{},\"subscriptions\":{},\
                     \"pending_deliveries\":{},\"retained\":{},\
                     \"bridge_buffered\":{},\"bridge_in_flight\":{}}}",
                    self.incarnation,
                    self.subscriptions.len(),
                    self.pending.len(),
                    self.retained.len(),
                    self.bridge_buffered(),
                    self.bridge_in_flight(),
                );
                (200, body.into_bytes())
            }
            _ => (404, Vec::new()),
        }
    }

    /// Resolves the shard index of a packet's source, when the source is
    /// a federation peer. Bridge frames from anyone else are ignored.
    fn peer_of(&self, src: simnet::NodeId) -> Option<usize> {
        let fed = self.federation.as_ref()?;
        let idx = *fed.peer_index.get(&src)?;
        (idx != fed.config.index).then_some(idx)
    }
}

impl Node for BrokerNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.send_hello(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: NetPacket) {
        // Borrowed decode: the hot variants (Publish, BridgeBatch) are
        // handled without copying topics or payloads out of the receive
        // buffer; cold control packets materialize at their `to_*` call.
        let Ok(packet) = PacketRef::decode(&pkt.payload) else {
            // Malformed traffic is dropped, as a real broker would — but
            // counted, so a misbehaving client is visible in the stats.
            self.stats.decode_errors += 1;
            self.incr(ctx, "pubsub.decode_error", |l| &l.decode_error);
            return;
        };
        match packet {
            PacketRef::Subscribe { filter, qos } => {
                self.on_subscribe(ctx, pkt.src, filter.to_filter(), qos)
            }
            PacketRef::Unsubscribe { filter } => {
                self.on_unsubscribe(ctx, pkt.src, filter.to_filter())
            }
            PacketRef::Publish {
                id,
                topic,
                payload,
                retain,
                qos,
                trace,
                span,
            } => self.on_publish(ctx, pkt.src, id, topic, payload, retain, qos, trace, span),
            PacketRef::DeliverAck { id } => {
                if self.pending.remove(&id).is_some() {
                    self.stats.acked += 1;
                    self.incr(ctx, "pubsub.ack", |l| &l.ack);
                    self.gauge_pending(ctx);
                }
            }
            PacketRef::Ping => {
                ctx.send(
                    pkt.src,
                    crate::PUBSUB_PORT,
                    PacketRef::Pong {
                        incarnation: self.incarnation,
                    }
                    .encode(),
                );
            }
            PacketRef::BridgeAdvertise {
                incarnation,
                filter,
                qos,
            } => {
                if let Some(peer) = self.peer_of(pkt.src) {
                    self.on_bridge_advertise(ctx, peer, incarnation, filter.to_filter(), qos);
                }
            }
            PacketRef::BridgeUnadvertise {
                incarnation,
                filter,
            } => {
                if let Some(peer) = self.peer_of(pkt.src) {
                    if self.note_peer_incarnation(ctx, peer, incarnation) {
                        if let Some(fed) = &mut self.federation {
                            let filter = filter.to_filter();
                            fed.remote_subs.remove_where(&filter, |rs| rs.peer == peer);
                            fed.peer_filters[peer].remove(filter.as_str());
                        }
                    }
                }
            }
            PacketRef::BridgeBatch {
                incarnation,
                batch_id,
                frames,
            } => {
                if let Some(peer) = self.peer_of(pkt.src) {
                    self.on_bridge_batch(ctx, pkt.src, peer, incarnation, batch_id, &frames);
                }
            }
            PacketRef::BridgeBatchAck { batch_id } => {
                if let Some(fed) = &mut self.federation {
                    if let Some(done) = fed.pending.remove(&batch_id) {
                        fed.stats.frames_acked += done.frame_count as u64;
                        fed.breakers[done.peer].record_success(
                            ctx.now(),
                            ctx.now().saturating_since(done.sent_at),
                            &ctx.telemetry().metrics,
                        );
                    }
                }
            }
            PacketRef::BridgeHello { incarnation } => {
                if let Some(peer) = self.peer_of(pkt.src) {
                    self.note_peer_incarnation(ctx, peer, incarnation);
                }
            }
            PacketRef::OpsGet { id, path } => {
                let (status, body) = self.serve_ops(ctx, path);
                ctx.send(
                    pkt.src,
                    crate::PUBSUB_PORT,
                    PacketRef::OpsReply {
                        id,
                        status,
                        body: &body,
                    }
                    .encode(),
                );
            }
            PacketRef::PubAck { .. }
            | PacketRef::Deliver { .. }
            | PacketRef::Pong { .. }
            | PacketRef::OpsReply { .. } => {
                // Not broker-bound; ignore.
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        // The broker's session state is volatile: subscriptions, retained
        // messages and unacked deliveries die with the process. Wiped
        // QoS 1 deliveries count as dropped so the conservation invariant
        // (`qos1_enqueued == acked + dropped + pending`) survives the
        // restart. Lifetime counters and the delivery-id sequence are kept
        // so post-restart ids never collide with pre-crash ones.
        self.subscriptions = SubscriptionTrie::default();
        self.retained.clear();
        self.stats.dropped += self.pending.len() as u64;
        self.pending.clear();
        self.advert_refs.clear();
        self.incarnation += 1;
        if let Some(fed) = &mut self.federation {
            // Bridge state is volatile too: buffered and unacked frames
            // died with the process (counted dropped, keeping the bridge
            // conservation invariant), and everything learned about
            // peers is forgotten — their next frame re-teaches it.
            let lost = fed.buffered_frames() + fed.in_flight_frames();
            fed.stats.frames_dropped += lost as u64;
            for b in &mut fed.batchers {
                b.take();
            }
            fed.pending.clear();
            fed.remote_subs = SubscriptionTrie::new();
            for m in &mut fed.peer_filters {
                m.clear();
            }
            for s in &mut fed.seen_batches {
                s.clear();
            }
            for inc in &mut fed.peer_incarnation {
                *inc = 0;
            }
        }
        self.incr(ctx, "pubsub.broker_restart", |l| &l.restart);
        ctx.telemetry()
            .metrics
            .set_gauge("pubsub.pending_deliveries", 0.0);
        if let Some(l) = &self.labels {
            ctx.telemetry().metrics.set_gauge(&l.pending, 0.0);
        }
        // Tell peers about the new incarnation so they wipe our dead
        // advertisements and re-send theirs.
        self.send_hello(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        let id = tag.0;
        if id & BATCH_RETRY_BIT != 0 {
            self.on_batch_retry(ctx, id & !BATCH_RETRY_BIT);
            return;
        }
        if id & FLUSH_TIMER_BIT != 0 {
            self.flush_peer(ctx, (id & !FLUSH_TIMER_BIT) as usize);
            return;
        }
        let Some(pending) = self.pending.get_mut(&id) else {
            return; // already acked
        };
        if pending.retries_left == 0 {
            self.pending.remove(&id);
            self.stats.dropped += 1;
            self.incr(ctx, "pubsub.drop", |l| &l.drop);
            self.gauge_pending(ctx);
            return;
        }
        pending.retries_left -= 1;
        let (to, bytes, trace) = (pending.to, pending.bytes.clone(), pending.trace);
        ctx.send_traced(to, crate::PUBSUB_PORT, bytes, trace);
        self.stats.retries += 1;
        self.stats.delivered += 1;
        self.incr(ctx, "pubsub.retry", |l| &l.retry);
        ctx.set_timer(RETRY_TIMEOUT, TimerTag(id));
    }
}
