//! Randomized tests on topics, filters, the subscription trie and the
//! wire codec, driven by `simnet::rng::DeterministicRng` (reproducible,
//! no external property-testing dependency).

use pubsub::{BridgeFrame, QoS, SubscriptionTrie, Topic, TopicFilter, WirePacketRef};
use simnet::rng::DeterministicRng;

const CASES: usize = 512;

fn segment(rng: &mut DeterministicRng) -> String {
    let chars = b"abcxyz0189";
    let len = rng.next_range(1, 6) as usize;
    (0..len)
        .map(|_| chars[rng.next_bounded(chars.len() as u64) as usize] as char)
        .collect()
}

fn rand_topic(rng: &mut DeterministicRng) -> Topic {
    let n = rng.next_range(1, 5);
    let segs: Vec<String> = (0..n).map(|_| segment(rng)).collect();
    Topic::new(segs.join("/")).expect("valid by construction")
}

/// A filter with random segments, `+` wildcards, and maybe a trailing `#`.
fn rand_filter(rng: &mut DeterministicRng) -> TopicFilter {
    let n = rng.next_range(1, 5);
    let mut parts: Vec<String> = (0..n)
        .map(|_| {
            if rng.next_bounded(3) == 0 {
                "+".to_owned()
            } else {
                segment(rng)
            }
        })
        .collect();
    if rng.chance(0.5) {
        parts.push("#".to_owned());
    }
    TopicFilter::new(parts.join("/")).expect("valid by construction")
}

fn any_text(rng: &mut DeterministicRng, max_len: usize) -> String {
    let len = rng.next_bounded(max_len as u64 + 1) as usize;
    (0..len)
        .filter_map(|_| char::from_u32(rng.next_bounded(0x500) as u32))
        .collect()
}

#[test]
fn every_topic_matches_itself_and_hash() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0001);
    for _ in 0..CASES {
        let topic = rand_topic(&mut rng);
        let exact: TopicFilter = topic.clone().into();
        assert!(exact.matches(&topic));
        assert!(TopicFilter::new("#").expect("valid").matches(&topic));
    }
}

#[test]
fn trie_agrees_with_linear_matching() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0002);
    for _ in 0..CASES / 4 {
        let filters: Vec<TopicFilter> = (0..rng.next_bounded(24))
            .map(|_| rand_filter(&mut rng))
            .collect();
        let mut trie = SubscriptionTrie::new();
        for (i, f) in filters.iter().enumerate() {
            trie.insert(f, i);
        }
        for _ in 0..rng.next_range(1, 7) {
            let topic = rand_topic(&mut rng);
            let mut from_trie: Vec<usize> = trie.matches(&topic).into_iter().copied().collect();
            let mut linear: Vec<usize> = filters
                .iter()
                .enumerate()
                .filter(|(_, f)| f.matches(&topic))
                .map(|(i, _)| i)
                .collect();
            from_trie.sort_unstable();
            linear.sort_unstable();
            assert_eq!(from_trie, linear, "topic {topic}");
        }
    }
}

#[test]
fn trie_insert_remove_is_identity() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0003);
    for _ in 0..CASES / 4 {
        let filters: Vec<TopicFilter> = (0..rng.next_range(1, 15))
            .map(|_| rand_filter(&mut rng))
            .collect();
        let topic = rand_topic(&mut rng);
        let mut trie = SubscriptionTrie::new();
        for (i, f) in filters.iter().enumerate() {
            trie.insert(f, i);
        }
        let before: Vec<usize> = trie.matches(&topic).into_iter().copied().collect();
        // Insert and remove a sentinel under every filter.
        for f in &filters {
            trie.insert(f, usize::MAX);
        }
        for f in &filters {
            assert!(trie.remove(f, &usize::MAX));
        }
        let after: Vec<usize> = trie.matches(&topic).into_iter().copied().collect();
        assert_eq!(before, after);
        assert_eq!(trie.len(), filters.len());
    }
}

#[test]
fn remove_where_removes_exactly_the_predicate() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0004);
    for _ in 0..CASES / 4 {
        let filter = rand_filter(&mut rng);
        let values: Vec<usize> = (0..rng.next_range(1, 9))
            .map(|_| rng.next_bounded(10) as usize)
            .collect();
        let mut trie = SubscriptionTrie::new();
        for &v in &values {
            trie.insert(&filter, v);
        }
        let evens = values.iter().filter(|v| *v % 2 == 0).count();
        let removed = trie.remove_where(&filter, |v| v % 2 == 0);
        assert_eq!(removed, evens);
        assert_eq!(trie.len(), values.len() - evens);
    }
}

#[test]
fn wire_packets_round_trip() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0005);
    for _ in 0..CASES {
        let payload: Vec<u8> = (0..rng.next_bounded(256))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let topic = rand_topic(&mut rng);
        let packet = WirePacketRef::Publish {
            id: rng.next_u64(),
            topic: (&topic).into(),
            payload: &payload,
            retain: rng.chance(0.5),
            qos: QoS::AtLeastOnce,
            trace: rng.next_u64(),
            span: rng.next_u64(),
        };
        assert_eq!(
            WirePacketRef::decode(&packet.encode()).expect("round trip"),
            packet
        );
    }
}

#[test]
fn wire_decoder_never_panics() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0006);
    for _ in 0..CASES {
        let bytes: Vec<u8> = (0..rng.next_bounded(128))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let _ = WirePacketRef::decode(&bytes);
    }
}

#[test]
fn grammar_rejections_never_panic() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0007);
    for _ in 0..CASES {
        let text = any_text(&mut rng, 32);
        let _ = Topic::new(text.clone());
        let _ = TopicFilter::new(text);
    }
}

/// A random district-flavoured or free-form topic.
fn rand_district_topic(rng: &mut DeterministicRng, districts: &[String]) -> Topic {
    if rng.chance(0.7) {
        let d = &districts[rng.next_bounded(districts.len() as u64) as usize];
        let tail: Vec<String> = (0..rng.next_range(1, 4)).map(|_| segment(rng)).collect();
        Topic::new(format!("district/{d}/{}", tail.join("/"))).expect("valid by construction")
    } else {
        rand_topic(rng)
    }
}

#[test]
fn shard_routing_is_a_partition() {
    use pubsub::ShardMap;
    let mut rng = DeterministicRng::seed_from(0x50B0_0008);
    for _ in 0..CASES {
        let shards = rng.next_range(1, 8) as usize;
        let mut map = ShardMap::new(shards);
        let districts: Vec<String> = (0..rng.next_range(1, 12))
            .map(|_| segment(&mut rng))
            .collect();
        for d in &districts {
            // Some districts are explicitly assigned, some hash-routed.
            if rng.chance(0.6) {
                map.assign(d.clone(), rng.next_bounded(shards as u64) as usize);
            }
        }
        for _ in 0..16 {
            let topic = rand_district_topic(&mut rng, &districts);
            // Total: every topic has an owner, and it is in range.
            let owner = map.owner(&topic);
            assert!(owner < shards, "{topic}: owner {owner} of {shards}");
            // A function: asking twice gives the same owner — so shard
            // ownership partitions the topic space (each topic in
            // exactly one shard).
            assert_eq!(owner, map.owner(&topic), "{topic}: deterministic");
            // District topics route on the district alone: any sibling
            // topic in the same district has the same owner.
            if let Some(d) = ShardMap::district_of(&topic) {
                let sibling = Topic::new(format!("district/{d}/{}", segment(&mut rng)))
                    .expect("valid by construction");
                assert_eq!(owner, map.owner(&sibling), "{topic} vs {sibling}");
            }
        }
    }
}

#[test]
fn bridge_batch_frames_round_trip() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0009);
    for _ in 0..CASES {
        let frames: Vec<BridgeFrame> = (0..rng.next_bounded(12))
            .map(|_| BridgeFrame {
                topic: rand_topic(&mut rng),
                payload: (0..rng.next_bounded(64))
                    .map(|_| rng.next_u64() as u8)
                    .collect(),
                retain: rng.chance(0.3),
                qos: if rng.chance(0.5) {
                    QoS::AtLeastOnce
                } else {
                    QoS::AtMostOnce
                },
                trace: rng.next_u64(),
                span: rng.next_u64(),
            })
            .collect();
        let packet = WirePacketRef::BridgeBatch {
            incarnation: rng.next_u64(),
            batch_id: rng.next_u64(),
            frames: frames.iter().map(BridgeFrame::view).collect(),
        };
        assert_eq!(
            WirePacketRef::decode(&packet.encode()).expect("round trip"),
            packet
        );
    }
}

// ---------------------------------------------------------------------
// The wire codec over random packets of every variant: encode and
// decode are inverse, every truncation is rejected, and random byte
// flips never panic the decoder.
// ---------------------------------------------------------------------

fn rand_qos(rng: &mut DeterministicRng) -> QoS {
    if rng.chance(0.5) {
        QoS::AtLeastOnce
    } else {
        QoS::AtMostOnce
    }
}

fn rand_payload(rng: &mut DeterministicRng, max: u64) -> Vec<u8> {
    (0..rng.next_bounded(max))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

fn rand_frame(rng: &mut DeterministicRng) -> BridgeFrame {
    BridgeFrame {
        topic: rand_topic(rng),
        payload: rand_payload(rng, 128),
        retain: rng.chance(0.3),
        qos: rand_qos(rng),
        trace: rng.next_u64(),
        span: rng.next_u64(),
    }
}

/// Owned random material that a packet view borrows from.
struct Parts {
    filter: TopicFilter,
    path: String,
    /// `frames[0]` supplies the topic and payload of single-publish
    /// variants (and the ops body); `frames[1..]` fill a bridge batch.
    frames: Vec<BridgeFrame>,
}

fn rand_parts(rng: &mut DeterministicRng) -> Parts {
    Parts {
        filter: rand_filter(rng),
        path: format!("/{}", segment(rng)),
        frames: (0..rng.next_range(1, 9)).map(|_| rand_frame(rng)).collect(),
    }
}

/// A random wire packet over `parts`, drawing uniformly from all 15
/// variants.
fn rand_packet<'a>(rng: &mut DeterministicRng, parts: &'a Parts) -> WirePacketRef<'a> {
    let filter = (&parts.filter).into();
    let first = &parts.frames[0];
    match rng.next_bounded(15) {
        0 => WirePacketRef::Subscribe {
            filter,
            qos: rand_qos(rng),
        },
        1 => WirePacketRef::Unsubscribe { filter },
        2 => WirePacketRef::Publish {
            id: rng.next_u64(),
            topic: (&first.topic).into(),
            payload: &first.payload,
            retain: rng.chance(0.5),
            qos: rand_qos(rng),
            trace: rng.next_u64(),
            span: rng.next_u64(),
        },
        3 => WirePacketRef::PubAck { id: rng.next_u64() },
        4 => WirePacketRef::Deliver {
            id: rng.next_u64(),
            topic: (&first.topic).into(),
            payload: &first.payload,
            qos: rand_qos(rng),
            trace: rng.next_u64(),
            span: rng.next_u64(),
        },
        5 => WirePacketRef::DeliverAck { id: rng.next_u64() },
        6 => WirePacketRef::Ping,
        7 => WirePacketRef::Pong {
            incarnation: rng.next_u64(),
        },
        8 => WirePacketRef::BridgeAdvertise {
            incarnation: rng.next_u64(),
            filter,
            qos: rand_qos(rng),
        },
        9 => WirePacketRef::BridgeUnadvertise {
            incarnation: rng.next_u64(),
            filter,
        },
        10 => WirePacketRef::BridgeBatch {
            incarnation: rng.next_u64(),
            batch_id: rng.next_u64(),
            frames: parts.frames[1..].iter().map(BridgeFrame::view).collect(),
        },
        11 => WirePacketRef::BridgeBatchAck {
            batch_id: rng.next_u64(),
        },
        12 => WirePacketRef::BridgeHello {
            incarnation: rng.next_u64(),
        },
        13 => WirePacketRef::OpsGet {
            id: rng.next_u64(),
            path: &parts.path,
        },
        _ => WirePacketRef::OpsReply {
            id: rng.next_u64(),
            status: if rng.chance(0.7) { 200 } else { 404 },
            body: &first.payload,
        },
    }
}

#[test]
fn every_variant_round_trips() {
    let mut rng = DeterministicRng::seed_from(0x50B0_000A);
    for _ in 0..CASES * 2 {
        let parts = rand_parts(&mut rng);
        let packet = rand_packet(&mut rng, &parts);
        let bytes = packet.encode();
        let decoded = WirePacketRef::decode(&bytes).expect("encoder output decodes");
        assert_eq!(decoded, packet, "round-trip mismatch");
        assert_eq!(decoded.encode(), bytes, "re-encode is not the identity");
    }
}

#[test]
fn truncation_at_every_cut_point_is_rejected() {
    let mut rng = DeterministicRng::seed_from(0x50B0_000B);
    for _ in 0..CASES / 4 {
        let parts = rand_parts(&mut rng);
        let packet = rand_packet(&mut rng, &parts);
        let bytes = packet.encode();
        for cut in 0..bytes.len() {
            assert!(
                WirePacketRef::decode(&bytes[..cut]).is_err(),
                "decoder accepted a {cut}-byte prefix of {packet:?}"
            );
        }
    }
}

#[test]
fn byte_flip_fuzz_never_panics() {
    let mut rng = DeterministicRng::seed_from(0x50B0_000C);
    for _ in 0..CASES * 2 {
        let parts = rand_parts(&mut rng);
        let mut bytes = rand_packet(&mut rng, &parts).encode();
        // Flip 1..=3 random bits; the result may still be a valid packet
        // (e.g. a payload byte changed) — what matters is that the
        // decoder returns a verdict instead of panicking.
        for _ in 0..rng.next_range(1, 4) {
            let i = rng.next_bounded(bytes.len() as u64) as usize;
            bytes[i] ^= 1 << rng.next_bounded(8);
        }
        let _ = WirePacketRef::decode(&bytes);
    }
}
