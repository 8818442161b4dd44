//! Property suite for the wire codec ([`transmob_runtime::codec`]):
//! arbitrary frame streams must decode back to exactly the frames that
//! were encoded, a connection reset must reset the string table on
//! both sides, and truncated or garbage-suffixed streams must fail
//! cleanly — an error or end-of-stream, never a panic or a bogus
//! frame before the corruption point.

use proptest::prelude::*;
use transmob_broker::PubSubMsg;
use transmob_core::{
    ClientOp, ClientProfile, ClientSnapshot, Message, MoveMsg, ProtocolKind, SeenWindow,
};
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, Filter, MoveId, PubId, Publication, PublicationMsg,
    SubId, Subscription, Value,
};
use transmob_runtime::codec::{Frame, FrameDecoder, FrameEncoder, ReadError, WireMode};

const ATTRS: [&str; 4] = ["x", "y", "stock", "volume"];

/// Attribute names drawn from a small pool (so the interner sees
/// repeats) plus per-case variation (so it also sees fresh strings).
fn arb_name() -> impl Strategy<Value = String> {
    (0usize..ATTRS.len(), 0u32..4).prop_map(|(i, salt)| {
        if salt == 0 {
            format!("attr{i}")
        } else {
            ATTRS[i].to_string()
        }
    })
}

/// Floats stay at quarter-integers: finite (a NaN would never equal
/// its own decoding) and easy to read in a failing case.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-4000i64..4000).prop_map(|i| Value::Float(i as f64 * 0.25)),
        arb_name().prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_publication() -> impl Strategy<Value = Publication> {
    proptest::collection::vec((arb_name(), arb_value()), 0..5)
        .prop_map(|kv| kv.into_iter().collect())
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    proptest::collection::vec((0usize..ATTRS.len(), 0u8..5, -50i64..50), 1..4).prop_map(|specs| {
        specs
            .iter()
            .fold(Filter::builder(), |b, &(ai, kind, v)| {
                let a = ATTRS[ai];
                match kind {
                    0 => b.ge(a, v),
                    1 => b.le(a, v),
                    2 => b.eq(a, v),
                    3 => b.prefix(a, "al"),
                    _ => b.any(a),
                }
            })
            .build()
    })
}

fn arb_client() -> impl Strategy<Value = ClientId> {
    (0u64..8).prop_map(ClientId)
}

fn arb_pubsub() -> impl Strategy<Value = PubSubMsg> {
    prop_oneof![
        (arb_client(), 0u32..8, arb_filter()).prop_map(|(c, seq, f)| PubSubMsg::Advertise(
            Advertisement::new(AdvId::new(c, seq), f)
        )),
        (arb_client(), 0u32..8).prop_map(|(c, seq)| PubSubMsg::Unadvertise(AdvId::new(c, seq))),
        (arb_client(), 0u32..8, arb_filter())
            .prop_map(|(c, seq, f)| PubSubMsg::Subscribe(Subscription::new(SubId::new(c, seq), f))),
        (arb_client(), 0u32..8).prop_map(|(c, seq)| PubSubMsg::Unsubscribe(SubId::new(c, seq))),
        (0u64..1000, arb_client(), arb_publication())
            .prop_map(|(id, c, p)| PubSubMsg::Publish(PublicationMsg::new(PubId(id), c, p))),
    ]
}

fn arb_client_op() -> impl Strategy<Value = ClientOp> {
    prop_oneof![
        arb_filter().prop_map(ClientOp::Subscribe),
        (0u32..8).prop_map(ClientOp::Unsubscribe),
        arb_filter().prop_map(ClientOp::Advertise),
        (0u32..8).prop_map(ClientOp::Unadvertise),
        arb_publication().prop_map(ClientOp::Publish),
        Just(ClientOp::Pause),
        Just(ClientOp::Resume),
        (1u32..6).prop_map(|b| ClientOp::MoveTo(BrokerId(b), ProtocolKind::Reconfig)),
    ]
}

fn arb_snapshot() -> impl Strategy<Value = ClientSnapshot> {
    let pub_msg = (0u64..1000, 0u64..8, arb_publication())
        .prop_map(|(id, c, p)| PublicationMsg::new(PubId(id), ClientId(c), p));
    (
        proptest::collection::vec(pub_msg, 0..3),
        proptest::collection::vec((0u64..1000).prop_map(PubId), 0..4),
        proptest::collection::vec(arb_client_op(), 0..3),
        (0u32..9, 0u32..9, 0u32..9),
    )
        .prop_map(|(buffered, seen, queued_ops, next_seq)| ClientSnapshot {
            buffered,
            seen: SeenWindow::from_recent(&seen),
            queued_ops,
            next_seq,
        })
}

fn arb_profile() -> impl Strategy<Value = ClientProfile> {
    let sub = (arb_client(), 0u32..8, arb_filter())
        .prop_map(|(c, seq, f)| Subscription::new(SubId::new(c, seq), f));
    let adv = (arb_client(), 0u32..8, arb_filter())
        .prop_map(|(c, seq, f)| Advertisement::new(AdvId::new(c, seq), f));
    (
        proptest::collection::vec(sub, 0..3),
        proptest::collection::vec(adv, 0..3),
    )
        .prop_map(|(subs, advs)| ClientProfile { subs, advs })
}

/// A sample of the movement protocol (the per-variant exhaustive
/// round-trip lives with the `Wire` impl in `transmob-core`); the
/// heavyweight payload carriers matter most here.
fn arb_move() -> impl Strategy<Value = MoveMsg> {
    let ids = (0u64..100, 0u64..8, 1u32..6, 1u32..6);
    prop_oneof![
        (ids.clone(), arb_profile()).prop_map(|((m, c, s, t), profile)| MoveMsg::Negotiate {
            m: MoveId(m),
            client: ClientId(c),
            source: BrokerId(s),
            target: BrokerId(t),
            profile,
            protocol: ProtocolKind::Reconfig,
        }),
        (ids.clone(), arb_snapshot()).prop_map(|((m, c, s, t), snapshot)| MoveMsg::StateTransfer {
            m: MoveId(m),
            client: ClientId(c),
            source: BrokerId(s),
            target: BrokerId(t),
            snapshot,
        }),
        ids.prop_map(|(m, _, s, t)| MoveMsg::Ack {
            m: MoveId(m),
            source: BrokerId(s),
            target: BrokerId(t),
        }),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_pubsub().prop_map(Message::PubSub),
        arb_pubsub().prop_map(Message::PubSub),
        arb_pubsub().prop_map(Message::PubSub),
        arb_move().prop_map(Message::from),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    fn msg_frame() -> impl Strategy<Value = Frame> {
        (0u32..16, proptest::collection::vec(arb_message(), 0..6))
            .prop_map(|(from, msgs)| Frame::Msg { from, msgs })
    }
    prop_oneof![
        msg_frame(),
        msg_frame(),
        msg_frame(),
        msg_frame(),
        (0u32..16).prop_map(|from| Frame::Ping { from }),
    ]
}

/// Encodes `frames` on one connection-lifetime encoder, so later
/// frames lean on the string table built by earlier ones.
fn encode_stream(frames: &[Frame]) -> Vec<u8> {
    let mut enc = FrameEncoder::new(WireMode::Binary);
    let mut buf = Vec::new();
    for f in frames {
        buf.extend_from_slice(enc.encode(f).expect("encoding is total"));
    }
    buf
}

/// Decodes frames until end-of-stream or an error.
fn decode_stream(buf: &[u8]) -> (Vec<Frame>, Option<ReadError>) {
    let mut dec = FrameDecoder::new(WireMode::Binary);
    let mut r = buf;
    let mut out = Vec::new();
    loop {
        match dec.read_frame(&mut r) {
            Ok(Some(f)) => out.push(f),
            Ok(None) => return (out, None),
            Err(e) => return (out, Some(e)),
        }
    }
}

proptest! {
    /// For any frame stream, the bytes decode back to the frames that
    /// were encoded.
    #[test]
    fn decoded_frames_equal_the_encoded_ones(frames in proptest::collection::vec(arb_frame(), 1..8)) {
        let buf = encode_stream(&frames);
        let (decoded, err) = decode_stream(&buf);
        prop_assert!(err.is_none(), "clean stream errored: {err:?}");
        prop_assert_eq!(&decoded, &frames, "round-trip mismatch");
    }

    /// Redial contract: both sides replace their string tables on a
    /// fresh connection, so a stream re-encoded by a fresh encoder
    /// decodes with a fresh decoder — even though the same frames had
    /// already populated a previous connection's table.
    #[test]
    fn string_table_resets_with_the_connection(
        frames in proptest::collection::vec(arb_frame(), 1..6),
        cut in 0usize..6,
    ) {
        let cut = cut.min(frames.len());
        // First connection carries a prefix, fully interned.
        let mut enc = FrameEncoder::new(WireMode::Binary);
        for f in &frames[..cut] {
            enc.encode(f).expect("encoding is total");
        }
        // The link drops; the redialed connection re-sends everything
        // queued, through a fresh encoder, to a peer with a fresh
        // decoder — old table state must not leak in.
        let buf = encode_stream(&frames);
        let (decoded, err) = decode_stream(&buf);
        prop_assert!(err.is_none(), "redialed stream errored: {err:?}");
        prop_assert_eq!(&decoded, &frames);
    }

    /// Truncation at every byte boundary: the frames before the cut
    /// decode intact, the cut itself surfaces as corruption or clean
    /// end-of-stream — never a panic, never a wrong frame.
    #[test]
    fn truncation_is_detected_at_every_prefix(
        frames in proptest::collection::vec(arb_frame(), 1..4),
    ) {
        let buf = encode_stream(&frames);
        for cut in 0..buf.len() {
            let (decoded, _err) = decode_stream(&buf[..cut]);
            prop_assert!(
                decoded.len() <= frames.len()
                    && decoded == frames[..decoded.len()],
                "truncation at {cut} produced frames that were never sent"
            );
        }
    }

    /// A stream with garbage appended yields the real frames first;
    /// reading past them terminates (error, EOF, or — for genuinely
    /// frame-shaped garbage — bounded extra frames), without panics.
    #[test]
    fn garbage_suffix_never_panics(
        frames in proptest::collection::vec(arb_frame(), 1..4),
        garbage in proptest::collection::vec(any::<u8>(), 1..40),
    ) {
        let mut buf = encode_stream(&frames);
        buf.extend_from_slice(&garbage);
        let (decoded, _err) = decode_stream(&buf);
        prop_assert!(
            decoded.len() >= frames.len()
                && decoded[..frames.len()] == frames[..],
            "garbage suffix corrupted frames that arrived before it"
        );
    }
}
