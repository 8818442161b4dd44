//! The JSON text and binary wire bytes of a publication, a stamped
//! publication, a client snapshot, a filter, a subscription, an
//! advertisement and a client profile, as recorded before publication
//! content and filter bodies moved behind shared pointers: brokers of
//! both kinds must keep understanding each other, and WAL records and
//! checkpoints keep their shape. A whole broker checkpoint is pinned as
//! the commit before `BrokerConfig` lost its `parallelism` field wrote
//! it.

use std::sync::Arc;

use proptest::prelude::*;
use transmob_broker::{Hop, PubSubMsg, Topology};
use transmob_core::{
    BrokerSnapshot, ClientOp, ClientProfile, ClientSnapshot, Message, MobileBroker,
    MobileBrokerConfig,
};
use transmob_pubsub::wire::{decode_one, encode_one, Wire};
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, Filter, Op, Predicate, PubId, Publication,
    PublicationMsg, SubId, Subscription,
};

const PUBLICATION_BYTES: &str = "0400046f70656e03010005707269636500f0010005726174696f01000000000000e03f000673796d626f6c020349424d";
const PUBLICATION_JSON: &str = r#"{"attrs":{"open":{"Bool":true},"price":{"Int":120},"ratio":{"Float":0.5},"symbol":{"Str":"IBM"}}}"#;

/// A numeric band, a string prefix, a `!=` exclusion and a presence
/// test, given out of attribute order.
const FILTER_BYTES: &str = "05000570726963650500140103010000000000205940000673796d626f6c07020249420006766f6c756d6501000000046f70656e060000";
const FILTER_JSON: &str = r#"{"predicates":[{"attr":"price","op":"Ge","value":{"Int":10}},{"attr":"price","op":"Le","value":{"Float":100.5}},{"attr":"symbol","op":"StrPrefix","value":{"Str":"IB"}},{"attr":"volume","op":"Neq","value":{"Int":0}},{"attr":"open","op":"Any","value":{"Int":0}}],"constraints":{"open":"Present","price":{"Num":{"interval":{"lo":{"Incl":10.0},"hi":{"Incl":100.5}},"excluded":[]}},"symbol":{"Str":{"interval":{"lo":"Unbounded","hi":"Unbounded"},"excluded":[],"prefixes":["IB"],"suffixes":[],"contains":[]}},"volume":{"Num":{"interval":{"lo":"Unbounded","hi":"Unbounded"},"excluded":[0.0]}}}}"#;
const ADV_FILTER_BYTES: &str = "0200057072696365050000000673796d626f6c00020349424d";
const ADV_FILTER_JSON: &str = r#"{"predicates":[{"attr":"price","op":"Ge","value":{"Int":0}},{"attr":"symbol","op":"Eq","value":{"Str":"IBM"}}],"constraints":{"price":{"Num":{"interval":{"lo":{"Incl":0.0},"hi":"Unbounded"},"excluded":[]}},"symbol":{"Str":{"interval":{"lo":{"Incl":"IBM"},"hi":{"Incl":"IBM"}},"excluded":[],"prefixes":[],"suffixes":[],"contains":[]}}}}"#;

/// The checkpoint of [`checkpointed_broker`] as the commit before this
/// one wrote it: its `BrokerConfig` still names a matcher layout.
const OLD_SNAPSHOT_JSON: &str = r#"{"core":{"id":2,"neighbors":[1,3],"srt":[[{"client":5,"seq":1},{"adv":{"id":{"client":5,"seq":1},"filter":{"predicates":[{"attr":"price","op":"Ge","value":{"Int":0}},{"attr":"symbol","op":"Eq","value":{"Str":"IBM"}}],"constraints":{"price":{"Num":{"interval":{"lo":{"Incl":0.0},"hi":"Unbounded"},"excluded":[]}},"symbol":{"Str":{"interval":{"lo":{"Incl":"IBM"},"hi":{"Incl":"IBM"}},"excluded":[],"prefixes":[],"suffixes":[],"contains":[]}}}},"ttl":null},"lasthop":{"Broker":1},"alt_lasthops":[],"sent_to":[3],"pending":null}]],"prt":[[{"client":7,"seq":0},{"sub":{"id":{"client":7,"seq":0},"filter":{"predicates":[{"attr":"price","op":"Ge","value":{"Int":100}}],"constraints":{"price":{"Num":{"interval":{"lo":{"Incl":100.0},"hi":"Unbounded"},"excluded":[]}}}}},"lasthop":{"Client":7},"alt_lasthops":[],"sent_to":[1],"pending":null}],[{"client":9,"seq":1},{"sub":{"id":{"client":9,"seq":1},"filter":{"predicates":[{"attr":"symbol","op":"Eq","value":{"Str":"IBM"}}],"constraints":{"symbol":{"Str":{"interval":{"lo":{"Incl":"IBM"},"hi":{"Incl":"IBM"}},"excluded":[],"prefixes":[],"suffixes":[],"contains":[]}}}}},"lasthop":{"Broker":3},"alt_lasthops":[],"sent_to":[1],"pending":null}]],"clients":[7],"config":{"sub_covering":"Off","adv_covering":"Off","conservative_release":false,"parallelism":{"shards":1,"workers":0},"multipath":false},"stats":{"handled":{"Advertise":1,"Subscribe":2},"anomalies":0,"reroutes":0},"pending_meta":[],"dedup":{"cur":[],"old":[],"cap":2048}},"clients":{"7":{"id":7,"state":"Started","subs":{"0":{"id":{"client":7,"seq":0},"filter":{"predicates":[{"attr":"price","op":"Ge","value":{"Int":100}}],"constraints":{"price":{"Num":{"interval":{"lo":{"Incl":100.0},"hi":"Unbounded"},"excluded":[]}}}}}},"advs":{},"next_sub_seq":1,"next_adv_seq":0,"next_pub_seq":0,"buffered":[],"buffered_ids":[],"seen":[],"queued_ops":[]}},"moves":{"src":[],"tgt":[],"path":[]},"next_move_seq":0,"topology":{"brokers":[1,2,3],"adjacency":{"1":[2],"2":[1,3],"3":[2]}}}"#;
/// What only the old writer put there; a reader skips it.
const OLD_LAYOUT_KEY: &str = r#""parallelism":{"shards":1,"workers":0},"#;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn publication() -> Publication {
    Publication::new()
        .with("symbol", "IBM")
        .with("price", 120)
        .with("ratio", 0.5)
        .with("open", true)
}

fn filter() -> Filter {
    Filter::builder()
        .ge("price", 10)
        .le("price", 100.5)
        .prefix("symbol", "IB")
        .ne("volume", 0)
        .any("open")
        .build()
}

fn subscription(seq: u32) -> Subscription {
    Subscription::new(SubId::new(ClientId(7), seq), filter())
}

fn advertisement() -> Advertisement {
    let f = Filter::builder().ge("price", 0).eq("symbol", "IBM").build();
    Advertisement::new(AdvId::new(ClientId(7), 1), f).with_ttl(5)
}

fn check<T>(value: &T, json: &str, bytes: &str)
where
    T: Wire + PartialEq + std::fmt::Debug + serde::Serialize + serde::de::DeserializeOwned,
{
    assert_eq!(serde_json::to_string(value).unwrap(), json);
    assert_eq!(&serde_json::from_str::<T>(json).unwrap(), value);
    let encoded = encode_one(value);
    assert_eq!(hex(&encoded), bytes);
    assert_eq!(&decode_one::<T>(&encoded).unwrap(), value);
}

#[test]
fn publication_encodings_are_pinned() {
    check(&publication(), PUBLICATION_JSON, PUBLICATION_BYTES);
    // A handle that shares its content encodes like one that does not.
    let p = publication();
    check(&p.clone(), PUBLICATION_JSON, PUBLICATION_BYTES);
}

#[test]
fn publication_msg_encodings_are_pinned() {
    let m = PublicationMsg::new(PubId((7 << 32) | 3), ClientId(7), publication());
    check(
        &m,
        &format!(r#"{{"id":30064771075,"publisher":7,"content":{PUBLICATION_JSON},"hops":0}}"#),
        &format!("838080807007{PUBLICATION_BYTES}00"),
    );
}

#[test]
fn client_snapshot_encodings_are_pinned() {
    let p = publication();
    let s = ClientSnapshot {
        buffered: vec![PublicationMsg::new(
            PubId((7 << 32) | 3),
            ClientId(7),
            p.clone(),
        )],
        // Recency order, not id order, is what travels.
        seen: vec![PubId(9), PubId(2), PubId(300)],
        queued_ops: vec![ClientOp::Publish(p), ClientOp::Pause],
        next_seq: (1, 2, 3),
    };
    check(
        &s,
        &format!(
            r#"{{"buffered":[{{"id":30064771075,"publisher":7,"content":{PUBLICATION_JSON},"hops":0}}],"seen":[9,2,300],"queued_ops":[{{"Publish":{PUBLICATION_JSON}}},"Pause"],"next_seq":[1,2,3]}}"#
        ),
        // The second copy of the content names its attributes by the
        // ids the first one interned.
        &format!(
            "01838080807007{PUBLICATION_BYTES}00030902ac0202040401030102\
             00f0010301000000000000e03f04020349424d05010203"
        ),
    );
}

#[test]
fn filter_encodings_are_pinned() {
    check(&filter(), FILTER_JSON, FILTER_BYTES);
    // A handle that shares its body encodes like one that does not.
    let f = filter();
    check(&f.clone(), FILTER_JSON, FILTER_BYTES);
}

#[test]
fn subscription_and_advertisement_encodings_are_pinned() {
    check(
        &subscription(3),
        &format!(r#"{{"id":{{"client":7,"seq":3}},"filter":{FILTER_JSON}}}"#),
        &format!("0703{FILTER_BYTES}"),
    );
    check(
        &advertisement(),
        &format!(r#"{{"id":{{"client":7,"seq":1}},"filter":{ADV_FILTER_JSON},"ttl":5}}"#),
        &format!("0701{ADV_FILTER_BYTES}0105"),
    );
}

#[test]
fn client_profile_encodings_are_pinned() {
    let p = ClientProfile {
        subs: vec![subscription(3), subscription(4)],
        advs: vec![advertisement()],
    };
    check(
        &p,
        &format!(
            r#"{{"subs":[{{"id":{{"client":7,"seq":3}},"filter":{FILTER_JSON}}},{{"id":{{"client":7,"seq":4}},"filter":{FILTER_JSON}}}],"advs":[{{"id":{{"client":7,"seq":1}},"filter":{ADV_FILTER_JSON},"ttl":5}}]}}"#
        ),
        // The second subscription and the advertisement name their
        // attributes by the ids the first subscription interned.
        &format!(
            "020703{FILTER_BYTES}\
             0704050105001401030100000000002059400207020249420\
             30100000406000001070102010500000200020349424d0105"
        ),
    );
}

/// Broker 2 of a chain of three: a local subscriber, an advertisement
/// learnt from broker 1 and a subscription learnt from broker 3.
fn checkpointed_broker() -> MobileBroker {
    let topo = Arc::new(Topology::chain(3));
    let mut b = MobileBroker::new(BrokerId(2), topo, MobileBrokerConfig::reconfig());
    b.create_client(ClientId(7));
    let _ = b.client_op(
        ClientId(7),
        ClientOp::Subscribe(Filter::builder().ge("price", 100).build()),
    );
    let adv = Advertisement::new(
        AdvId::new(ClientId(5), 1),
        Filter::builder().ge("price", 0).eq("symbol", "IBM").build(),
    );
    let _ = b.handle(
        Hop::Broker(BrokerId(1)),
        Message::PubSub(PubSubMsg::Advertise(adv)),
    );
    let sub = Subscription::new(
        SubId::new(ClientId(9), 1),
        Filter::builder().eq("symbol", "IBM").build(),
    );
    let _ = b.handle(
        Hop::Broker(BrokerId(3)),
        Message::PubSub(PubSubMsg::Subscribe(sub)),
    );
    b
}

#[test]
fn old_checkpoint_restores_and_routes_like_a_new_one() {
    assert_eq!(OLD_SNAPSHOT_JSON.matches(OLD_LAYOUT_KEY).count(), 1);
    let new_json = OLD_SNAPSHOT_JSON.replace(OLD_LAYOUT_KEY, "");
    assert_eq!(
        serde_json::to_string(&checkpointed_broker().snapshot()).unwrap(),
        new_json
    );
    let publish = || {
        let m = PublicationMsg::new(PubId((5 << 32) | 1), ClientId(5), publication());
        Message::PubSub(PubSubMsg::Publish(m))
    };
    let want = checkpointed_broker().handle(Hop::Broker(BrokerId(1)), publish());
    // To the local subscriber and on towards broker 3.
    assert_eq!(want.len(), 2, "{want:?}");
    for json in [OLD_SNAPSHOT_JSON, new_json.as_str()] {
        let snap: BrokerSnapshot = serde_json::from_str(json).unwrap();
        let mut restored = MobileBroker::restore(
            Arc::new(Topology::chain(3)),
            MobileBrokerConfig::reconfig(),
            snap,
        );
        assert_eq!(
            serde_json::to_string(&restored.snapshot()).unwrap(),
            new_json
        );
        assert_eq!(restored.handle(Hop::Broker(BrokerId(1)), publish()), want);
    }
}

#[test]
fn json_constraints_in_any_order_read_into_the_sorted_body() {
    let f = Filter::builder().ge("x", 1).any("a").build();
    let swapped = r#"{"predicates":[{"attr":"x","op":"Ge","value":{"Int":1}},{"attr":"a","op":"Any","value":{"Int":0}}],"constraints":{"x":{"Num":{"interval":{"lo":{"Incl":1.0},"hi":"Unbounded"},"excluded":[]}},"a":"Present"}}"#;
    let back: Filter = serde_json::from_str(swapped).unwrap();
    assert_eq!(back, f);
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        serde_json::to_string(&f).unwrap()
    );
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    const ATTRS: [&str; 5] = ["volume", "price", "symbol", "open", "a"];
    proptest::collection::vec((0..ATTRS.len(), 0..Op::ALL.len(), -20i64..20), 0..6).prop_map(
        |specs| {
            let preds = specs.into_iter().map(|(ai, oi, v)| {
                let op = Op::ALL[oi];
                if op.is_string_op() || v % 3 == 0 {
                    Predicate::new(ATTRS[ai], op, format!("s{v}"))
                } else {
                    Predicate::new(ATTRS[ai], op, v)
                }
            });
            Filter::new(preds.collect())
        },
    )
}

proptest! {
    /// Both codecs give back an equal filter whose constraints come
    /// out in attribute order, one per attribute.
    #[test]
    fn filters_round_trip_sorted_through_both_codecs(f in arb_filter()) {
        let json = serde_json::to_string(&f).unwrap();
        let decoded = [
            serde_json::from_str::<Filter>(&json).unwrap(),
            decode_one::<Filter>(&encode_one(&f)).unwrap(),
        ];
        for back in decoded {
            prop_assert_eq!(&back, &f);
            let attrs: Vec<&str> = back.constraints().map(|(a, _)| a).collect();
            prop_assert!(attrs.windows(2).all(|w| w[0] < w[1]), "{:?}", attrs);
            prop_assert_eq!(attrs.len(), back.arity());
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), json.clone());
        }
    }
}
