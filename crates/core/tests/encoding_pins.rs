//! The JSON text and binary wire bytes of a publication, a stamped
//! publication and a client snapshot, as recorded before publication
//! content moved behind a shared pointer: brokers of both kinds must
//! keep understanding each other, and WAL records keep their shape.

use transmob_core::{ClientOp, ClientSnapshot};
use transmob_pubsub::wire::{decode_one, encode_one, Wire};
use transmob_pubsub::{ClientId, PubId, Publication, PublicationMsg};

const PUBLICATION_BYTES: &str = "0400046f70656e03010005707269636500f0010005726174696f01000000000000e03f000673796d626f6c020349424d";
const PUBLICATION_JSON: &str = r#"{"attrs":{"open":{"Bool":true},"price":{"Int":120},"ratio":{"Float":0.5},"symbol":{"Str":"IBM"}}}"#;

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
