//! A publication behaves as the `BTreeMap<String, Value>` it used to
//! be: random sequences of writes, with attributes repeated, run on a
//! publication and on a map side by side, and after every write each
//! reading of the publication (lookups, order, equality, hash, text,
//! JSON and wire bytes) must be the map's.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use proptest::collection::vec;
use proptest::prelude::*;
use transmob_pubsub::wire::{decode_one, encode_one};
use transmob_pubsub::{Publication, StrEncTable, Value, Wire, WireWriter};

type Model = BTreeMap<String, Value>;

/// Few names, so writes collide; the empty name and a non-ASCII one
/// test the byte order.
const ATTRS: [&str; 8] = ["", "a", "ab", "b", "k00", "k10", "k2", "é"];

fn value(i: usize) -> Value {
    match i {
        0 => Value::Int(0),
        1 => Value::Int(-7),
        2 => Value::Int(120),
        3 => Value::Float(0.5),
        4 => Value::Float(-2.25),
        5 => Value::from(""),
        6 => Value::from("IBM"),
        7 => Value::from("ü"),
        8 => Value::Bool(true),
        _ => Value::Bool(false),
    }
}

fn pairs(ix: &[(usize, usize)]) -> Vec<(String, Value)> {
    ix.iter()
        .map(|&(a, v)| (ATTRS[a].to_owned(), value(v)))
        .collect()
}

fn hash_of<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// The wire bytes of the map: its length, then each pair in order.
fn model_bytes(model: &Model) -> Vec<u8> {
    let (mut buf, mut strs) = (Vec::new(), StrEncTable::new());
    let mut w = WireWriter::new(&mut buf, &mut strs);
    w.varint(model.len() as u64);
    for (a, v) in model {
        w.attr(a);
        v.enc(&mut w);
    }
    buf
}

fn agrees(p: &Publication, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(p.len(), model.len());
    prop_assert_eq!(p.is_empty(), model.is_empty());
    for a in ATTRS.iter().chain(&["zz", "k0"]) {
        prop_assert_eq!(p.get(a), model.get(*a), "get({:?})", a);
        prop_assert_eq!(p.has(a), model.contains_key(*a), "has({:?})", a);
    }
    let listed: Vec<(&str, &Value)> = p.iter().collect();
    let expected: Vec<(&str, &Value)> = model.iter().map(|(a, v)| (a.as_str(), v)).collect();
    prop_assert_eq!(listed, expected);

    let rebuilt: Publication = model.clone().into_iter().rev().collect();
    prop_assert_eq!(p, &rebuilt);
    prop_assert_eq!(hash_of(p), hash_of(model));
    prop_assert_eq!(hash_of(p), hash_of(&rebuilt));

    let text: Vec<String> = model.iter().map(|(a, v)| format!("{a}={v}")).collect();
    prop_assert_eq!(p.to_string(), format!("[{}]", text.join(",")));

    let json = serde_json::to_string(p).unwrap();
    let model_json = format!("{{\"attrs\":{}}}", serde_json::to_string(model).unwrap());
    prop_assert_eq!(&json, &model_json);
    prop_assert_eq!(&serde_json::from_str::<Publication>(&json).unwrap(), p);

    let bytes = encode_one(p);
    prop_assert_eq!(&bytes, &model_bytes(model));
    prop_assert_eq!(&decode_one::<Publication>(&bytes).unwrap(), p);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_publication_is_its_map(
        ops in vec((0usize..5, 0usize..ATTRS.len(), 0usize..10, vec((0usize..ATTRS.len(), 0usize..10), 0..6)), 0..24)
    ) {
        let mut p = Publication::new();
        let mut model = Model::new();
        let mut clones = Vec::new();
        for (op, a, v, batch) in ops {
            let (attr, value) = (ATTRS[a], value(v));
            match op {
                0 => {
                    p = p.with(attr, value.clone());
                    model.insert(attr.to_owned(), value);
                }
                1 => {
                    let before = p.set(attr, value.clone());
                    prop_assert_eq!(before, model.insert(attr.to_owned(), value));
                }
                2 => {
                    p.extend(pairs(&batch));
                    model.extend(pairs(&batch));
                }
                3 => {
                    p = pairs(&batch).into_iter().collect();
                    model = pairs(&batch).into_iter().collect();
                }
                _ => clones.push((p.clone(), model.clone())),
            }
            agrees(&p, &model)?;
        }
        // No write reached a clone taken before it.
        for (clone, model) in &clones {
            agrees(clone, model)?;
        }
    }
}
