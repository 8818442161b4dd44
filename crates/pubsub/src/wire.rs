//! Compact binary wire encoding for the pub/sub data model.
//!
//! The TCP runtime's binary codec (see `transmob-runtime::codec`)
//! frames protocol messages as length-prefixed byte strings. This
//! module holds the layer-0 pieces every message type builds on:
//!
//! - **varints** — unsigned LEB128 for lengths, counts and ids;
//!   zig-zag LEB128 for signed integers. Small values (the common
//!   case for broker/client ids and sequence numbers) cost one byte.
//! - **interned attribute keys** — publications and predicates repeat
//!   a small vocabulary of attribute names over and over. Each
//!   connection negotiates a string table incrementally: the first
//!   use of a key ships `0x00 + len + bytes` and implicitly assigns
//!   the next table id; every later use ships just `varint(id + 1)`.
//!   Encoder and decoder stay in sync because frames are encoded and
//!   decoded in connection order; both sides reset the table when a
//!   link is re-established, so a redial starts from a clean slate.
//! - the [`Wire`] trait — structural encode/decode for every type
//!   that can appear inside a frame, implemented here for the pub/sub
//!   vocabulary and by the `transmob-broker` / `transmob-core` crates
//!   for their message enums.
//!
//! # Robustness contract
//!
//! Decoding never panics and never allocates proportionally to a
//! length field alone: every claimed collection or string length is
//! checked against the bytes actually remaining in the frame before
//! any allocation, and the decode-side string table is capped. A
//! corrupt frame yields a descriptive [`WireError`] so the transport
//! can count it and name the link-death cause.

use std::fmt;

use crate::fasthash::FastMap;
use crate::message::PublicationMsg;
use crate::message::{
    AdvId, Advertisement, BrokerId, ClientId, MoveId, PubId, SubId, Subscription,
};
use crate::predicate::{Op, Predicate};
use crate::publication::Publication;
use crate::value::Value;
use crate::Filter;

/// Hard cap on the decode-side string table (entries), bounding the
/// memory a misbehaving peer can pin with fabricated intern entries.
pub const MAX_INTERNED_STRINGS: usize = 1 << 16;

/// A decode failure: the frame bytes do not describe a valid message.
///
/// Carries a human-readable reason so the transport layer can report
/// *why* a link died (see the per-link decode-failure counters in the
/// TCP runtime).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
}

/// Encoder half of the per-connection attribute-key string table.
#[derive(Debug, Default)]
pub struct StrEncTable {
    ids: FastMap<String, u32>,
}

impl StrEncTable {
    /// A fresh (empty) table, as negotiated at link establishment.
    pub fn new() -> Self {
        StrEncTable::default()
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no key has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Decoder half of the per-connection attribute-key string table.
#[derive(Debug, Default)]
pub struct StrDecTable {
    strs: Vec<String>,
}

impl StrDecTable {
    /// A fresh (empty) table, as negotiated at link establishment.
    pub fn new() -> Self {
        StrDecTable::default()
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.strs.len()
    }

    /// Whether no key has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strs.is_empty()
    }
}

/// Byte sink for one frame payload, carrying the connection's encoder
/// string table.
#[derive(Debug)]
pub struct WireWriter<'a> {
    buf: &'a mut Vec<u8>,
    strs: &'a mut StrEncTable,
}

impl<'a> WireWriter<'a> {
    /// Wraps an output buffer and the connection's intern table.
    pub fn new(buf: &'a mut Vec<u8>, strs: &'a mut StrEncTable) -> Self {
        WireWriter { buf, strs }
    }

    /// Appends one raw byte.
    pub fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends an unsigned LEB128 varint.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Appends a zig-zag LEB128 signed varint.
    pub fn varint_i64(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends an IEEE-754 double, bit-exact (NaN survives — unlike
    /// the JSON path, which flattens non-finite floats to `null`).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed raw (non-interned) string.
    pub fn str_raw(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends an interned attribute key: known keys ship as
    /// `varint(id + 1)`, a first use ships `0x00` plus the raw string
    /// and assigns the next id on both sides.
    pub fn attr(&mut self, s: &str) {
        if let Some(&id) = self.strs.ids.get(s) {
            self.varint(u64::from(id) + 1);
        } else {
            let id = self.strs.ids.len() as u32;
            self.byte(0);
            self.str_raw(s);
            // Past the cap, stop assigning ids: the key is re-shipped
            // raw every time (decoder mirrors this exactly).
            if (self.strs.ids.len()) < MAX_INTERNED_STRINGS {
                self.strs.ids.insert(s.to_owned(), id);
            }
        }
    }
}

/// Byte source over one frame payload, carrying the connection's
/// decoder string table.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    strs: &'a mut StrDecTable,
}

impl<'a> WireReader<'a> {
    /// Wraps a frame payload and the connection's intern table.
    pub fn new(buf: &'a [u8], strs: &'a mut StrDecTable) -> Self {
        WireReader { buf, pos: 0, strs }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the payload was consumed exactly.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one raw byte.
    pub fn byte(&mut self) -> Result<u8, WireError> {
        if self.pos >= self.buf.len() {
            return err(format!("truncated payload at offset {}", self.pos));
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Reads an unsigned LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return err("varint overflows u64");
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return err("varint longer than 10 bytes");
            }
        }
    }

    /// Reads a zig-zag LEB128 signed varint.
    pub fn varint_i64(&mut self) -> Result<i64, WireError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a varint and validates it as a collection count: each
    /// element needs at least one byte, so a count larger than the
    /// remaining payload is corruption (and guarding here prevents
    /// attacker-controlled preallocation).
    pub fn count(&mut self) -> Result<usize, WireError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return err(format!(
                "claimed count {n} exceeds {} remaining bytes",
                self.remaining()
            ));
        }
        Ok(n as usize)
    }

    /// Reads an IEEE-754 double.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        if self.remaining() < 8 {
            return err("truncated f64");
        }
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// Reads a length-prefixed raw string.
    pub fn str_raw(&mut self) -> Result<String, WireError> {
        self.str_in_frame().map(str::to_owned)
    }

    /// Reads a length-prefixed raw string, borrowed from the payload.
    fn str_in_frame(&mut self) -> Result<&'a str, WireError> {
        let n = self.count()?;
        let buf: &'a [u8] = self.buf;
        let s = std::str::from_utf8(&buf[self.pos..self.pos + n])
            .map_err(|e| WireError(format!("invalid utf-8 in string: {e}")))?;
        self.pos += n;
        Ok(s)
    }

    /// Reads an interned attribute key (see [`WireWriter::attr`]).
    pub fn attr(&mut self) -> Result<String, WireError> {
        let key = self.attr_key()?;
        Ok(self.key(&key).to_owned())
    }

    /// Reads an interned attribute key without copying its name: a
    /// first use enters the table (one copy per key per connection)
    /// and the key names it in the payload.
    fn attr_key(&mut self) -> Result<Key<'a>, WireError> {
        let code = self.varint()?;
        if code == 0 {
            let s = self.str_in_frame()?;
            if self.strs.strs.len() < MAX_INTERNED_STRINGS {
                self.strs.strs.push(s.to_owned());
            }
            return Ok(Key::Frame(s));
        }
        let idx = (code - 1) as usize;
        if idx >= self.strs.strs.len() {
            return err(format!(
                "interned string id {idx} out of range (table has {})",
                self.strs.strs.len()
            ));
        }
        Ok(Key::Table(idx))
    }

    /// The name `key` stands for.
    fn key(&self, key: &Key<'a>) -> &str {
        match *key {
            Key::Frame(s) => s,
            Key::Table(idx) => &self.strs.strs[idx],
        }
    }
}

/// An attribute key as read: a name in the payload, or an entry of the
/// connection's table.
enum Key<'a> {
    Frame(&'a str),
    Table(usize),
}

/// Structural binary encode/decode for one wire-visible type.
///
/// Implementations must be exact inverses: `dec(enc(x)) == x` for
/// every value `x` that can be constructed through the public API
/// (the codec proptests in `transmob-runtime` pin this against the
/// JSON path as a differential oracle).
pub trait Wire: Sized {
    /// Appends this value to the frame payload.
    fn enc(&self, w: &mut WireWriter<'_>);
    /// Parses one value from the frame payload.
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

impl Wire for u32 {
    fn enc(&self, w: &mut WireWriter<'_>) {
        w.varint(u64::from(*self));
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = r.varint()?;
        u32::try_from(v).map_err(|_| WireError(format!("u32 out of range: {v}")))
    }
}

impl Wire for u64 {
    fn enc(&self, w: &mut WireWriter<'_>) {
        w.varint(*self);
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.varint()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self, w: &mut WireWriter<'_>) {
        w.varint(self.len() as u64);
        for item in self {
            item.enc(w);
        }
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::dec(r)?);
        }
        Ok(out)
    }
}

macro_rules! id_wire {
    ($name:ident, $inner:ty) => {
        impl Wire for $name {
            fn enc(&self, w: &mut WireWriter<'_>) {
                w.varint(self.0 as u64);
            }
            fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let v = r.varint()?;
                <$inner>::try_from(v)
                    .map(|x| $name(x))
                    .map_err(|_| WireError(format!("{} out of range: {v}", stringify!($name))))
            }
        }
    };
}

id_wire!(BrokerId, u32);
id_wire!(ClientId, u64);
id_wire!(MoveId, u64);
id_wire!(PubId, u64);

impl Wire for SubId {
    fn enc(&self, w: &mut WireWriter<'_>) {
        self.client.enc(w);
        w.varint(u64::from(self.seq));
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SubId {
            client: ClientId::dec(r)?,
            seq: u32::dec(r)?,
        })
    }
}

impl Wire for AdvId {
    fn enc(&self, w: &mut WireWriter<'_>) {
        self.client.enc(w);
        w.varint(u64::from(self.seq));
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(AdvId {
            client: ClientId::dec(r)?,
            seq: u32::dec(r)?,
        })
    }
}

impl Wire for Value {
    fn enc(&self, w: &mut WireWriter<'_>) {
        match self {
            Value::Int(i) => {
                w.byte(0);
                w.varint_i64(*i);
            }
            Value::Float(f) => {
                w.byte(1);
                w.f64(*f);
            }
            Value::Str(s) => {
                w.byte(2);
                w.str_raw(s);
            }
            Value::Bool(b) => {
                w.byte(3);
                w.byte(u8::from(*b));
            }
        }
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(Value::Int(r.varint_i64()?)),
            1 => Ok(Value::Float(r.f64()?)),
            2 => Ok(Value::Str(r.str_raw()?)),
            3 => match r.byte()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                b => err(format!("invalid bool byte {b}")),
            },
            t => err(format!("unknown value tag {t}")),
        }
    }
}

impl Wire for Publication {
    fn enc(&self, w: &mut WireWriter<'_>) {
        w.varint(self.len() as u64);
        for (attr, value) in self.iter() {
            w.attr(attr);
            value.enc(w);
        }
    }
    /// Fills the publication from the payload and the connection's
    /// table: the names are copied once, into the publication's block.
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.count()?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let key = r.attr_key()?;
            pairs.push((key, Value::dec(r)?));
        }
        let pairs: Vec<_> = pairs.into_iter().map(|(k, v)| (r.key(&k), v)).collect();
        // A block addresses its names with `u32` offsets; only names
        // interned from many huge frames could sum past that.
        let names: usize = pairs.iter().map(|(a, _)| a.len()).sum();
        if u32::try_from(names).is_err() {
            return err(format!(
                "attribute names of {names} bytes in one publication"
            ));
        }
        Ok(Publication::from_pairs(pairs))
    }
}

fn op_tag(op: Op) -> u8 {
    match op {
        Op::Eq => 0,
        Op::Neq => 1,
        Op::Lt => 2,
        Op::Le => 3,
        Op::Gt => 4,
        Op::Ge => 5,
        Op::Any => 6,
        Op::StrPrefix => 7,
        Op::StrSuffix => 8,
        Op::StrContains => 9,
    }
}

impl Wire for Op {
    fn enc(&self, w: &mut WireWriter<'_>) {
        w.byte(op_tag(*self));
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(Op::Eq),
            1 => Ok(Op::Neq),
            2 => Ok(Op::Lt),
            3 => Ok(Op::Le),
            4 => Ok(Op::Gt),
            5 => Ok(Op::Ge),
            6 => Ok(Op::Any),
            7 => Ok(Op::StrPrefix),
            8 => Ok(Op::StrSuffix),
            9 => Ok(Op::StrContains),
            t => err(format!("unknown op tag {t}")),
        }
    }
}

impl Wire for Predicate {
    fn enc(&self, w: &mut WireWriter<'_>) {
        w.attr(self.attr());
        self.op().enc(w);
        self.value().enc(w);
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let attr = r.attr()?;
        let op = Op::dec(r)?;
        let value = Value::dec(r)?;
        Ok(Predicate::new(attr, op, value))
    }
}

impl Wire for Filter {
    /// Only the predicate list travels; the receiver rebuilds the
    /// normalized per-attribute constraints with [`Filter::new`] —
    /// they are a deterministic function of the predicates, so
    /// shipping them (as the JSON path does) would only inflate the
    /// frame.
    fn enc(&self, w: &mut WireWriter<'_>) {
        w.varint(self.predicates().len() as u64);
        for p in self.predicates() {
            p.enc(w);
        }
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.count()?;
        let mut preds = Vec::with_capacity(n);
        for _ in 0..n {
            preds.push(Predicate::dec(r)?);
        }
        Ok(Filter::new(preds))
    }
}

impl Wire for Subscription {
    fn enc(&self, w: &mut WireWriter<'_>) {
        self.id.enc(w);
        self.filter.enc(w);
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Subscription {
            id: SubId::dec(r)?,
            filter: Filter::dec(r)?,
        })
    }
}

impl Wire for Advertisement {
    fn enc(&self, w: &mut WireWriter<'_>) {
        self.id.enc(w);
        self.filter.enc(w);
        match self.ttl {
            None => w.byte(0),
            Some(t) => {
                w.byte(1);
                w.varint(u64::from(t));
            }
        }
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let id = AdvId::dec(r)?;
        let filter = Filter::dec(r)?;
        let ttl = match r.byte()? {
            0 => None,
            1 => Some(u32::dec(r)?),
            b => return err(format!("invalid ttl presence byte {b}")),
        };
        Ok(Advertisement { id, filter, ttl })
    }
}

impl Wire for PublicationMsg {
    fn enc(&self, w: &mut WireWriter<'_>) {
        self.id.enc(w);
        self.publisher.enc(w);
        self.content.enc(w);
        w.varint(u64::from(self.hops));
    }
    fn dec(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(PublicationMsg {
            id: PubId::dec(r)?,
            publisher: ClientId::dec(r)?,
            content: Publication::dec(r)?,
            hops: u32::dec(r)?,
        })
    }
}

/// Encodes one value into a fresh buffer (tests and tools; transports
/// reuse buffers and tables across frames instead).
pub fn encode_one<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut strs = StrEncTable::new();
    value.enc(&mut WireWriter::new(&mut buf, &mut strs));
    buf
}

/// Decodes one value from a buffer, requiring exact consumption.
pub fn decode_one<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut strs = StrDecTable::new();
    let mut r = WireReader::new(bytes, &mut strs);
    let v = T::dec(&mut r)?;
    if !r.is_exhausted() {
        return err(format!("{} trailing bytes after value", r.remaining()));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = encode_one(v);
        let back: T = decode_one(&bytes).expect("decode");
        assert_eq!(&back, v, "round trip through {} bytes", bytes.len());
    }

    #[test]
    fn varint_round_trips_at_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            round_trip(&v);
        }
    }

    #[test]
    fn signed_varint_round_trips() {
        let mut buf = Vec::new();
        let mut strs = StrEncTable::new();
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300, 300] {
            buf.clear();
            let mut w = WireWriter::new(&mut buf, &mut strs);
            w.varint_i64(v);
            let mut dec = StrDecTable::new();
            let mut r = WireReader::new(&buf, &mut dec);
            assert_eq!(r.varint_i64().unwrap(), v);
        }
    }

    #[test]
    fn values_round_trip_including_nan() {
        round_trip(&Value::Int(-42));
        round_trip(&Value::Str("hello".into()));
        round_trip(&Value::Bool(true));
        round_trip(&Value::Float(2.5));
        // NaN is bit-exact on the binary wire (the JSON path turns it
        // into `null` and the frame dies at the receiver).
        let bytes = encode_one(&Value::Float(f64::NAN));
        match decode_one::<Value>(&bytes).unwrap() {
            Value::Float(f) => assert!(f.is_nan()),
            v => panic!("wrong kind: {v:?}"),
        }
    }

    #[test]
    fn attr_interning_shrinks_repeats_and_decodes() {
        let mut buf = Vec::new();
        let mut enc = StrEncTable::new();
        {
            let mut w = WireWriter::new(&mut buf, &mut enc);
            w.attr("price");
            w.attr("price");
            w.attr("symbol");
            w.attr("price");
        }
        // First "price": 1 tag + 1 len + 5 bytes; repeats: 1 byte.
        assert_eq!(buf.len(), 7 + 1 + 8 + 1);
        let mut dec = StrDecTable::new();
        let mut r = WireReader::new(&buf, &mut dec);
        assert_eq!(r.attr().unwrap(), "price");
        assert_eq!(r.attr().unwrap(), "price");
        assert_eq!(r.attr().unwrap(), "symbol");
        assert_eq!(r.attr().unwrap(), "price");
        assert!(r.is_exhausted());
        assert_eq!(dec.len(), 2);
    }

    #[test]
    fn publication_and_filter_round_trip_share_table() {
        let mut buf = Vec::new();
        let mut enc = StrEncTable::new();
        let p = Publication::new().with("x", 3).with("name", "alpha");
        let f = Filter::builder().ge("x", 0).prefix("name", "al").build();
        {
            let mut w = WireWriter::new(&mut buf, &mut enc);
            p.enc(&mut w);
            f.enc(&mut w);
        }
        let mut dec = StrDecTable::new();
        let mut r = WireReader::new(&buf, &mut dec);
        assert_eq!(Publication::dec(&mut r).unwrap(), p);
        assert_eq!(Filter::dec(&mut r).unwrap(), f);
        assert!(r.is_exhausted());
    }

    #[test]
    fn named_entities_round_trip() {
        round_trip(&Subscription::new(
            SubId::new(ClientId(7), 3),
            Filter::builder().ge("x", -5).le("x", 5).build(),
        ));
        round_trip(&Advertisement::new(
            AdvId::new(ClientId(1), 0),
            Filter::builder().any("y").build(),
        ));
        round_trip(&PublicationMsg::new(
            PubId(9),
            ClientId(2),
            Publication::new().with("k", true).with("v", 0.5),
        ));
    }

    #[test]
    fn stale_intern_id_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        let mut enc = StrEncTable::new();
        {
            let mut w = WireWriter::new(&mut buf, &mut enc);
            w.attr("price");
            w.attr("price");
        }
        // Decoding with a *fresh* table (as after a redial) must fail
        // loudly on the back-reference, not mis-resolve it.
        let mut dec = StrDecTable::new();
        let mut r = WireReader::new(&buf[7..], &mut dec);
        assert!(r.attr().is_err());
    }

    #[test]
    fn hostile_lengths_are_rejected_without_allocation() {
        // A claimed element count far beyond the payload size.
        let mut dec = StrDecTable::new();
        let mut r = WireReader::new(&[0xff, 0xff, 0xff, 0x7f], &mut dec);
        assert!(r.count().is_err());
        // Overlong varint.
        let mut dec = StrDecTable::new();
        let bytes = [0x80u8; 11];
        let mut r = WireReader::new(&bytes, &mut dec);
        assert!(r.varint().is_err());
        // Truncated float.
        let mut dec = StrDecTable::new();
        let mut r = WireReader::new(&[1, 2, 3], &mut dec);
        assert!(r.f64().is_err());
    }

    #[test]
    fn every_truncation_of_a_valid_encoding_errors_cleanly() {
        let msg = PublicationMsg::new(
            PubId(12),
            ClientId(34),
            Publication::new().with("alpha", 1).with("beta", "s"),
        );
        let bytes = encode_one(&msg);
        for cut in 0..bytes.len() {
            assert!(
                decode_one::<PublicationMsg>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}
