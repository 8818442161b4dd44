//! Publications: the messages content-based routing delivers.
//!
//! A publication is a set of `(attribute, value)` pairs. Attributes are
//! unique within a publication; setting an attribute twice keeps the
//! last value.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::value::Value;

/// A set of `(attribute, value)` pairs.
///
/// # Examples
///
/// ```
/// use transmob_pubsub::{Publication, Value};
///
/// let p = Publication::new()
///     .with("symbol", "IBM")
///     .with("price", 120);
/// assert_eq!(p.get("price"), Some(&Value::Int(120)));
/// assert_eq!(p.len(), 2);
/// ```
///
/// The pairs are one immutable block behind an `Arc`: a clone is a
/// reference-count bump, so the copies a broker makes per forwarded
/// link, per matched client and per buffer all point at one block. A
/// holder that writes (`with`, `set`, `extend`) first takes a private
/// copy unless it is the only holder, so no write is ever visible
/// through another handle (DESIGN.md §17).
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Publication {
    #[serde(with = "block_as_map")]
    attrs: Arc<Block>,
}

/// A publication's pairs, sorted by attribute, in three allocations
/// however many there are: the shared header, the entries and the
/// names. A string value keeps its own buffer.
#[derive(Clone, PartialEq, Eq, Default)]
struct Block {
    /// Every attribute name, in entry order, back to back.
    names: Box<str>,
    /// One per attribute, in attribute order.
    entries: Box<[Entry]>,
}

/// One pair: the value and where its attribute's name lies in
/// [`Block::names`].
#[derive(Clone, PartialEq, Eq)]
struct Entry {
    value: Value,
    start: u32,
    end: u32,
}

impl Block {
    /// The block of `pairs`, which are sorted by attribute with no
    /// attribute twice and whose names are `names_len` bytes in all.
    fn from_sorted<S: AsRef<str>>(
        names_len: usize,
        pairs: impl Iterator<Item = (S, Value)>,
    ) -> Block {
        let offset = |at: usize| u32::try_from(at).expect("attribute names under 4 GiB");
        let mut names = String::with_capacity(names_len);
        let mut entries = Vec::with_capacity(pairs.size_hint().0);
        for (attr, value) in pairs {
            let start = offset(names.len());
            names.push_str(attr.as_ref());
            entries.push(Entry {
                value,
                start,
                end: offset(names.len()),
            });
        }
        let block = Block {
            names: names.into_boxed_str(),
            entries: entries.into_boxed_slice(),
        };
        debug_assert!(block
            .iter()
            .zip(block.iter().skip(1))
            .all(|(a, b)| a.0 < b.0));
        block
    }

    fn name(&self, e: &Entry) -> &str {
        &self.names[e.start as usize..e.end as usize]
    }

    fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|e| (self.name(e), &e.value))
    }

    /// Where `attr` is, or where it would go.
    fn find(&self, attr: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|e| self.name(e).cmp(attr))
    }
}

/// Serializes the block in the shape the attribute map had: a map in
/// attribute order.
mod block_as_map {
    use super::*;

    pub fn serialize<S: Serializer>(block: &Arc<Block>, ser: S) -> Result<S::Ok, S::Error> {
        ser.collect_map(block.iter())
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<Arc<Block>, D::Error> {
        let map = BTreeMap::<String, Value>::deserialize(de)?;
        let names_len = map.keys().map(String::len).sum();
        Ok(Arc::new(Block::from_sorted(names_len, map.into_iter())))
    }
}

impl Publication {
    /// Creates an empty publication.
    pub fn new() -> Self {
        Publication::default()
    }

    /// The publication of `pairs`, in any order; of pairs naming one
    /// attribute the last wins.
    pub(crate) fn from_pairs<S: AsRef<str>>(mut pairs: Vec<(S, Value)>) -> Self {
        // Stable, so one attribute's writes stay in write order.
        pairs.sort_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
        pairs.dedup_by(|later, kept| {
            let same = later.0.as_ref() == kept.0.as_ref();
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        let names_len = pairs.iter().map(|(a, _)| a.as_ref().len()).sum();
        Publication {
            attrs: Arc::new(Block::from_sorted(names_len, pairs.into_iter())),
        }
    }

    /// Returns the publication with `attr` set to `value` (builder
    /// style; last write wins).
    pub fn with(mut self, attr: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.set(attr, value);
        self
    }

    /// Sets `attr` to `value` in place, returning the previous value if
    /// any. A new attribute rebuilds the block, so a publication of
    /// thousands of attributes is built with `collect`, not `set` by
    /// `set`.
    pub fn set(&mut self, attr: impl AsRef<str>, value: impl Into<Value>) -> Option<Value> {
        let (attr, value) = (attr.as_ref(), value.into());
        let at = match self.attrs.find(attr) {
            Ok(at) => {
                let entry = &mut Arc::make_mut(&mut self.attrs).entries[at];
                return Some(std::mem::replace(&mut entry.value, value));
            }
            Err(at) => at,
        };
        let old = &self.attrs;
        fn copy<'a>((a, v): (&'a str, &Value)) -> (&'a str, Value) {
            (a, v.clone())
        }
        let pairs = (old.iter().take(at).map(copy))
            .chain([(attr, value)])
            .chain(old.iter().skip(at).map(copy));
        let block = Block::from_sorted(old.names.len() + attr.len(), pairs);
        match Arc::get_mut(&mut self.attrs) {
            Some(sole) => *sole = block,
            None => self.attrs = Arc::new(block),
        }
        None
    }

    /// The value of `attr`, if present.
    pub fn get(&self, attr: &str) -> Option<&Value> {
        let at = self.attrs.find(attr).ok()?;
        Some(&self.attrs.entries[at].value)
    }

    /// Whether the publication carries `attr`.
    pub fn has(&self, attr: &str) -> bool {
        self.attrs.find(attr).is_ok()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.entries.len()
    }

    /// Whether the publication has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.entries.is_empty()
    }

    /// Iterates over `(attribute, value)` pairs in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attrs.iter()
    }
}

/// Prints `Publication { attrs: {..} }`, the pairs as a map.
impl fmt::Debug for Publication {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Attrs<'a>(&'a Block);
        impl fmt::Debug for Attrs<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Publication")
            .field("attrs", &Attrs(&self.attrs))
            .finish()
    }
}

/// Hashes as a `BTreeMap<String, Value>` of the pairs does: the
/// length, then each pair.
impl Hash for Publication {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for pair in self.iter() {
            pair.hash(state);
        }
    }
}

impl fmt::Display for Publication {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, (a, v)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{a}={v}")?;
        }
        f.write_str("]")
    }
}

impl FromIterator<(String, Value)> for Publication {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Publication::from_pairs(iter.into_iter().collect())
    }
}

impl Extend<(String, Value)> for Publication {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        let old = self.iter().map(|(a, v)| (a.to_owned(), v.clone()));
        *self = Publication::from_pairs(old.chain(iter).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_set_agree() {
        let a = Publication::new().with("x", 1).with("y", "v");
        let mut b = Publication::new();
        b.set("x", 1);
        b.set("y", "v");
        assert_eq!(a, b);
    }

    #[test]
    fn last_write_wins() {
        let p = Publication::new().with("x", 1).with("x", 2);
        assert_eq!(p.get("x"), Some(&Value::Int(2)));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn set_returns_previous() {
        let mut p = Publication::new().with("x", 1);
        assert_eq!(p.set("x", 5), Some(Value::Int(1)));
        assert_eq!(p.set("y", 7), None);
    }

    #[test]
    fn iteration_is_attribute_ordered() {
        let p = Publication::new().with("b", 2).with("a", 1).with("c", 3);
        let attrs: Vec<&str> = p.iter().map(|(a, _)| a).collect();
        assert_eq!(attrs, vec!["a", "b", "c"]);
    }

    #[test]
    fn display_compact() {
        let p = Publication::new().with("a", 1).with("b", "x");
        assert_eq!(p.to_string(), "[a=1,b='x']");
        assert_eq!(Publication::new().to_string(), "[]");
    }

    #[test]
    fn clone_shares_storage_until_one_holder_writes() {
        let a = Publication::new().with("x", 1).with("name", "alpha");
        let mut b = a.clone();
        let c = a.clone();
        assert!(Arc::ptr_eq(&a.attrs, &b.attrs));
        assert_eq!(b.set("x", 2), Some(Value::Int(1)));
        assert!(!Arc::ptr_eq(&a.attrs, &b.attrs));
        assert_eq!(a.get("x"), Some(&Value::Int(1)));
        assert_eq!(b.get("x"), Some(&Value::Int(2)));
        // The builder and `extend` write to their own copy too.
        let mut d = c.clone().with("y", 3);
        d.extend([("z".to_owned(), Value::Int(4))]);
        assert_eq!(d.len(), 4);
        assert_eq!(c, a);
        assert!(Arc::ptr_eq(&a.attrs, &c.attrs));
        // A sole holder writes in place.
        let before = Arc::as_ptr(&d.attrs);
        d.set("w", 5);
        assert_eq!(Arc::as_ptr(&d.attrs), before);
    }

    #[test]
    fn eq_and_hash_ignore_sharing() {
        use std::hash::{Hash, Hasher};
        fn hash_of(p: &Publication) -> u64 {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        }
        let a = Publication::new().with("x", 1).with("name", "alpha");
        let shared = a.clone();
        let rebuilt = Publication::new().with("name", "alpha").with("x", 1);
        assert_eq!(shared, rebuilt);
        assert_eq!(hash_of(&shared), hash_of(&rebuilt));
        assert_ne!(shared, rebuilt.clone().with("x", 2));
    }

    #[test]
    fn from_iterator_collects() {
        let p: Publication = vec![
            ("k".to_owned(), Value::Int(9)),
            ("s".to_owned(), Value::from("t")),
        ]
        .into_iter()
        .collect();
        assert!(p.has("k") && p.has("s"));
    }
}
