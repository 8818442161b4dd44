//! Publications: the messages content-based routing delivers.
//!
//! A publication is a set of `(attribute, value)` pairs. Attributes are
//! unique within a publication; setting an attribute twice keeps the
//! last value.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

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
/// The attribute map is shared: a clone is a reference-count bump, so
/// the copies a broker makes per forwarded link, per matched client and
/// per buffer all point at one allocation. A holder that writes
/// (`with`, `set`, `extend`) first takes a private copy unless it is
/// the only holder, so no write is ever visible through another
/// handle (DESIGN.md §17).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Publication {
    #[serde(with = "shared_attrs")]
    attrs: Arc<BTreeMap<String, Value>>,
}

/// Serializes the shared map through a reference, in the shape the
/// plain map had.
mod shared_attrs {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    use crate::value::Value;

    type Attrs = BTreeMap<String, Value>;

    pub fn serialize<S: Serializer>(attrs: &Arc<Attrs>, ser: S) -> Result<S::Ok, S::Error> {
        Attrs::serialize(attrs, ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<Arc<Attrs>, D::Error> {
        Attrs::deserialize(de).map(Arc::new)
    }
}

impl Publication {
    /// Creates an empty publication.
    pub fn new() -> Self {
        Publication::default()
    }

    /// Returns the publication with `attr` set to `value` (builder
    /// style; last write wins).
    pub fn with(mut self, attr: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(attr, value);
        self
    }

    /// Sets `attr` to `value` in place, returning the previous value if
    /// any.
    pub fn set(&mut self, attr: impl Into<String>, value: impl Into<Value>) -> Option<Value> {
        Arc::make_mut(&mut self.attrs).insert(attr.into(), value.into())
    }

    /// The value of `attr`, if present.
    pub fn get(&self, attr: &str) -> Option<&Value> {
        self.attrs.get(attr)
    }

    /// Whether the publication carries `attr`.
    pub fn has(&self, attr: &str) -> bool {
        self.attrs.contains_key(attr)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the publication has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterates over `(attribute, value)` pairs in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attrs.iter().map(|(a, v)| (a.as_str(), v))
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
        Publication {
            attrs: Arc::new(iter.into_iter().collect()),
        }
    }
}

impl Extend<(String, Value)> for Publication {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        Arc::make_mut(&mut self.attrs).extend(iter);
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
