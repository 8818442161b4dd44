//! Predicates: the `(attribute, operator, value)` triples of the PADRES
//! subscription language.
//!
//! A subscription or advertisement is a conjunction of predicates (see
//! [`crate::Filter`]). A predicate is satisfied by a publication when the
//! publication carries the attribute and the attribute's value passes the
//! operator test.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// Comparison operator of a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Equal (semantic equality; `Int(3)` equals `Float(3.0)`).
    Eq,
    /// Not equal.
    Neq,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Attribute present, any value (the PADRES `*` operator). The
    /// predicate's value operand is ignored.
    Any,
    /// String starts with the operand (operand must be a string).
    StrPrefix,
    /// String ends with the operand.
    StrSuffix,
    /// String contains the operand.
    StrContains,
}

impl Op {
    /// All operators, for exhaustive iteration in tests and fuzzing.
    pub const ALL: [Op; 10] = [
        Op::Eq,
        Op::Neq,
        Op::Lt,
        Op::Le,
        Op::Gt,
        Op::Ge,
        Op::Any,
        Op::StrPrefix,
        Op::StrSuffix,
        Op::StrContains,
    ];

    /// Whether the operator is one of the string-only operators.
    pub fn is_string_op(self) -> bool {
        matches!(self, Op::StrPrefix | Op::StrSuffix | Op::StrContains)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Eq => "=",
            Op::Neq => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Any => "*",
            Op::StrPrefix => "prefix",
            Op::StrSuffix => "suffix",
            Op::StrContains => "contains",
        };
        f.write_str(s)
    }
}

/// One `(attribute, operator, value)` predicate.
///
/// # Examples
///
/// ```
/// use transmob_pubsub::{Predicate, Op, Value};
///
/// let p = Predicate::new("price", Op::Le, 100);
/// assert!(p.satisfied_by(&Value::from(99)));
/// assert!(!p.satisfied_by(&Value::from(101)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Predicate {
    attr: String,
    op: Op,
    value: Value,
}

impl Predicate {
    /// Creates a predicate over `attr`.
    pub fn new(attr: impl Into<String>, op: Op, value: impl Into<Value>) -> Self {
        Predicate {
            attr: attr.into(),
            op,
            value: value.into(),
        }
    }

    /// Creates the presence predicate `attr *` (any value).
    pub fn any(attr: impl Into<String>) -> Self {
        Predicate::new(attr, Op::Any, 0)
    }

    /// The attribute this predicate constrains.
    pub fn attr(&self) -> &str {
        &self.attr
    }

    /// The operator.
    pub fn op(&self) -> Op {
        self.op
    }

    /// The operand value.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// Evaluates the predicate against the value a publication carries
    /// for this attribute.
    ///
    /// Comparisons between incomparable kinds (e.g. `price < 10` against
    /// a string-valued `price`) are unsatisfied rather than an error, in
    /// keeping with content-based matching semantics.
    pub fn satisfied_by(&self, v: &Value) -> bool {
        match self.op {
            Op::Any => true,
            Op::Eq => v.sem_eq(&self.value),
            Op::Neq => {
                // Only values of a comparable kind can be "not equal";
                // an incomparable kind does not satisfy any constraint.
                matches!(
                    v.compare(&self.value),
                    Some(Ordering::Less) | Some(Ordering::Greater)
                )
            }
            Op::Lt => v.compare(&self.value) == Some(Ordering::Less),
            Op::Le => matches!(
                v.compare(&self.value),
                Some(Ordering::Less) | Some(Ordering::Equal)
            ),
            Op::Gt => v.compare(&self.value) == Some(Ordering::Greater),
            Op::Ge => matches!(
                v.compare(&self.value),
                Some(Ordering::Greater) | Some(Ordering::Equal)
            ),
            Op::StrPrefix => match (v.as_str(), self.value.as_str()) {
                (Some(s), Some(p)) => s.starts_with(p),
                _ => false,
            },
            Op::StrSuffix => match (v.as_str(), self.value.as_str()) {
                (Some(s), Some(p)) => s.ends_with(p),
                _ => false,
            },
            Op::StrContains => match (v.as_str(), self.value.as_str()) {
                (Some(s), Some(p)) => s.contains(p),
                _ => false,
            },
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.op == Op::Any {
            write!(f, "[{} *]", self.attr)
        } else {
            write!(f, "[{} {} {}]", self.attr, self.op, self.value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_ops_on_ints() {
        let lt = Predicate::new("x", Op::Lt, 10);
        assert!(lt.satisfied_by(&Value::Int(9)));
        assert!(!lt.satisfied_by(&Value::Int(10)));
        let le = Predicate::new("x", Op::Le, 10);
        assert!(le.satisfied_by(&Value::Int(10)));
        let gt = Predicate::new("x", Op::Gt, 10);
        assert!(gt.satisfied_by(&Value::Int(11)));
        assert!(!gt.satisfied_by(&Value::Int(10)));
        let ge = Predicate::new("x", Op::Ge, 10);
        assert!(ge.satisfied_by(&Value::Int(10)));
        assert!(!ge.satisfied_by(&Value::Int(9)));
    }

    #[test]
    fn ordering_ops_across_numeric_kinds() {
        let p = Predicate::new("x", Op::Lt, 10.5);
        assert!(p.satisfied_by(&Value::Int(10)));
        assert!(!p.satisfied_by(&Value::Int(11)));
    }

    #[test]
    fn eq_and_neq() {
        let eq = Predicate::new("c", Op::Eq, "red");
        assert!(eq.satisfied_by(&Value::from("red")));
        assert!(!eq.satisfied_by(&Value::from("blue")));
        let neq = Predicate::new("c", Op::Neq, "red");
        assert!(neq.satisfied_by(&Value::from("blue")));
        assert!(!neq.satisfied_by(&Value::from("red")));
        // incomparable kind does not satisfy Neq either
        assert!(!neq.satisfied_by(&Value::Int(3)));
    }

    #[test]
    fn any_matches_everything() {
        let p = Predicate::any("x");
        assert!(p.satisfied_by(&Value::Int(0)));
        assert!(p.satisfied_by(&Value::from("s")));
        assert!(p.satisfied_by(&Value::from(false)));
    }

    #[test]
    fn string_ops() {
        let pre = Predicate::new("topic", Op::StrPrefix, "stock/");
        assert!(pre.satisfied_by(&Value::from("stock/ibm")));
        assert!(!pre.satisfied_by(&Value::from("news/ibm")));
        let suf = Predicate::new("topic", Op::StrSuffix, "ibm");
        assert!(suf.satisfied_by(&Value::from("stock/ibm")));
        let con = Predicate::new("topic", Op::StrContains, "ock");
        assert!(con.satisfied_by(&Value::from("stock/ibm")));
        assert!(!con.satisfied_by(&Value::from("bond/ibm")));
    }

    #[test]
    fn string_ops_unsatisfied_by_non_strings() {
        let pre = Predicate::new("topic", Op::StrPrefix, "a");
        assert!(!pre.satisfied_by(&Value::Int(1)));
    }

    #[test]
    fn incomparable_ordering_is_unsatisfied() {
        let p = Predicate::new("x", Op::Lt, 10);
        assert!(!p.satisfied_by(&Value::from("5")));
    }

    #[test]
    fn display_round_trip_is_readable() {
        let p = Predicate::new("price", Op::Le, 100);
        assert_eq!(p.to_string(), "[price <= 100]");
        assert_eq!(Predicate::any("x").to_string(), "[x *]");
    }
}
