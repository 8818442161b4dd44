//! # transmob-pubsub
//!
//! The content-based publish/subscribe *language model* underlying the
//! transmob reproduction of *"Transactional Mobility in Distributed
//! Content-Based Publish/Subscribe Systems"* (ICDCS 2009).
//!
//! This crate is the paper's PADRES-style data model: subscriptions and
//! advertisements are conjunctions of `(attribute, operator, value)`
//! predicates ([`Filter`]), publications are sets of
//! `(attribute, value)` pairs ([`Publication`]), and routing is driven
//! by three relations:
//!
//! - **matching** — [`Filter::matches`] a [`Publication`];
//! - **covering** — [`Filter::covers`], the subsumption relation behind
//!   the covering optimization whose mobile-client pathology the paper
//!   analyzes;
//! - **intersection** — [`Filter::overlaps`], which routes
//!   subscriptions toward advertisements.
//!
//! Higher layers live in sibling crates: `transmob-broker` (routing
//! tables and the broker state machine), `transmob-core` (the
//! transactional movement protocols — the paper's contribution),
//! `transmob-sim` (the discrete-event testbed), `transmob-workloads`
//! (the paper's Fig. 6/7 inputs) and `transmob-runtime` (a threaded
//! deployment).
//!
//! # Examples
//!
//! ```
//! use transmob_pubsub::{Filter, Publication};
//!
//! // A subscription for cheap IBM quotes...
//! let sub = Filter::builder().eq("symbol", "IBM").lt("price", 100).build();
//! // ...an advertisement promising IBM quotes at any price...
//! let adv = Filter::builder().eq("symbol", "IBM").ge("price", 0).build();
//! // ...and a broader subscription covering the first.
//! let broad = Filter::builder().eq("symbol", "IBM").build();
//!
//! assert!(adv.overlaps(&sub));   // sub is routed toward adv
//! assert!(broad.covers(&sub));   // sub is quenched by broad
//! let quote = Publication::new().with("symbol", "IBM").with("price", 88);
//! assert!(sub.matches(&quote));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod constraint;
pub mod fasthash;
pub mod filter;
pub mod index;
pub mod message;
pub mod predicate;
pub mod publication;
pub mod value;
pub mod wire;

pub use constraint::Constraint;
pub use filter::{Filter, FilterBuilder};
pub use index::{MatchIndex, Parallelism};
pub use message::{
    AdvId, Advertisement, BrokerId, ClientId, MoveId, PubId, PublicationMsg, SubId, Subscription,
};
pub use predicate::{Op, Predicate};
pub use publication::Publication;
pub use value::{Value, ValueKind};
pub use wire::{StrDecTable, StrEncTable, Wire, WireError, WireReader, WireWriter};
