//! # transmob-broker
//!
//! The content-based publish/subscribe *routing substrate* of the
//! transmob reproduction of *"Transactional Mobility in Distributed
//! Content-Based Publish/Subscribe Systems"* (ICDCS 2009): PADRES-style
//! brokers with Subscription/Publication Routing Tables, advertisement
//! flooding, subscription routing toward intersecting advertisements,
//! publication forwarding, and the (configurable) covering
//! optimization whose interaction with client mobility the paper
//! analyzes.
//!
//! The central type is [`BrokerCore`], a pure synchronous state
//! machine driven by either the discrete-event simulator
//! (`transmob-sim`), the threaded runtime (`transmob-runtime`), or the
//! instantaneous [`SyncNet`] used in tests. The transactional movement
//! protocols — the paper's contribution — live in `transmob-core` and
//! use the pending-configuration hooks this crate exposes
//! ([`BrokerCore::install_pending_sub`], [`BrokerCore::commit_move`],
//! [`BrokerCore::abort_move`], ...).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod broker;
pub mod messages;
pub mod overlay;
pub mod routing;
pub mod sync_net;
pub mod topology;
pub mod wire;

pub use broker::{
    BrokerConfig, BrokerCore, BrokerStats, CoveringMode, DedupWindow, PrematchedRoutes,
    DEDUP_WINDOW_CAP, MAX_PUB_HOPS,
};
pub use messages::{BrokerOutput, Hop, MsgKind, PubSubMsg};
pub use overlay::OverlayBuilder;
pub use routing::{AdvEntry, Destinations, PendingRoute, Prt, Srt, SubEntry};
pub use sync_net::{Delivery, SyncNet, SyncNetBuilder};
pub use topology::{Route, Topology, TopologyChange, TopologyError};
