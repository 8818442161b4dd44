//! # transmob-workloads
//!
//! The experiment *inputs* of the transmob reproduction of
//! *"Transactional Mobility in Distributed Content-Based
//! Publish/Subscribe Systems"* (ICDCS 2009): the paper's Fig. 6
//! overlay topology (and the Fig. 13 grown variants), the Fig. 7
//! subscription workloads with their exact covering structure, and the
//! client populations / movement patterns of the Sec. 5 experiments;
//! and, for the tests and benches that ask what holding those inputs
//! costs, a byte-counting allocator ([`footprint`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod footprint;
pub mod population;
pub mod subscriptions;
pub mod topology;
pub mod wide;

pub use population::{
    incremental_movers, mixed_population, paper_default, paper_default_between, with_movers,
    ClientSpec,
};
pub use subscriptions::{full_space_adv, SubWorkload, ATTR, ATTR_TAG, ATTR_Y, Y_STRIDE, Y_WIDTH};
pub use topology::{balanced_binary, default_14, grown, random_tree};
pub use wide::{wide_publication, wide_sub_filter, WIDE_ATTRS};
