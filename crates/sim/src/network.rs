//! Network and node performance models.
//!
//! The simulator models each broker as a single-server FIFO queue and
//! each overlay link as a serialization server plus propagation
//! latency. Congestion — the mechanism behind the paper's
//! covering-protocol latency blow-ups — is meant to emerge from these
//! queues: a burst of (un)subscription messages delaying every message
//! behind it, including the movement-protocol messages whose end-to-end
//! time is the measured movement latency.
//!
//! What the simulator charges today is per *frame*, not per message:
//! all of one step's messages to one neighbour travel as one frame, and
//! `Sim::service_done` draws one processing time ([`NodeModel::process`]
//! plus the table term, jittered) for the whole frame at its receiver,
//! while `Sim::ship_batch` books one serialization slot
//! ([`LinkModel::serialize`]) and one latency sample for it on the link.
//! A burst of N messages to one neighbour therefore costs one service
//! time, and message complexity does not become queueing. Charging per
//! message, as the paper's FIFO server does, is the pending model fix
//! (ROADMAP item 1).
//!
//! Two presets reproduce the paper's testbeds:
//!
//! - [`NetworkModel::cluster`] — the homogeneous 1.86 GHz data-centre
//!   cluster (LAN latencies, fast stable processing);
//! - [`NetworkModel::planetlab`] — the shared wide-area testbed
//!   (heterogeneous tens-of-ms link latencies, slower and noisier
//!   processing), seeded per run.
//!
//! A third, [`NetworkModel::instant`], costs nothing anywhere: the
//! protocol tests' global-FIFO network.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transmob_pubsub::BrokerId;

use crate::time::SimDuration;

/// Performance model of one overlay link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Propagation latency.
    pub latency: SimDuration,
    /// Serialization time of one frame, however many messages it
    /// carries (the link is a FIFO server; see the module docs).
    pub serialize: SimDuration,
    /// Multiplicative jitter amplitude on the latency (0.1 = ±10%).
    pub jitter: f64,
}

impl LinkModel {
    /// Samples a propagation latency on this link.
    pub fn sample_latency(&self, rng: &mut StdRng) -> SimDuration {
        jittered(self.latency, self.jitter, rng)
    }

    /// A LAN-class link.
    pub fn lan() -> Self {
        LinkModel {
            latency: SimDuration::from_micros(200),
            serialize: SimDuration::from_micros(10),
            jitter: 0.05,
        }
    }
}

/// Performance model of a broker node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeModel {
    /// Base processing time of one frame, however many messages it
    /// carries (the broker is a FIFO server; see the module docs).
    pub process: SimDuration,
    /// Additional processing time per routing-table entry, charged
    /// with [`NodeModel::process`] once a frame: matching a message
    /// against the SRT/PRT grows with table size, which is how
    /// densely-populated endpoint brokers become the congestion points
    /// the paper's covering-protocol latencies reflect.
    pub per_entry: SimDuration,
    /// Multiplicative jitter amplitude on processing time.
    pub jitter: f64,
}

impl NodeModel {
    /// Samples the processing delay of one frame at a broker whose
    /// routing tables hold `table_entries` rows.
    pub fn sample_process(&self, table_entries: usize, rng: &mut StdRng) -> SimDuration {
        let base = self.process
            + SimDuration::from_nanos(self.per_entry.as_nanos() * table_entries as u64);
        jittered(base, self.jitter, rng)
    }
}

/// The full network model: per-link and per-node parameters. A driver
/// that looks a model up on every frame resolves it once instead
/// ([`NetworkModel::node_model`], [`NetworkModel::link`]) and samples
/// the resolved one.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    default_link: LinkModel,
    overrides: Vec<((BrokerId, BrokerId), LinkModel)>,
    /// Node model applied at every broker without an override.
    pub node: NodeModel,
    node_overrides: Vec<(BrokerId, NodeModel)>,
}

impl NetworkModel {
    /// Builds a homogeneous model.
    pub fn uniform(link: LinkModel, node: NodeModel) -> Self {
        NetworkModel {
            default_link: link,
            overrides: Vec::new(),
            node,
            node_overrides: Vec::new(),
        }
    }

    /// Overrides the node model of one broker (heterogeneous
    /// deployments: a slow shared machine, a beefy data-centre node).
    pub fn with_node_override(mut self, broker: BrokerId, node: NodeModel) -> Self {
        self.node_overrides.retain(|(b, _)| *b != broker);
        self.node_overrides.push((broker, node));
        self
    }

    /// The node model in effect at `broker`.
    pub fn node_model(&self, broker: BrokerId) -> NodeModel {
        self.node_overrides
            .iter()
            .find(|(b, _)| *b == broker)
            .map(|(_, n)| *n)
            .unwrap_or(self.node)
    }

    /// The paper's local data-centre cluster: LAN links, fast
    /// deterministic-ish processing.
    pub fn cluster() -> Self {
        NetworkModel::uniform(
            LinkModel::lan(),
            NodeModel {
                process: SimDuration::from_micros(200),
                per_entry: SimDuration::from_micros(2),
                jitter: 0.1,
            },
        )
    }

    /// The zero-cost network: no processing, serialization or latency,
    /// no jitter. Every event is stamped with the current instant, so
    /// the simulator's `(time, sequence)` order degenerates to send
    /// order: one global FIFO of frames. Protocol tests run on it and
    /// step it by hand (`Sim::client_op`, `Sim::step_n`,
    /// `Sim::fire_timer`).
    pub fn instant() -> Self {
        NetworkModel::uniform(
            LinkModel {
                latency: SimDuration::ZERO,
                serialize: SimDuration::ZERO,
                jitter: 0.0,
            },
            NodeModel {
                process: SimDuration::ZERO,
                per_entry: SimDuration::ZERO,
                jitter: 0.0,
            },
        )
    }

    /// The PlanetLab wide-area testbed: heterogeneous link latencies
    /// (drawn per link from a heavy-ish tailed range, deterministic
    /// per `seed`), high jitter, slow shared-node processing.
    ///
    /// `links` enumerates the overlay's undirected edges.
    pub fn planetlab(links: &[(BrokerId, BrokerId)], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let overrides = links
            .iter()
            .map(|&(a, b)| {
                // 15–180 ms, skewed toward the low end.
                let base_ms: f64 = 15.0 + 165.0 * rng.gen::<f64>().powi(2);
                let link = LinkModel {
                    latency: SimDuration::from_micros((base_ms * 1000.0) as u64),
                    serialize: SimDuration::from_micros(60),
                    jitter: 0.35,
                };
                ((a, b), link)
            })
            .collect();
        // PlanetLab nodes are shared and uneven: drawn per broker,
        // 1–6 ms base processing, deterministic per seed. The node set
        // is derived from the link endpoints.
        let mut node_rng = StdRng::seed_from_u64(seed ^ 0x517cc1b727220a95);
        let mut seen = Vec::new();
        let mut node_overrides = Vec::new();
        for &(a, b) in links {
            for n in [a, b] {
                if !seen.contains(&n) {
                    seen.push(n);
                    let base_ms = 1.0 + 5.0 * node_rng.gen::<f64>().powi(2);
                    node_overrides.push((
                        n,
                        NodeModel {
                            process: SimDuration::from_micros((base_ms * 1000.0) as u64),
                            per_entry: SimDuration::from_micros(20),
                            jitter: 0.5,
                        },
                    ));
                }
            }
        }
        NetworkModel {
            default_link: LinkModel {
                latency: SimDuration::from_millis(40),
                serialize: SimDuration::from_micros(60),
                jitter: 0.35,
            },
            overrides,
            node: NodeModel {
                process: SimDuration::from_millis(2),
                per_entry: SimDuration::from_micros(20),
                jitter: 0.5,
            },
            node_overrides,
        }
    }

    /// The link model for the (undirected) edge `a`–`b`.
    pub fn link(&self, a: BrokerId, b: BrokerId) -> LinkModel {
        let key = if a < b { (a, b) } else { (b, a) };
        self.overrides
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, l)| *l)
            .unwrap_or(self.default_link)
    }

    /// Samples a processing delay at `broker`, whose routing tables
    /// hold `table_entries` rows.
    pub fn sample_process(
        &self,
        broker: BrokerId,
        table_entries: usize,
        rng: &mut StdRng,
    ) -> SimDuration {
        self.node_model(broker).sample_process(table_entries, rng)
    }

    /// Samples a propagation latency for the edge `a`–`b`.
    pub fn sample_latency(&self, a: BrokerId, b: BrokerId, rng: &mut StdRng) -> SimDuration {
        self.link(a, b).sample_latency(rng)
    }
}

fn jittered(base: SimDuration, amp: f64, rng: &mut StdRng) -> SimDuration {
    if amp <= 0.0 {
        return base;
    }
    let f = 1.0 + amp * (rng.gen::<f64>() * 2.0 - 1.0);
    base.mul_f64(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_is_uniform() {
        let m = NetworkModel::cluster();
        assert_eq!(
            m.link(BrokerId(1), BrokerId(2)),
            m.link(BrokerId(7), BrokerId(9))
        );
    }

    #[test]
    fn planetlab_is_heterogeneous_and_deterministic() {
        let links = vec![
            (BrokerId(1), BrokerId(2)),
            (BrokerId(2), BrokerId(3)),
            (BrokerId(3), BrokerId(4)),
        ];
        let a = NetworkModel::planetlab(&links, 42);
        let b = NetworkModel::planetlab(&links, 42);
        let c = NetworkModel::planetlab(&links, 43);
        // Deterministic per seed:
        assert_eq!(
            a.link(BrokerId(1), BrokerId(2)),
            b.link(BrokerId(1), BrokerId(2))
        );
        // Different links differ (with overwhelming probability):
        let l12 = a.link(BrokerId(1), BrokerId(2)).latency;
        let l23 = a.link(BrokerId(2), BrokerId(3)).latency;
        assert_ne!(l12, l23);
        // Different seeds differ:
        assert_ne!(l12, c.link(BrokerId(1), BrokerId(2)).latency);
        // Wide-area latencies are much larger than LAN.
        assert!(l12 >= SimDuration::from_millis(10));
    }

    #[test]
    fn link_lookup_is_direction_agnostic() {
        let links = vec![(BrokerId(1), BrokerId(2))];
        let m = NetworkModel::planetlab(&links, 1);
        assert_eq!(
            m.link(BrokerId(1), BrokerId(2)),
            m.link(BrokerId(2), BrokerId(1))
        );
    }

    #[test]
    fn node_overrides_and_heterogeneity() {
        let slow = NodeModel {
            process: SimDuration::from_millis(50),
            per_entry: SimDuration::ZERO,
            jitter: 0.0,
        };
        let m = NetworkModel::cluster().with_node_override(BrokerId(3), slow);
        assert_eq!(
            m.node_model(BrokerId(3)).process,
            SimDuration::from_millis(50)
        );
        assert_eq!(m.node_model(BrokerId(1)), m.node);
        // Planetlab nodes differ from each other, deterministically.
        let links = vec![(BrokerId(1), BrokerId(2)), (BrokerId(2), BrokerId(3))];
        let a = NetworkModel::planetlab(&links, 9);
        let b = NetworkModel::planetlab(&links, 9);
        assert_eq!(
            a.node_model(BrokerId(1)).process,
            b.node_model(BrokerId(1)).process
        );
        assert_ne!(
            a.node_model(BrokerId(1)).process,
            a.node_model(BrokerId(3)).process
        );
    }

    #[test]
    fn jitter_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let base = SimDuration::from_millis(10);
        assert!(
            NetworkModel::cluster().sample_process(BrokerId(1), 100, &mut rng)
                > NetworkModel::cluster().sample_process(BrokerId(1), 0, &mut rng)
        );
        for _ in 0..100 {
            let d = jittered(base, 0.2, &mut rng);
            assert!(d >= SimDuration::from_millis(8) && d <= SimDuration::from_millis(12));
        }
        assert_eq!(jittered(base, 0.0, &mut rng), base);
    }
}
