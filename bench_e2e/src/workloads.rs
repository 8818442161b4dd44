//! The seven workloads: who subscribes to what where, what is published,
//! and how load is offered. Everything is a pure function of the seed.

use transmob_broker::Topology;
use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob_workloads::{
    default_14, paper_default, wide_publication, wide_sub_filter, SubWorkload, ATTR,
};

/// Length of every workload's publication content cycle; the oracle
/// precomputes the expected notification set of each entry.
pub const CONTENT_CYCLE: usize = 4096;

/// Publishers are clients 1, 2, ..; subscriber `i` is client
/// `SUBSCRIBER_BASE + i`, which is how a notification's `ClientId`
/// maps back to an oracle index.
pub const SUBSCRIBER_BASE: u64 = 1000;
const CHURNER: ClientId = ClientId(900);

/// The workloads BENCHMARK.json lists, which the PR driver gates: the
/// simulator's. It runs on one thread, so process CPU per operation is
/// its thread's and nothing but the work; the threaded drivers' seven
/// and more threads on this host's two shared vCPUs measured the
/// host's scheduling (README, "What is gated and what is not").
pub const GATED: [&str; 3] = ["sim-reconfig", "sim-cyclic", "sim-match"];

/// Every name `--workload` accepts, in reporting order.
pub const NAMES: [&str; 7] = [
    "sim-reconfig",
    "sim-cyclic",
    "sim-match",
    "chan-match",
    "chan-churn",
    "tcp-fanout",
    "tcp-moves",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `transmob_sim::Sim`, virtual time.
    Sim,
    /// `transmob_runtime::Network`, broker threads over channels.
    Channel,
    /// `transmob_runtime::tcp::TcpNetwork`, binary wire on loopback.
    Tcp,
}

#[derive(Debug, Clone)]
pub struct Subscriber {
    pub id: ClientId,
    pub home: BrokerId,
    pub filters: Vec<Filter>,
    /// Ping-pong destinations, visited round-robin; empty = stationary.
    pub route: Vec<BrokerId>,
}

#[derive(Debug, Clone)]
pub struct Publisher {
    pub id: ClientId,
    pub home: BrokerId,
}

impl Publisher {
    /// The `PubId` of this client's `seq`-th publication (counting
    /// from 0), as its stub numbers them (`HostedClient::next_pub_id`):
    /// the key notifications are matched to publications by.
    pub fn pub_id(&self, seq: u64) -> u64 {
        (self.id.0 << 32) | seq
    }
}

/// A client outside the oracle that alternately subscribes and
/// unsubscribes `filter`, writing to the routing tables the
/// publications read.
#[derive(Debug, Clone)]
pub struct Churner {
    pub id: ClientId,
    pub home: BrokerId,
    pub filter: Filter,
}

/// How load is offered in a round, and how much of it. The amounts
/// are fixed so that every round does the same work from the same
/// start; they are sized for a round of one to three seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Sim: every subscriber ping-pongs with `pause_s` virtual seconds
    /// between movements while each publisher publishes at `pub_rate`
    /// per virtual second, for `window_s` virtual seconds. An
    /// operation is a movement.
    SimMoves {
        pause_s: u64,
        pub_rate: f64,
        window_s: u64,
    },
    /// Sim: stationary subscribers, each publisher at `pub_rate` per
    /// virtual second for `window_s` virtual seconds. An operation is
    /// a publication.
    SimPubs { pub_rate: f64, window_s: u64 },
    /// Threaded drivers: a closed loop with `window` publications in
    /// flight (`warmup` untimed, then `closed` timed for throughput),
    /// then an open loop of `open` publications at `open_rate` per
    /// second for latency. `churn_rate` > 0 adds the churner's
    /// open-loop subscribe/unsubscribe schedule to every phase.
    Pubs {
        window: usize,
        warmup: usize,
        closed: usize,
        open: usize,
        open_rate: f64,
        churn_rate: f64,
    },
    /// Threaded drivers: movers ping-pong in a closed loop (the next
    /// movement starts when the previous one's outcome arrived;
    /// `warmup` untimed, then `moves` timed) beside an open-loop
    /// schedule of `pub_rate` publications per second. An operation
    /// is a movement.
    Moves {
        pub_rate: f64,
        warmup: usize,
        moves: usize,
    },
}

impl Load {
    /// Whether an operation of this workload is a movement.
    pub fn ops_are_moves(self) -> bool {
        matches!(self, Load::SimMoves { .. } | Load::Moves { .. })
    }
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub driver: Driver,
    pub topology: Topology,
    /// What every publisher advertises.
    pub adv: Filter,
    pub publishers: Vec<Publisher>,
    pub subscribers: Vec<Subscriber>,
    pub churner: Option<Churner>,
    /// The publication content cycle ([`CONTENT_CYCLE`] entries).
    pub contents: Vec<Publication>,
    pub load: Load,
    pub seed: u64,
}

/// One step of a workload's deterministic operation stream, as the
/// traced replay consumes it.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Publish { publisher: usize, content: usize },
    Move { subscriber: usize, to: BrokerId },
    ChurnSubscribe,
    ChurnUnsubscribe,
}

fn b(i: u32) -> BrokerId {
    BrokerId(i)
}

/// Spreads seeds over the generators' index space so that two seeds
/// share no filter and no publication.
fn offset(seed: u64) -> usize {
    (seed % 1_000_000) as usize * 1_000_003
}

fn wide_adv() -> Filter {
    // Every wide publication carries every attribute, so one
    // half-open band on the first covers the whole content space.
    Filter::builder().ge("k00", 0).build()
}

fn wide_contents(seed: u64) -> Vec<Publication> {
    (0..CONTENT_CYCLE)
        .map(|i| wide_publication(offset(seed) + i))
        .collect()
}

/// `rows` wide subscriptions dealt evenly to `clients` subscribers
/// alternating between brokers 2 and 3 of `chain(3)`.
fn wide_subscribers(seed: u64, rows: usize, clients: usize) -> Vec<Subscriber> {
    (0..clients)
        .map(|c| Subscriber {
            id: ClientId(SUBSCRIBER_BASE + c as u64),
            home: b(2 + (c % 2) as u32),
            filters: (0..rows / clients)
                .map(|r| wide_sub_filter(offset(seed) + r * clients + c))
                .collect(),
            route: Vec::new(),
        })
        .collect()
}

/// Single-attribute contents spread over `[lo, lo + span)`.
fn x_contents(seed: u64, lo: i64, span: i64) -> Vec<Publication> {
    (0..CONTENT_CYCLE)
        .map(|i| {
            let x = lo + ((offset(seed) + i) as i64 * 37) % span;
            Publication::new().with(ATTR, x)
        })
        .collect()
}

/// Contents that always land inside one of the ten `Distinct` groups
/// (group `g` spans `[50 000 + 2 000 g, +800]`, shifted by up to 39 per
/// subscriber), so every publication has a subscriber and an operation
/// is always a delivery. Offsets near a group's edges reach only the
/// instances shifted far enough, so the oracle sets vary in size.
fn distinct_contents(seed: u64) -> Vec<Publication> {
    (0..CONTENT_CYCLE)
        .map(|i| {
            let k = (offset(seed) + i) as i64;
            let x = 50_000 + 2_000 * ((k * 7) % 10) + (k * 37) % 840;
            Publication::new().with(ATTR, x)
        })
        .collect()
}

/// The paper's population: `n` subscribers of `workload` split over
/// brokers 1 and 2, ping-ponging 1<->13 and 2<->14 when `mobile`.
fn paper_subscribers(n: usize, workload: SubWorkload, mobile: bool) -> Vec<Subscriber> {
    paper_default(n, workload)
        .into_iter()
        .enumerate()
        .map(|(i, c)| Subscriber {
            id: ClientId(SUBSCRIBER_BASE + i as u64),
            home: c.start,
            filters: vec![c.subscription],
            route: if mobile { c.route } else { Vec::new() },
        })
        .collect()
}

fn publishers_at(homes: &[u32]) -> Vec<Publisher> {
    homes
        .iter()
        .enumerate()
        .map(|(i, h)| Publisher {
            id: ClientId(1 + i as u64),
            home: b(*h),
        })
        .collect()
}

/// Builds the named workload from `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Spec> {
    let full_x = Filter::builder().ge(ATTR, 0).le(ATTR, 100_000).build();
    let spec = match name {
        "sim-reconfig" => Spec {
            name: "sim-reconfig",
            driver: Driver::Sim,
            topology: default_14(),
            adv: full_x,
            publishers: publishers_at(&[6, 10, 14]),
            subscribers: paper_subscribers(400, SubWorkload::Covered, true),
            churner: None,
            contents: x_contents(seed, 0, 10_000),
            load: Load::SimMoves {
                pause_s: 10,
                pub_rate: 1.0,
                window_s: 400,
            },
            seed,
        },
        "sim-cyclic" => {
            let mut topology = default_14();
            for (x, y) in [(1, 13), (2, 14), (5, 12)] {
                topology
                    .add_edge(b(x), b(y))
                    .expect("cycle-closing edge between existing brokers");
            }
            Spec {
                name: "sim-cyclic",
                driver: Driver::Sim,
                topology,
                adv: full_x,
                publishers: publishers_at(&[6, 10, 14]),
                subscribers: paper_subscribers(400, SubWorkload::Distinct, false),
                churner: None,
                contents: distinct_contents(seed),
                load: Load::SimPubs {
                    pub_rate: 50.0,
                    window_s: 40,
                },
                seed,
            }
        }
        "sim-match" => Spec {
            name: "sim-match",
            driver: Driver::Sim,
            topology: Topology::chain(3),
            adv: wide_adv(),
            publishers: publishers_at(&[1]),
            subscribers: wide_subscribers(seed, 10_000, 20),
            churner: None,
            contents: wide_contents(seed),
            // A simulated broker takes 20 ms a message at 10 000 rows;
            // 10 pub/s keeps its queue empty.
            load: Load::SimPubs {
                pub_rate: 10.0,
                window_s: 80,
            },
            seed,
        },
        "chan-match" | "chan-churn" => {
            let churn = name == "chan-churn";
            Spec {
                name: if churn { "chan-churn" } else { "chan-match" },
                driver: Driver::Channel,
                topology: Topology::chain(3),
                adv: wide_adv(),
                publishers: publishers_at(&[1]),
                subscribers: wide_subscribers(seed, 10_000, 20),
                churner: churn.then(|| Churner {
                    id: CHURNER,
                    home: b(3),
                    filter: wide_sub_filter(offset(seed) + 10_000),
                }),
                contents: wide_contents(seed),
                // 100 publications a second is a tenth of what the
                // overlay sustains on this box: the latency phase
                // measures the path, not a queue, also on a host
                // several times slower.
                load: Load::Pubs {
                    window: 64,
                    warmup: 200,
                    closed: 800,
                    open: 120,
                    open_rate: 100.0,
                    churn_rate: if churn { 100.0 } else { 0.0 },
                },
                seed,
            }
        }
        "tcp-fanout" => Spec {
            name: "tcp-fanout",
            driver: Driver::Tcp,
            topology: Topology::chain(3),
            adv: wide_adv(),
            publishers: publishers_at(&[1]),
            subscribers: wide_subscribers(seed, 200, 4),
            churner: None,
            contents: wide_contents(seed),
            load: Load::Pubs {
                window: 64,
                warmup: 200,
                closed: 1200,
                open: 300,
                open_rate: 300.0,
                churn_rate: 0.0,
            },
            seed,
        },
        "tcp-moves" => Spec {
            name: "tcp-moves",
            driver: Driver::Tcp,
            topology: Topology::chain(3),
            adv: full_x.clone(),
            publishers: publishers_at(&[2]),
            // Two overlapping halves of the space, so the oracle sets
            // are {0}, {0,1} and {1} in turn.
            subscribers: [(0, 60_000, 1, 3), (40_000, 100_000, 3, 1)]
                .iter()
                .enumerate()
                .map(|(i, (lo, hi, home, far))| Subscriber {
                    id: ClientId(SUBSCRIBER_BASE + i as u64),
                    home: b(*home),
                    filters: vec![Filter::builder().ge(ATTR, *lo).le(ATTR, *hi).build()],
                    route: vec![b(*far), b(*home)],
                })
                .collect(),
            churner: None,
            contents: x_contents(seed, 0, 100_000),
            load: Load::Moves {
                pub_rate: 50.0,
                warmup: 6,
                moves: 50,
            },
            seed,
        },
        _ => return None,
    };
    Some(spec)
}

impl Spec {
    /// Each subscriber's filters, in oracle index order.
    pub fn filter_table(&self) -> Vec<Vec<Filter>> {
        self.subscribers.iter().map(|s| s.filters.clone()).collect()
    }

    /// Subscriptions installed before the measured phase.
    pub fn rows(&self) -> usize {
        self.subscribers.iter().map(|s| s.filters.len()).sum()
    }

    /// The first `n` operations of the workload's stream, with the
    /// measured phase's mix of kinds (the rates above, turned into
    /// ratios) and none of its timing.
    pub fn op_prefix(&self, n: usize) -> Vec<Op> {
        let publish = |k: usize| Op::Publish {
            publisher: k % self.publishers.len(),
            content: k % CONTENT_CYCLE,
        };
        let mut moves_of = vec![0usize; self.subscribers.len()];
        let mut next_move = |k: usize| {
            let subscriber = k % self.subscribers.len();
            let route = &self.subscribers[subscriber].route;
            let to = route[moves_of[subscriber] % route.len()];
            moves_of[subscriber] += 1;
            Op::Move { subscriber, to }
        };
        let (mut pubs, mut moves, mut churns) = (0usize, 0usize, 0usize);
        (0..n)
            .map(|i| {
                let is_publish = match self.load {
                    Load::SimPubs { .. } => true,
                    // One table write per ten operations.
                    Load::Pubs { churn_rate, .. } => churn_rate == 0.0 || i % 10 != 9,
                    // 400 movers pausing 10 s beside 3 pubs/s: 3
                    // publications per 40 movements.
                    Load::SimMoves { .. } => i % 43 >= 40,
                    // ~25 movements/s beside 50 pubs/s: 2 publications
                    // per movement.
                    Load::Moves { .. } => i % 3 != 2,
                };
                if is_publish {
                    pubs += 1;
                    publish(pubs - 1)
                } else if self.load.ops_are_moves() {
                    moves += 1;
                    next_move(moves - 1)
                } else {
                    churns += 1;
                    if churns % 2 == 1 {
                        Op::ChurnSubscribe
                    } else {
                        Op::ChurnUnsubscribe
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_and_is_seed_deterministic() {
        for name in NAMES {
            let a = build(name, 3).expect(name);
            let again = build(name, 3).expect(name);
            assert_eq!(a.name, name);
            assert_eq!(a.contents, again.contents);
            assert_eq!(a.filter_table(), again.filter_table());
            assert_eq!(a.contents.len(), CONTENT_CYCLE);
            assert_eq!(a.op_prefix(200), again.op_prefix(200));
        }
        assert!(build("nope", 0).is_none());
        assert!(GATED.iter().all(|g| NAMES.contains(g)));
    }

    #[test]
    fn seed_moves_the_wide_inputs() {
        let a = build("chan-match", 1).unwrap();
        let c = build("chan-match", 2).unwrap();
        assert_ne!(a.contents[0], c.contents[0]);
        assert_ne!(a.subscribers[0].filters[0], c.subscribers[0].filters[0]);
        assert_eq!(a.rows(), 10_000);
        assert_eq!(build("tcp-fanout", 1).unwrap().rows(), 200);
    }

    #[test]
    fn op_mix_follows_the_load() {
        let kinds = |name: &str| {
            let ops = build(name, 0).unwrap().op_prefix(430);
            let moves = ops.iter().filter(|o| matches!(o, Op::Move { .. })).count();
            let churn = ops
                .iter()
                .filter(|o| matches!(o, Op::ChurnSubscribe | Op::ChurnUnsubscribe))
                .count();
            (moves, churn)
        };
        assert_eq!(kinds("sim-reconfig"), (400, 0));
        assert_eq!(kinds("sim-cyclic"), (0, 0));
        assert_eq!(kinds("chan-churn"), (0, 43));
        assert_eq!(kinds("tcp-moves"), (143, 0));
        // Movers ping-pong: far broker first, then home again.
        let spec = build("tcp-moves", 0).unwrap();
        let to: Vec<BrokerId> = spec
            .op_prefix(12)
            .into_iter()
            .filter_map(|o| match o {
                Op::Move { subscriber: 0, to } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(to, vec![b(3), b(1)]);
    }
}
