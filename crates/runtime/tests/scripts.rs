//! One scenario suite for every driver: seeded scripts of client
//! commands and barriers, each run on `Sim` under the instant and the
//! cluster network model, on the channel `Network` and on the
//! `TcpNetwork` (DESIGN.md §3, §12).
//!
//! Creates, (un)subscriptions, (un)advertisements and covering moves
//! (covering loses in-flight publications by design,
//! `notification_properties.rs`) sit between barriers, apart from
//! traffic. Reconfiguration moves, publication bursts and pause/resume
//! overlap freely between barriers, several moves of one client
//! included: the paper's transparency claim under concurrency. After
//! the last barrier every run must show each client every publication
//! at most once, one running copy of each client, SRT routes on the
//! paths to their publishers and no anomaly, and the four runs must
//! agree on the delivered sets, committed movements and final homes.
//! Random scripts advertise the whole space and never withdraw it, so
//! filter matching alone predicts all three ([`oracle`]). Outcome order
//! is not compared: two movements of one client may report their ends
//! out of order on threads.
//!
//! The number of random scripts honours `CHAOS_CASES` (default 6).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transmob_broker::Topology;
use transmob_core::properties::{self, Frozen, NetworkView};
use transmob_core::{ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId, Filter, PubId, Publication};
use transmob_runtime::tcp::TcpNetwork;
use transmob_runtime::{Client, Network};
use transmob_sim::{NetworkModel, Sim};
use transmob_workloads::{default_14, full_space_adv, random_tree, ATTR};

#[derive(Debug, Clone)]
enum Step {
    Create(ClientId, BrokerId),
    Op(ClientId, ClientOp),
    Barrier,
}

struct Script {
    name: String,
    topology: Topology,
    config: MobileBrokerConfig,
    steps: Vec<Step>,
}

/// What a run ends with, per client.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    delivered: BTreeMap<ClientId, BTreeSet<PubId>>,
    committed_moves: BTreeMap<ClientId, usize>,
    homes: BTreeMap<ClientId, BrokerId>,
}

/// Checks what every run must end with, and gathers its outcome.
fn finish(
    run: &str,
    view: &impl NetworkView,
    streams: BTreeMap<ClientId, Vec<PubId>>,
    committed_moves: BTreeMap<ClientId, usize>,
) -> Outcome {
    let fail = |e: properties::PropertyViolation| panic!("{run}: {e}");
    properties::assert_single_instance(view).unwrap_or_else(fail);
    properties::check_srt_paths(view).unwrap_or_else(fail);
    for b in view.view_broker_ids() {
        let broker = view.view_broker(b);
        let anomalies = broker.anomalies() + broker.core().stats().anomalies;
        assert_eq!(anomalies, 0, "{run}: anomalies at {b}");
    }
    let home = |c| view.view_find_client(c).expect("client hosted");
    let mut out = Outcome {
        homes: streams.keys().map(|&c| (c, home(c))).collect(),
        committed_moves,
        ..Outcome::default()
    };
    for (c, ids) in streams {
        properties::assert_exactly_once(ids.iter().copied()).unwrap_or_else(fail);
        out.delivered.insert(c, ids.into_iter().collect());
    }
    out
}

fn on_sim(script: &Script, model: NetworkModel, run: &str) -> Outcome {
    let mut sim = Sim::builder()
        .overlay(script.topology.clone())
        .options(script.config.clone())
        .network(model)
        .start();
    sim.enable_delivery_log();
    let mut committed = BTreeMap::new();
    for step in &script.steps {
        match step {
            Step::Create(c, b) => {
                sim.create_client(*b, *c);
                committed.insert(*c, 0);
            }
            Step::Op(c, op) => sim.schedule_cmd(sim.now(), *c, op.clone()),
            Step::Barrier => {
                sim.run_to_quiescence();
                let fail = |e| panic!("{run}: {e}");
                properties::check_srt_paths(&sim).unwrap_or_else(fail);
            }
        }
    }
    for rec in sim.metrics.moves.values() {
        *committed.get_mut(&rec.client).expect("created") +=
            usize::from(rec.committed == Some(true));
    }
    let streams = (committed.keys())
        .map(|&c| (c, sim.metrics.deliveries_to(c)))
        .collect();
    finish(run, &sim, streams, committed)
}

/// What the interpreter asks of a threaded runtime.
trait Threaded {
    fn client(&self, broker: BrokerId, id: ClientId) -> Client;
    fn quiesce(&self, timeout: Duration) -> bool;
    fn brokers(&self) -> Frozen;
}

macro_rules! threaded {
    ($($net:ty),*) => {$(
        impl Threaded for $net {
            fn client(&self, broker: BrokerId, id: ClientId) -> Client {
                self.create_client(broker, id)
            }
            fn quiesce(&self, timeout: Duration) -> bool {
                self.quiesce(timeout)
            }
            fn brokers(&self) -> Frozen {
                self.brokers()
            }
        }
    )*};
}
threaded!(Network, TcpNetwork);

fn on_threads(script: &Script, net: &impl Threaded, run: &str) -> Outcome {
    let mut clients = BTreeMap::new();
    for step in &script.steps {
        match step {
            Step::Create(c, b) => {
                clients.insert(*c, net.client(*b, *c));
            }
            Step::Op(c, op) => {
                let client: &Client = &clients[c];
                match op.clone() {
                    ClientOp::Subscribe(f) => client.subscribe(f),
                    ClientOp::Unsubscribe(seq) => client.unsubscribe(seq),
                    ClientOp::Advertise(f) => client.advertise(f),
                    ClientOp::Unadvertise(seq) => client.unadvertise(seq),
                    ClientOp::Publish(p) => client.publish(p),
                    ClientOp::Pause => client.pause(),
                    ClientOp::Resume => client.resume(),
                    ClientOp::MoveTo(to, protocol) => client.move_to_async(to, protocol),
                }
            }
            Step::Barrier => {
                let settled = net.quiesce(Duration::from_secs(30));
                assert!(settled, "{run}: no quiescence");
            }
        }
    }
    let streams = (clients.iter())
        .map(|(&c, client)| (c, client.drain().iter().map(|n| n.id).collect()))
        .collect();
    let committed = (clients.iter())
        .map(|(&c, client)| {
            let outcomes = std::iter::from_fn(|| client.next_move_outcome(Duration::ZERO));
            (c, outcomes.filter(|o| o.committed).count())
        })
        .collect();
    finish(run, &net.brokers(), streams, committed)
}

/// Runs `script` on all four drivers and demands each end with
/// `expected`.
fn run_everywhere(script: &Script, expected: Outcome) {
    let run = |driver: &str| format!("{} on {driver}", script.name);
    let (topology, config) = (|| script.topology.clone(), || script.config.clone());
    let network = Network::builder().overlay(topology()).options(config());
    let tcp = TcpNetwork::builder().overlay(topology()).options(config());
    let runs = [
        on_sim(script, NetworkModel::instant(), &run("Sim/instant")),
        on_sim(script, NetworkModel::cluster(), &run("Sim/cluster")),
        on_threads(script, &network.start(), &run("Network")),
        on_threads(script, &tcp.start().expect("sockets"), &run("TcpNetwork")),
    ];
    for (driver, outcome) in ["Sim/instant", "Sim/cluster", "Network", "TcpNetwork"]
        .iter()
        .zip(&runs)
    {
        assert_eq!(outcome, &expected, "{} diverged", run(driver));
    }
}

/// The outcome a random script must end with: each publication reaches
/// every other client with a matching subscription in place when it was
/// issued, and every movement commits.
fn oracle(script: &Script) -> Outcome {
    let mut out = Outcome::default();
    let mut subs: BTreeMap<ClientId, Vec<Option<Filter>>> = BTreeMap::new();
    let mut published: BTreeMap<ClientId, u64> = BTreeMap::new();
    for step in &script.steps {
        match step {
            Step::Create(c, b) => {
                out.homes.insert(*c, *b);
                out.delivered.insert(*c, BTreeSet::new());
                out.committed_moves.insert(*c, 0);
            }
            Step::Op(c, ClientOp::Subscribe(f)) => {
                subs.entry(*c).or_default().push(Some(f.clone()))
            }
            Step::Op(c, ClientOp::Unsubscribe(seq)) => {
                subs.get_mut(c).unwrap()[*seq as usize] = None
            }
            Step::Op(c, ClientOp::Publish(p)) => {
                let seq = published.entry(*c).or_default();
                let id = PubId((c.0 << 32) | *seq);
                *seq += 1;
                for (s, filters) in subs.iter().filter(|(s, _)| *s != c) {
                    if filters.iter().flatten().any(|f| f.matches(p)) {
                        out.delivered.get_mut(s).unwrap().insert(id);
                    }
                }
            }
            Step::Op(c, ClientOp::MoveTo(to, _)) => {
                out.homes.insert(*c, *to);
                *out.committed_moves.get_mut(c).unwrap() += 1;
            }
            _ => {}
        }
    }
    out
}

/// A random script: clients that all advertise the whole space, then
/// rounds of subscription changes, of overlapping traffic, or (under
/// covering) of one covering move.
fn generate(seed: u64) -> Script {
    let mut rng = StdRng::seed_from_u64(seed);
    let topology = match seed % 3 {
        0 => Topology::chain(4),
        1 => default_14(),
        _ => random_tree(7, seed),
    };
    let covering = rng.gen_bool(0.3);
    let brokers: Vec<BrokerId> = topology.brokers().collect();
    let pick = |rng: &mut StdRng| brokers[rng.gen_range(0..brokers.len())];
    let (mut steps, mut homes, mut subs) = (Vec::new(), BTreeMap::new(), BTreeMap::new());
    for i in 1..=rng.gen_range(3..7u64) {
        let (c, b) = (ClientId(i), pick(&mut rng));
        homes.insert(c, b);
        steps.push(Step::Create(c, b));
        steps.push(Step::Op(c, ClientOp::Advertise(full_space_adv())));
    }
    steps.push(Step::Barrier);
    let clients: Vec<ClientId> = homes.keys().copied().collect();
    for _ in 0..rng.gen_range(6..12) {
        let c = clients[rng.gen_range(0..clients.len())];
        match rng.gen_range(0..4) {
            0 => {
                let live: &mut Vec<bool> = subs.entry(c).or_default();
                let active: Vec<usize> = (0..live.len()).filter(|&s| live[s]).collect();
                if active.is_empty() || rng.gen_bool(0.7) {
                    live.push(true);
                    let lo = rng.gen_range(0..900i64);
                    let hi = lo + rng.gen_range(50..400i64);
                    let f = Filter::builder().ge(ATTR, lo).le(ATTR, hi).build();
                    steps.push(Step::Op(c, ClientOp::Subscribe(f)));
                } else {
                    let seq = active[rng.gen_range(0..active.len())];
                    live[seq] = false;
                    steps.push(Step::Op(c, ClientOp::Unsubscribe(seq as u32)));
                }
            }
            1 if covering => {
                let to = pick(&mut rng);
                if to != homes[&c] {
                    homes.insert(c, to);
                    steps.push(Step::Op(c, ClientOp::MoveTo(to, ProtocolKind::Covering)));
                }
            }
            _ => traffic(&mut rng, &clients, &mut homes, &pick, covering, &mut steps),
        }
        steps.push(Step::Barrier);
    }
    let config = if covering {
        MobileBrokerConfig::covering()
    } else {
        MobileBrokerConfig::reconfig()
    };
    let name = format!("script {seed}");
    Script {
        name,
        topology,
        config,
        steps,
    }
}

/// One stretch of overlapping publication bursts, reconfiguration moves
/// (none under covering), pauses and resumes, every pause resumed by
/// its end.
fn traffic(
    rng: &mut StdRng,
    clients: &[ClientId],
    homes: &mut BTreeMap<ClientId, BrokerId>,
    pick: &impl Fn(&mut StdRng) -> BrokerId,
    covering: bool,
    steps: &mut Vec<Step>,
) {
    let mut paused = BTreeSet::new();
    for _ in 0..rng.gen_range(3..12) {
        let c = clients[rng.gen_range(0..clients.len())];
        let op = match rng.gen_range(0..4) {
            0 | 1 => {
                for _ in 0..rng.gen_range(1..16) {
                    let p = Publication::new().with(ATTR, rng.gen_range(0..1000i64));
                    steps.push(Step::Op(c, ClientOp::Publish(p)));
                }
                continue;
            }
            2 if !covering => {
                let to = pick(rng);
                if to == homes[&c] {
                    continue;
                }
                homes.insert(c, to);
                ClientOp::MoveTo(to, ProtocolKind::Reconfig)
            }
            3 if paused.remove(&c) => ClientOp::Resume,
            3 => {
                paused.insert(c);
                ClientOp::Pause
            }
            _ => continue,
        };
        steps.push(Step::Op(c, op));
    }
    steps.extend(paused.into_iter().map(|c| Step::Op(c, ClientOp::Resume)));
}

#[test]
fn random_scripts_agree_with_the_oracle_on_every_driver() {
    let cases = std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok());
    for seed in 0..cases.unwrap_or(6) {
        let script = generate(seed);
        run_everywhere(&script, oracle(&script));
    }
}

/// Subscriptions and advertisements withdrawn and reissued around a
/// movement, with the outcome worked out by hand: a withdrawn
/// subscription stops its deliveries, and one issued while no
/// intersecting advertisement stands never leaves its broker until one
/// is issued.
#[test]
fn withdrawals_agree_on_every_driver() {
    let (p, s) = (ClientId(1), ClientId(2));
    let range = |lo: i64, hi: i64| Filter::builder().ge(ATTR, lo).le(ATTR, hi).build();
    let publish = |x: i64| Step::Op(p, ClientOp::Publish(Publication::new().with(ATTR, x)));
    let (op, barrier) = (Step::Op, || Step::Barrier);
    let steps = vec![
        Step::Create(p, BrokerId(1)),
        Step::Create(s, BrokerId(3)),
        op(p, ClientOp::Advertise(range(0, 100))),
        op(p, ClientOp::Advertise(range(200, 300))),
        op(s, ClientOp::Subscribe(range(0, 300))),
        barrier(),
        publish(50),  // 0: delivered
        publish(250), // 1: delivered
        barrier(),
        op(s, ClientOp::Unsubscribe(0)),
        barrier(),
        publish(60), // 2: nobody subscribed
        barrier(),
        op(p, ClientOp::Unadvertise(0)),
        barrier(),
        op(s, ClientOp::Subscribe(range(0, 100))),
        op(s, ClientOp::Subscribe(range(250, 300))),
        barrier(),
        publish(70), // 3: the first subscription stayed at B3
        op(s, ClientOp::MoveTo(BrokerId(2), ProtocolKind::Reconfig)),
        publish(270), // 4: delivered across the movement
        barrier(),
        op(p, ClientOp::Advertise(range(0, 300))),
        barrier(),
        publish(80), // 5: the first subscription now reaches B1
        barrier(),
    ];
    let id = |k: u64| PubId((1 << 32) | k);
    let expected = Outcome {
        delivered: BTreeMap::from([(p, BTreeSet::new()), (s, [0, 1, 4, 5].map(id).into())]),
        committed_moves: BTreeMap::from([(p, 0), (s, 1)]),
        homes: BTreeMap::from([(p, BrokerId(1)), (s, BrokerId(2))]),
    };
    let (name, topology) = ("withdrawals".into(), Topology::chain(3));
    let config = MobileBrokerConfig::reconfig();
    let script = Script {
        name,
        topology,
        config,
        steps,
    };
    run_everywhere(&script, expected);
}

/// A covering-protocol movement there and back, each alone between
/// barriers with publications before, between and after: every
/// publication reaches the subscriber once, wherever it is, and both
/// movements commit.
#[test]
fn covering_moves_agree_with_the_oracle_on_every_driver() {
    let (p, s) = (ClientId(1), ClientId(2));
    let publish = |x: i64| Step::Op(p, ClientOp::Publish(Publication::new().with(ATTR, x)));
    let covering_move =
        |to: u32| Step::Op(s, ClientOp::MoveTo(BrokerId(to), ProtocolKind::Covering));
    let everything = Filter::builder().ge(ATTR, 0).le(ATTR, 1000).build();
    let steps = vec![
        Step::Create(p, BrokerId(1)),
        Step::Create(s, BrokerId(5)),
        Step::Op(p, ClientOp::Advertise(full_space_adv())),
        Step::Op(s, ClientOp::Subscribe(everything)),
        Step::Barrier,
        publish(10),
        Step::Barrier,
        covering_move(2),
        Step::Barrier,
        publish(20),
        publish(30),
        Step::Barrier,
        covering_move(5),
        Step::Barrier,
        publish(40),
        Step::Barrier,
    ];
    let script = Script {
        name: "covering moves".into(),
        topology: Topology::chain(5),
        config: MobileBrokerConfig::covering(),
        steps,
    };
    run_everywhere(&script, oracle(&script));
}
