//! Property-based end-to-end oracle for the reconfiguration protocol:
//! after an *arbitrary* sequence of client movements, the set of
//! clients receiving a probe publication must equal the set of clients
//! whose subscription filter matches it — membership is position-
//! independent, so any divergence means the movement machinery
//! corrupted routing state somewhere.

use std::collections::BTreeSet;

use proptest::prelude::*;
use transmob_broker::Topology;
use transmob_core::{properties, ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob_sim::{NetworkModel, Sim};
use transmob_workloads::{default_14, full_space_adv, SubWorkload, ATTR};

const N_CLIENTS: u64 = 12;
const BROKERS: [u32; 6] = [1, 2, 7, 11, 13, 14];

#[derive(Debug, Clone)]
struct Move {
    client: u64,
    dest: u32,
}

fn arb_moves() -> impl Strategy<Value = Vec<Move>> {
    proptest::collection::vec(
        (0..N_CLIENTS, 0..BROKERS.len()).prop_map(|(client, d)| Move {
            client,
            dest: BROKERS[d],
        }),
        1..15,
    )
}

fn filters() -> Vec<Filter> {
    (0..N_CLIENTS as usize)
        .map(|i| SubWorkload::Covered.assign(i))
        .collect()
}

/// A network where nothing takes time, with the delivery log on.
fn instant(topology: Topology, config: MobileBrokerConfig) -> Sim {
    let mut net = Sim::builder()
        .overlay(topology)
        .options(config)
        .network(NetworkModel::instant())
        .start();
    net.enable_delivery_log();
    net
}

/// Publishes `probe` from `publisher` and returns the subscribers
/// (ids from 1000) it was delivered to.
fn probe_receivers(net: &mut Sim, publisher: ClientId, probe: Publication) -> BTreeSet<ClientId> {
    net.metrics.reset_measurement(net.now());
    net.client_op(publisher, ClientOp::Publish(probe));
    let log = net.metrics.delivery_log.as_ref().expect("log enabled");
    log.iter()
        .map(|d| d.client)
        .filter(|c| c.0 >= 1000)
        .collect()
}

fn run_and_probe(moves: &[Move], protocol: ProtocolKind) -> Result<(), TestCaseError> {
    let config = match protocol {
        ProtocolKind::Reconfig => MobileBrokerConfig::reconfig(),
        ProtocolKind::Covering => MobileBrokerConfig::covering(),
    };
    let mut net = instant(default_14(), config);
    let publisher = ClientId(500);
    net.create_client(BrokerId(6), publisher);
    net.client_op(publisher, ClientOp::Advertise(full_space_adv()));
    let fs = filters();
    for (i, f) in fs.iter().enumerate() {
        let id = ClientId(1000 + i as u64);
        net.create_client(BrokerId(BROKERS[i % BROKERS.len()]), id);
        net.client_op(id, ClientOp::Subscribe(f.clone()));
    }
    for mv in moves {
        net.client_op(
            ClientId(1000 + mv.client),
            ClientOp::MoveTo(BrokerId(mv.dest), protocol),
        );
    }
    // Probe several attribute values; receivers must be exactly the
    // filter-matching clients, regardless of where everyone ended up.
    for (k, x) in [55i64, 555, 1555, 5050, 9999].iter().enumerate() {
        let probe = Publication::new().with(ATTR, *x);
        let expected: BTreeSet<ClientId> = fs
            .iter()
            .enumerate()
            .filter(|(_, f)| f.matches(&probe))
            .map(|(i, _)| ClientId(1000 + i as u64))
            .collect();
        let got = probe_receivers(&mut net, publisher, probe);
        prop_assert_eq!(
            &got,
            &expected,
            "probe {} ({}th) diverged after {:?}",
            x,
            k,
            moves
        );
    }
    prop_assert_eq!(net.total_anomalies(), 0, "anomalies after {:?}", moves);
    properties::assert_single_instance(&net).map_err(|e| TestCaseError::fail(format!("{e}")))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reconfig_random_moves_preserve_membership_semantics(moves in arb_moves()) {
        run_and_probe(&moves, ProtocolKind::Reconfig)?;
    }

    #[test]
    fn covering_random_moves_preserve_membership_semantics(moves in arb_moves()) {
        run_and_probe(&moves, ProtocolKind::Covering)?;
    }
}

/// Publisher-movement variant: random publisher moves over both the
/// Fig. 6 overlay and a random tree; after every quiescent state the
/// structural SRT invariant (paper Sec. 3.5 clause (ii)) must hold and
/// publications must reach all matching subscribers.
fn run_publisher_moves(topology: Topology, moves: &[Move]) -> Result<(), TestCaseError> {
    let brokers: Vec<BrokerId> = topology.brokers().collect();
    let mut net = instant(topology, MobileBrokerConfig::reconfig());
    // Three moving publishers, four stationary subscribers.
    let fs = filters();
    for i in 0..3u64 {
        let id = ClientId(500 + i);
        net.create_client(brokers[i as usize % brokers.len()], id);
        net.client_op(id, ClientOp::Advertise(full_space_adv()));
    }
    for i in 0..4usize {
        let id = ClientId(1000 + i as u64);
        net.create_client(brokers[(2 * i + 1) % brokers.len()], id);
        net.client_op(id, ClientOp::Subscribe(fs[i].clone()));
    }
    properties::check_srt_paths(&net).map_err(|e| TestCaseError::fail(format!("{e}")))?;
    for mv in moves {
        let publisher = ClientId(500 + mv.client % 3);
        let dest = brokers[mv.dest as usize % brokers.len()];
        net.client_op(publisher, ClientOp::MoveTo(dest, ProtocolKind::Reconfig));
        properties::check_srt_paths(&net)
            .map_err(|e| TestCaseError::fail(format!("after {mv:?}: {e}")))?;
    }
    // Functional check from each publisher's final position.
    for (k, x) in [55i64, 1555, 5050].iter().enumerate() {
        let probe = Publication::new().with(ATTR, *x);
        let expected: BTreeSet<ClientId> = fs
            .iter()
            .take(4)
            .enumerate()
            .filter(|(_, f)| f.matches(&probe))
            .map(|(i, _)| ClientId(1000 + i as u64))
            .collect();
        let got = probe_receivers(&mut net, ClientId(500 + k as u64 % 3), probe);
        prop_assert_eq!(&got, &expected, "probe {} diverged after {:?}", x, moves);
    }
    prop_assert_eq!(net.total_anomalies(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn publisher_moves_keep_srt_on_shortest_paths_fig6(moves in arb_moves()) {
        run_publisher_moves(default_14(), &moves)?;
    }

    #[test]
    fn publisher_moves_keep_srt_on_shortest_paths_random_tree(
        moves in arb_moves(),
        seed in 0u64..50,
    ) {
        run_publisher_moves(transmob_workloads::random_tree(9, seed), &moves)?;
    }
}
