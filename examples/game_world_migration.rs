//! Game-world migration: the paper's motivating multiplayer-game
//! scenario (Sec. 1).
//!
//! A *zone manager* component owns a region of the game world. It
//! subscribes to player actions in its zone and publishes world-state
//! updates. When the player population shifts toward another part of
//! the network, the zone manager migrates — as a pub/sub client — to a
//! broker closer to the players, using the transactional movement
//! protocol. Players observe a seamless stream of world updates:
//! nothing lost, nothing duplicated, and at no point are there two
//! active zone managers (the paper's consistency property).
//!
//! ```text
//! cargo run --example game_world_migration
//! ```

use std::time::Duration;

use transmob::broker::Topology;
use transmob::core::{MobileBrokerConfig, ProtocolKind};
use transmob::pubsub::{BrokerId, ClientId, Filter, Publication};
use transmob::runtime::Network;
use transmob::workloads::default_14;

fn main() {
    // The paper's default 14-broker overlay (Fig. 6).
    let net = Network::builder()
        .overlay(default_14())
        .options(MobileBrokerConfig::reconfig())
        .start();
    let _ = Topology::chain(2); // (see transmob::broker for custom overlays)

    // The zone manager starts near the original player hotspot (B2).
    let manager = net.create_client(BrokerId(2), ClientId(100));
    manager.subscribe(
        Filter::builder()
            .eq("zone", "emerald-forest")
            .any("action")
            .build(),
    );
    manager.advertise(
        Filter::builder()
            .eq("zone", "emerald-forest")
            .any("tick")
            .build(),
    );

    // Two players: one near the old hotspot, one far away (B13).
    let near = net.create_client(BrokerId(1), ClientId(1));
    let far = net.create_client(BrokerId(13), ClientId(2));
    for p in [&near, &far] {
        p.advertise(
            Filter::builder()
                .eq("zone", "emerald-forest")
                .any("action")
                .build(),
        );
        p.subscribe(
            Filter::builder()
                .eq("zone", "emerald-forest")
                .any("tick")
                .build(),
        );
    }
    // The barrier: every subscription is in place on every broker.
    assert!(net.quiesce(Duration::from_secs(5)));

    let act = |who: u32, what: &str| {
        Publication::new()
            .with("zone", "emerald-forest")
            .with("action", what)
            .with("player", i64::from(who))
    };
    let tick = |n: i64| {
        Publication::new()
            .with("zone", "emerald-forest")
            .with("tick", n)
    };

    // Phase 1: players act, the manager reacts with world ticks.
    near.publish(act(1, "chop-tree"));
    far.publish(act(2, "light-fire"));
    assert!(net.quiesce(Duration::from_secs(5)));
    let actions_seen = manager.drain().len();
    println!("manager saw {actions_seen} player actions at B2");
    manager.publish(tick(1));

    // Phase 2: the population shifted toward B13 — migrate the zone
    // manager there, transactionally.
    let ok = manager.move_to(BrokerId(13), ProtocolKind::Reconfig, Duration::from_secs(5));
    println!("zone manager migrated to B13: {ok}");
    assert!(ok);

    // Phase 3: play continues; the far player's actions now reach the
    // manager over one hop instead of crossing the backbone.
    far.publish(act(2, "build-hut"));
    let seen = manager
        .recv_timeout(Duration::from_secs(2))
        .expect("action after migration");
    println!("manager saw after migration: {seen}");
    manager.publish(tick(2));

    // Both players received every tick exactly once.
    assert!(net.quiesce(Duration::from_secs(5)));
    for (name, p) in [("near", &near), ("far", &far)] {
        let ticks = p.drain();
        let unique: std::collections::BTreeSet<_> = ticks.iter().map(|t| t.id).collect();
        println!(
            "player {name}: {} ticks, {} unique",
            ticks.len(),
            unique.len()
        );
        assert_eq!(ticks.len(), 2, "player {name} missed a tick");
        assert_eq!(unique.len(), 2, "player {name} saw duplicates");
    }

    net.shutdown();
    println!("done: world migrated with no loss, no duplicates");
}
