//! Regenerates every figure of the paper's evaluation (Sec. 5).
//!
//! ```text
//! figures <fig5|fig8|fig9|fig10|fig11|fig12|fig13|fig14|all> [--full] [--seed N] [--out DIR]
//! ```
//!
//! By default the experiments run at a reduced scale (fewer clients,
//! shorter measured phase) so the whole suite finishes in minutes;
//! `--full` restores the paper's parameters (400–1000 clients, 10 s
//! pauses, long runs). Each figure prints its series as a table and
//! writes the raw data as JSON under the output directory.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use transmob_bench::{run_experiment, ExperimentConfig, ExperimentResult};
use transmob_core::{ClientOp, MobileBrokerConfig, ProtocolKind};
use transmob_pubsub::{BrokerId, ClientId};
use transmob_sim::{explore, NetworkModel, Sim, SimDuration};
use transmob_workloads as wl;
use transmob_workloads::SubWorkload;

#[derive(Debug, Clone)]
struct Opts {
    figures: Vec<String>,
    full: bool,
    seed: u64,
    out: PathBuf,
}

fn parse_args() -> Opts {
    let mut figures = Vec::new();
    let mut full = false;
    let mut seed = 42u64;
    let mut out = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => full = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| usage("--out needs a dir")));
            }
            "all" => figures.extend(
                [
                    "fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
                ]
                .map(String::from),
            ),
            "ablations" | "publishers" | "throughput" | "soak" => figures.push(a),
            f if f.starts_with("fig") => figures.push(f.to_owned()),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if figures.is_empty() {
        usage("no figure selected");
    }
    Opts {
        figures,
        full,
        seed,
        out,
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: figures <fig5|fig8|...|fig14|ablations|publishers|throughput|soak|all> [--full] [--seed N] [--out DIR]"
    );
    std::process::exit(2);
}

/// Scaled experiment sizes: (clients, pause s, duration s).
fn scale(o: &Opts) -> (usize, u64, u64) {
    if o.full {
        (400, 10, 600)
    } else {
        (100, 5, 60)
    }
}

fn base_cfg(o: &Opts, protocol: ProtocolKind, workload: SubWorkload, n: usize) -> ExperimentConfig {
    let (_, pause, duration) = scale(o);
    let mut cfg = ExperimentConfig::new(protocol, wl::default_14(), wl::paper_default(n, workload));
    cfg.pause = SimDuration::from_secs(pause);
    cfg.duration = SimDuration::from_secs(duration);
    cfg.seed = o.seed;
    cfg
}

fn save_json<T: serde::Serialize>(o: &Opts, name: &str, value: &T) {
    fs::create_dir_all(&o.out).expect("create results dir");
    let path = o.out.join(format!("{name}.json"));
    fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .expect("write results file");
    println!("  [saved {}]", path.display());
}

fn summary_row(label: &str, r: &ExperimentResult) {
    println!(
        "  {label:<28} lat_ms={:>9.1} (p50={:>8.1} p99={:>9.1})  msgs/move={:>8.1}  moves={:>6}  thr/s={:>6.2}  anomalies={}",
        r.mean_latency_ms,
        r.p50_latency_ms,
        r.p99_latency_ms,
        r.messages_per_move,
        r.movements,
        r.throughput_per_s,
        r.anomalies
    );
}

const PROTOCOLS: [ProtocolKind; 2] = [ProtocolKind::Reconfig, ProtocolKind::Covering];

/// One reconfiguration movement on chain(3): subscriber C2 moves from
/// B3 to B1, where its publisher C1 is, and B1 admits it if `accept`;
/// `durable` lets a crash lose state. Nothing takes time: the explorer
/// orders every step.
fn one_movement(config: MobileBrokerConfig, accept: bool, durable: bool) -> impl Fn() -> Sim {
    move || {
        let mut sim = Sim::builder()
            .overlay(transmob_broker::Topology::chain(3))
            .options(config.clone())
            .network(NetworkModel::instant())
            .start();
        let band = transmob_pubsub::Filter::builder().ge("x", 0).build();
        sim.create_client(BrokerId(1), ClientId(1));
        sim.create_client(BrokerId(3), ClientId(2));
        sim.client_op(ClientId(1), ClientOp::Advertise(band.clone()));
        sim.client_op(ClientId(2), ClientOp::Subscribe(band));
        sim.broker_mut(BrokerId(1)).set_accept_moves(accept);
        if durable {
            sim.enable_durability();
        }
        let (now, to) = (sim.now(), BrokerId(1));
        sim.schedule_cmd(
            now,
            ClientId(2),
            ClientOp::MoveTo(to, ProtocolKind::Reconfig),
        );
        sim
    }
}

fn fig5(o: &Opts) {
    println!("== Fig. 5: global reachable state graph (every schedule of one movement) ==");
    let modes = [
        ("blocking", MobileBrokerConfig::reconfig().blocking(), 0),
        ("timeouts", MobileBrokerConfig::reconfig(), 0),
        ("timeouts + one crash", MobileBrokerConfig::reconfig(), 1),
    ];
    for (mode, config, faults) in modes {
        let root = |accept| {
            let build = one_movement(config.clone(), accept, faults > 0);
            explore(build, faults).unwrap_or_else(|v| panic!("{mode}: {v}"))
        };
        let mut ex = root(true);
        ex.merge(root(false));
        println!(
            "  {mode}: properties (1), (2) and progress hold over {} states",
            ex.states
        );
        println!("    reachable coordinator-pair states: {:?}", ex.labels());
        println!("    final states: {:?}", ex.final_labels());
        if mode == "blocking" {
            fs::create_dir_all(&o.out).expect("create results dir");
            let path = o.out.join("fig5.dot");
            fs::write(&path, ex.to_dot()).expect("write dot");
            println!("  [saved {}]", path.display());
        }
    }
}

/// Regenerates the Fig. 7 subscription-workload covering structures as
/// validated Hasse diagrams (printed and exported as DOT).
fn fig7(o: &Opts) {
    // Also export the Fig. 6 overlay drawing while regenerating inputs.
    fs::create_dir_all(&o.out).expect("create results dir");
    let fig6 = o.out.join("fig6.dot");
    fs::write(&fig6, wl::default_14().to_dot()).expect("write fig6 dot");
    println!(
        "== Fig. 6: default overlay ==\n  [saved {}]",
        fig6.display()
    );
    println!("== Fig. 7: subscription workload covering structures ==");
    let mut dot = String::from("digraph fig7 {\n  rankdir=TB;\n");
    for w in SubWorkload::SWEEP {
        let filters = w.filters();
        let covers = |a: usize, b: usize| {
            a != b && filters[a].covers(&filters[b]) && !filters[b].covers(&filters[a])
        };
        let mut edges = Vec::new();
        for i in 0..filters.len() {
            for j in 0..filters.len() {
                if covers(i, j) && !(0..filters.len()).any(|k| covers(i, k) && covers(k, j)) {
                    edges.push((i, j));
                }
            }
        }
        println!(
            "  {w} (x = {}): {} direct covering edges",
            w.covering_degree().unwrap_or(0),
            edges.len()
        );
        for (i, j) in &edges {
            println!("    {} -> {}", i + 1, j + 1);
            dot.push_str(&format!("  \"{w}-{}\" -> \"{w}-{}\";\n", i + 1, j + 1));
        }
    }
    dot.push_str("}\n");
    fs::create_dir_all(&o.out).expect("create results dir");
    let path = o.out.join("fig7.dot");
    fs::write(&path, dot).expect("write dot");
    println!("  [saved {}]", path.display());
}

fn fig8(o: &Opts) {
    let (n, ..) = scale(o);
    println!("== Fig. 8: movement latency over time (covered workload, {n} clients) ==");
    let mut out = BTreeMap::new();
    for p in PROTOCOLS {
        let cfg = base_cfg(o, p, SubWorkload::Covered, n);
        let r = run_experiment(&cfg);
        // Per-source-broker means (the paper's four series).
        let mut by_src: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for pt in &r.points {
            by_src.entry(pt.source).or_default().push(pt.latency_ms);
        }
        println!(" {p}:");
        for (src, lats) in &by_src {
            let mean = lats.iter().sum::<f64>() / lats.len() as f64;
            let max = lats.iter().cloned().fold(0.0, f64::max);
            println!(
                "  from B{src:<3} moves={:<5} mean={:>9.1} ms  max={:>9.1} ms",
                lats.len(),
                mean,
                max
            );
        }
        summary_row(&format!("{p} overall"), &r);
        out.insert(p.to_string(), r);
    }
    let rec = &out["reconfig"];
    let cov = &out["covering"];
    println!(
        "  paper shape check: covering/reconfig latency ratio {:.1}x, message ratio {:.1}x",
        cov.mean_latency_ms / rec.mean_latency_ms.max(1e-9),
        cov.messages_per_move / rec.messages_per_move.max(1e-9),
    );
    save_json(o, "fig8", &out);
}

fn fig9(o: &Opts) {
    let (n, ..) = scale(o);
    println!("== Fig. 9: subscription workload sweep ({n} clients) ==");
    let mut out: Vec<(String, u32, ExperimentResult)> = Vec::new();
    for w in SubWorkload::SWEEP {
        let x = w.covering_degree().unwrap_or(0);
        for p in PROTOCOLS {
            let cfg = base_cfg(o, p, w, n);
            let r = run_experiment(&cfg);
            summary_row(&format!("{p} {w} (x={x})"), &r);
            out.push((format!("{p}/{w}"), x, r));
        }
    }
    save_json(o, "fig9", &out);
}

fn fig10(o: &Opts) {
    let sizes: Vec<usize> = if o.full {
        vec![400, 600, 800, 1000]
    } else {
        vec![50, 100, 150, 200]
    };
    println!("== Fig. 10: number of clients sweep {sizes:?} ==");
    let mut out: Vec<(String, usize, ExperimentResult)> = Vec::new();
    for &n in &sizes {
        for p in PROTOCOLS {
            let cfg = base_cfg(o, p, SubWorkload::Covered, n);
            let r = run_experiment(&cfg);
            summary_row(&format!("{p} n={n}"), &r);
            out.push((p.to_string(), n, r));
        }
    }
    save_json(o, "fig10", &out);
}

fn fig11(o: &Opts) {
    let (n, ..) = scale(o);
    println!("== Fig. 11: single moving client (root subscription) among {n} ==");
    let mut out = BTreeMap::new();
    for p in PROTOCOLS {
        let mut cfg = base_cfg(o, p, SubWorkload::Covered, n);
        // Only the first root-subscription client moves.
        let root = SubWorkload::Covered.filters()[0].clone();
        let mover = cfg
            .clients
            .iter()
            .find(|s| s.subscription == root)
            .map(|s| s.id)
            .expect("population contains a root subscription");
        cfg.clients = wl::with_movers(cfg.clients, &[mover]);
        let r = run_experiment(&cfg);
        summary_row(&format!("{p} single-root"), &r);
        out.insert(p.to_string(), r);
    }
    save_json(o, "fig11", &out);
}

fn fig12(o: &Opts) {
    // The staged mover selection needs ten roots per workload, which
    // requires the paper's full 400-client mixed population even in
    // quick mode (only the measured duration is scaled down).
    let n = 400;
    println!("== Fig. 12: incremental movement (movers 10..60 of {n} mixed clients) ==");
    let mut out: Vec<(String, usize, ExperimentResult)> = Vec::new();
    for movers in [10usize, 20, 30, 40, 50, 60] {
        for p in PROTOCOLS {
            let (_, pause, duration) = scale(o);
            let population = wl::mixed_population(n);
            let chosen = wl::incremental_movers(&population, movers);
            let clients = wl::with_movers(population, &chosen);
            let mut cfg = ExperimentConfig::new(p, wl::default_14(), clients);
            cfg.pause = SimDuration::from_secs(pause);
            cfg.duration = SimDuration::from_secs(duration);
            cfg.seed = o.seed;
            let r = run_experiment(&cfg);
            summary_row(&format!("{p} movers={movers}"), &r);
            out.push((p.to_string(), movers, r));
        }
    }
    save_json(o, "fig12", &out);
}

fn fig13(o: &Opts) {
    let sizes = [14u32, 18, 22, 26];
    let (n, pause, duration) = scale(o);
    println!("== Fig. 13: topology size sweep {sizes:?} (constant path length) ==");
    let mut out: Vec<(String, u32, ExperimentResult)> = Vec::new();
    for &brokers in &sizes {
        for p in PROTOCOLS {
            let clients = wl::paper_default_between(
                n,
                SubWorkload::Covered,
                (BrokerId(1), BrokerId(13)),
                (BrokerId(2), BrokerId(14)),
            );
            let mut cfg = ExperimentConfig::new(p, wl::grown(brokers), clients);
            cfg.pause = SimDuration::from_secs(pause);
            cfg.duration = SimDuration::from_secs(duration);
            cfg.seed = o.seed;
            let r = run_experiment(&cfg);
            summary_row(&format!("{p} brokers={brokers}"), &r);
            out.push((p.to_string(), brokers, r));
        }
    }
    save_json(o, "fig13", &out);
}

fn fig14(o: &Opts) {
    let n = if o.full { 100 } else { 50 };
    println!("== Fig. 14: wide-area PlanetLab deployment ({n} clients) ==");
    let mk_net = |topology: &transmob_broker::Topology, seed| {
        NetworkModel::planetlab(&topology.edges(), seed)
    };
    // (a,b): time series per protocol on the covered workload.
    let mut series = BTreeMap::new();
    for p in PROTOCOLS {
        let mut cfg = base_cfg(o, p, SubWorkload::Covered, n);
        cfg.network = mk_net(&cfg.topology, o.seed);
        let r = run_experiment(&cfg);
        summary_row(&format!("{p} planetlab"), &r);
        series.insert(p.to_string(), r);
    }
    println!("  paper shape check: latencies well above the cluster's (s-scale, not ms-scale)");
    save_json(o, "fig14ab", &series);
    // (c,d): workload sweep.
    let mut sweep: Vec<(String, u32, ExperimentResult)> = Vec::new();
    for w in [
        SubWorkload::Chained,
        SubWorkload::Tree,
        SubWorkload::Covered,
    ] {
        let x = w.covering_degree().unwrap_or(0);
        for p in PROTOCOLS {
            let mut cfg = base_cfg(o, p, w, n);
            cfg.network = mk_net(&cfg.topology, o.seed);
            let r = run_experiment(&cfg);
            summary_row(&format!("{p} {w} (x={x})"), &r);
            sweep.push((format!("{p}/{w}"), x, r));
        }
    }
    save_json(o, "fig14cd", &sweep);
}

/// The DESIGN.md design-choice ablations at experiment scale.
fn ablations(o: &Opts) {
    let (n, pause, duration) = scale(o);
    println!("== Ablations (covered workload, {n} clients) ==");
    let mut out: Vec<(String, ExperimentResult)> = Vec::new();
    let variants: Vec<(&str, ProtocolKind, MobileBrokerConfig)> = vec![
        (
            "covering/conservative-release",
            ProtocolKind::Covering,
            MobileBrokerConfig::covering(),
        ),
        (
            "covering/precise-release",
            ProtocolKind::Covering,
            MobileBrokerConfig {
                broker: transmob_broker::BrokerConfig::covering_precise_release(),
                ..MobileBrokerConfig::covering()
            },
        ),
        (
            "covering/make-before-break",
            ProtocolKind::Covering,
            MobileBrokerConfig {
                make_before_break: true,
                ..MobileBrokerConfig::covering()
            },
        ),
        (
            "covering/lazy-quench",
            ProtocolKind::Covering,
            MobileBrokerConfig {
                broker: transmob_broker::BrokerConfig {
                    sub_covering: transmob_broker::CoveringMode::Lazy,
                    adv_covering: transmob_broker::CoveringMode::Lazy,
                    conservative_release: true,
                    ..Default::default()
                },
                ..MobileBrokerConfig::covering()
            },
        ),
        (
            "covering/no-covering-brokers",
            ProtocolKind::Covering,
            MobileBrokerConfig::reconfig(),
        ),
        (
            "reconfig/plain",
            ProtocolKind::Reconfig,
            MobileBrokerConfig::reconfig(),
        ),
        (
            "reconfig/on-covering-brokers",
            ProtocolKind::Reconfig,
            MobileBrokerConfig::covering(),
        ),
    ];
    for (name, protocol, broker_config) in variants {
        let mut cfg = ExperimentConfig::new(
            protocol,
            wl::default_14(),
            wl::paper_default(n, SubWorkload::Covered),
        );
        cfg.pause = SimDuration::from_secs(pause);
        cfg.duration = SimDuration::from_secs(duration);
        cfg.seed = o.seed;
        cfg.broker_override = Some(broker_config);
        let r = run_experiment(&cfg);
        summary_row(name, &r);
        out.push((name.to_owned(), r));
    }
    save_json(o, "ablations", &out);
}

/// Extension experiment: *publisher* mobility — the actual subject of
/// the paper's Sec. 4.4 reconfiguration algorithm. Moving publishers
/// (advertisement reconfiguration with the three PRT fix-up cases)
/// against stationary subscribers.
fn publishers(o: &Opts) {
    use transmob_pubsub::Publication;
    use transmob_sim::{MovementPlan, SimTime};
    let (n, pause, duration) = scale(o);
    let n_pub = n / 4; // moving publishers
    let n_sub = n; // stationary subscribers
    println!("== Extension: publisher mobility ({n_pub} moving publishers, {n_sub} stationary subscribers) ==");
    let mut out: Vec<(String, ExperimentResult)> = Vec::new();
    for p in PROTOCOLS {
        let config = match p {
            ProtocolKind::Reconfig => MobileBrokerConfig::reconfig(),
            ProtocolKind::Covering => MobileBrokerConfig::covering(),
        };
        let topology = wl::default_14();
        let mut sim = Sim::builder()
            .overlay(topology)
            .options(config)
            .network(NetworkModel::cluster())
            .seed(o.seed)
            .start();
        // Stationary subscribers spread over the leaf brokers.
        let sub_brokers = [5u32, 6, 7, 9, 10, 11, 12, 14];
        for i in 0..n_sub {
            let id = ClientId(10_000 + i as u64);
            let broker = BrokerId(sub_brokers[i % sub_brokers.len()]);
            sim.create_client(broker, id);
            sim.schedule_cmd(
                SimTime(0),
                id,
                ClientOp::Subscribe(SubWorkload::Covered.assign(i)),
            );
        }
        // Moving publishers at B1/B2, each advertising the full space
        // and publishing periodically.
        for i in 0..n_pub {
            let id = ClientId(1 + i as u64);
            let start = BrokerId(1 + (i % 2) as u32);
            sim.create_client(start, id);
            sim.schedule_cmd(SimTime(0), id, ClientOp::Advertise(wl::full_space_adv()));
        }
        sim.run_to_quiescence();
        let setup_end = sim.now() + SimDuration::from_millis(100);
        let pause_d = SimDuration::from_secs(pause);
        for i in 0..n_pub {
            let id = ClientId(1 + i as u64);
            let far = BrokerId(13 + (i % 2) as u32);
            let start = BrokerId(1 + (i % 2) as u32);
            sim.install_plan(
                id,
                MovementPlan {
                    destinations: vec![far, start],
                    pause: pause_d,
                    protocol: p,
                },
                setup_end + pause_d.mul_f64(i as f64 / n_pub.max(1) as f64),
            );
            // Publication stream from each publisher.
            let mut t = setup_end + SimDuration::from_millis(137 * (i as u64 + 1));
            let mut k = 0i64;
            while t < setup_end + SimDuration::from_secs(duration) {
                sim.schedule_cmd(
                    t,
                    id,
                    ClientOp::Publish(Publication::new().with(wl::ATTR, (k * 53) % 10_000)),
                );
                t += SimDuration::from_secs(1);
                k += 1;
            }
        }
        sim.metrics.reset_measurement(setup_end);
        sim.set_plan_deadline(setup_end + SimDuration::from_secs(duration));
        sim.run_to_quiescence();
        let end = sim.metrics.measure_from + SimDuration::from_secs(duration);
        let r = ExperimentResult {
            protocol: p.to_string(),
            points: Vec::new(),
            mean_latency_ms: sim.metrics.mean_latency_ms(),
            p50_latency_ms: sim.metrics.latency_percentile_ms(0.5),
            p99_latency_ms: sim.metrics.latency_percentile_ms(0.99),
            messages_per_move: sim.metrics.messages_per_move(),
            movements: sim.metrics.finished_count(),
            total_messages: sim.metrics.total_traffic(),
            throughput_per_s: sim.metrics.throughput_per_sec(end),
            anomalies: sim.total_anomalies(),
        };
        summary_row(&format!("{p} publishers"), &r);
        println!("    deliveries={}", sim.metrics.delivery_count);
        out.push((p.to_string(), r));
    }
    save_json(o, "publishers", &out);
}

/// Extension experiment: movement-throughput saturation — sweep the
/// inter-movement pause downward and watch which protocol's completed
/// movement rate stops tracking the offered rate (the paper's third
/// metric, exercised to its limit).
fn throughput(o: &Opts) {
    let (n, _, duration) = scale(o);
    println!("== Extension: movement-throughput saturation ({n} clients, covered workload) ==");
    let pauses_ms: &[u64] = if o.full {
        &[10_000, 5_000, 2_000, 1_000, 500]
    } else {
        &[5_000, 2_000, 1_000, 500]
    };
    let mut out: Vec<(String, u64, f64, ExperimentResult)> = Vec::new();
    for &pause_ms in pauses_ms {
        for p in PROTOCOLS {
            let mut cfg = ExperimentConfig::new(
                p,
                wl::default_14(),
                wl::paper_default(n, SubWorkload::Covered),
            );
            cfg.pause = SimDuration::from_millis(pause_ms);
            cfg.duration = SimDuration::from_secs(duration);
            cfg.seed = o.seed;
            let r = run_experiment(&cfg);
            let offered = n as f64 / (pause_ms as f64 / 1000.0);
            println!(
                "  {p:<10} pause={:>5}ms offered={offered:>7.1}/s  completed={:>7.2}/s  lat={:>9.1}ms",
                pause_ms, r.throughput_per_s, r.mean_latency_ms
            );
            out.push((p.to_string(), pause_ms, offered, r));
        }
    }
    save_json(o, "throughput", &out);
}

/// Randomized soak: clients with mixed workloads move between random
/// brokers under both protocols simultaneously while publishers
/// stream; after the run every transaction must have completed, no
/// anomalies may have been counted, and the delivered/published ratio
/// must be sane. This is the release-confidence run.
fn soak(o: &Opts) {
    use transmob_pubsub::Publication;
    use transmob_sim::{MovementPlan, SimTime};
    let (n, _, duration) = scale(o);
    let duration = duration * 2;
    println!("== Soak: {n} mixed clients, random routes, mixed protocols, {duration}s ==");
    let topology = wl::default_14();
    let all_brokers: Vec<BrokerId> = topology.brokers().collect();
    let mut sim = Sim::builder()
        .overlay(topology)
        .options(MobileBrokerConfig::covering())
        .network(NetworkModel::cluster())
        .seed(o.seed)
        .start();
    for (i, broker) in [6u32, 10, 14].iter().enumerate() {
        let id = ClientId(1 + i as u64);
        sim.create_client(BrokerId(*broker), id);
        sim.schedule_cmd(SimTime(0), id, ClientOp::Advertise(wl::full_space_adv()));
        let mut t = SimTime(0) + SimDuration::from_millis(211 * (i as u64 + 1));
        let mut k = 0i64;
        while t < SimTime(0) + SimDuration::from_secs(duration) {
            sim.schedule_cmd(
                t,
                id,
                ClientOp::Publish(Publication::new().with(wl::ATTR, (k * 41) % 10_000)),
            );
            t += SimDuration::from_millis(250);
            k += 1;
        }
    }
    let specs = wl::mixed_population(n);
    for (i, spec) in specs.iter().enumerate() {
        sim.create_client(spec.start, spec.id);
        sim.schedule_cmd(
            SimTime(1_000_000 * (i as u64 + 1)),
            spec.id,
            ClientOp::Subscribe(spec.subscription.clone()),
        );
        // Random-ish route over the whole overlay, alternating
        // protocols per client.
        let protocol = if i % 2 == 0 {
            ProtocolKind::Reconfig
        } else {
            ProtocolKind::Covering
        };
        let route: Vec<BrokerId> = (0..3)
            .map(|r| all_brokers[(i * 7 + r * 5 + 3) % all_brokers.len()])
            .collect();
        sim.install_plan(
            spec.id,
            MovementPlan {
                destinations: route,
                pause: SimDuration::from_millis(2_500),
                protocol,
            },
            SimTime(0) + SimDuration::from_millis(500 + 13 * i as u64),
        );
    }
    sim.set_plan_deadline(SimTime(0) + SimDuration::from_secs(duration));
    sim.run_to_quiescence();
    let finished = sim.metrics.finished_count();
    let unfinished = sim.metrics.moves.len() - finished;
    let committed = sim
        .metrics
        .finished_moves()
        .filter(|(_, r)| r.committed == Some(true))
        .count();
    println!("  movements: {finished} finished ({committed} committed), {unfinished} stuck");
    println!(
        "  deliveries: {}  traffic: {}  anomalies: {}",
        sim.metrics.delivery_count,
        sim.metrics.total_traffic(),
        sim.total_anomalies()
    );
    assert_eq!(unfinished, 0, "stuck movement transactions!");
    assert_eq!(sim.total_anomalies(), 0, "protocol anomalies!");
    assert!(sim.metrics.delivery_count > 0);
    println!("  soak OK");
}

fn main() {
    let opts = parse_args();
    let t0 = std::time::Instant::now();
    for f in opts.figures.clone() {
        match f.as_str() {
            "fig5" => fig5(&opts),
            "fig7" => fig7(&opts),
            "fig8" => fig8(&opts),
            "fig9" => fig9(&opts),
            "fig10" => fig10(&opts),
            "fig11" => fig11(&opts),
            "fig12" => fig12(&opts),
            "fig13" => fig13(&opts),
            "fig14" => fig14(&opts),
            "ablations" => ablations(&opts),
            "publishers" => publishers(&opts),
            "throughput" => throughput(&opts),
            "soak" => soak(&opts),
            other => usage(&format!("unknown figure {other}")),
        }
        println!();
    }
    println!("done in {:.1}s", t0.elapsed().as_secs_f64());
}
