//! Differential suite for the batch ingestion path: on randomized
//! operation scripts, a batch — [`BrokerCore::handle_into`] folded over
//! each maximal run of consecutive messages into one effect list, as
//! the drivers ingest a frame — must produce exactly the effects of
//! folding [`BrokerCore::handle`] one message at a time — the same
//! flat effect sequence (hence the same client-delivery list and the
//! same per-neighbor message multisets) and the same final broker
//! state — including when movement transactions commit or abort
//! between batches while shadow (pending) routes are live.

use proptest::prelude::*;
use transmob_broker::{BrokerConfig, BrokerCore, BrokerOutput, Hop, PrematchedRoutes, PubSubMsg};
use transmob_pubsub::{
    AdvId, Advertisement, BrokerId, ClientId, Filter, MoveId, PubId, Publication, PublicationMsg,
    SubId, Subscription,
};

const ATTRS: [&str; 3] = ["x", "y", "t"];
const WORDS: [&str; 5] = ["alpha", "alps", "beta", "al", ""];
const MOVE_SLOTS: u64 = 4;

/// One predicate spec: attribute, operator shape, operand seed.
type PredSpec = (usize, u8, i64);

fn build_filter(specs: &[PredSpec]) -> Filter {
    specs
        .iter()
        .fold(Filter::builder(), |b, &(ai, kind, v)| {
            let a = ATTRS[ai % ATTRS.len()];
            match kind % 8 {
                0 => b.ge(a, v),
                1 => b.le(a, v),
                2 => b.ge(a, v).le(a, v + 15),
                3 => b.eq(a, v),
                4 => b.ne(a, v),
                5 => b.eq(a, WORDS[(v.unsigned_abs() as usize) % WORDS.len()]),
                6 => b.prefix(a, WORDS[(v.unsigned_abs() as usize) % WORDS.len()]),
                _ => b.any(a),
            }
        })
        .build()
}

fn arb_filter() -> impl Strategy<Value = Vec<PredSpec>> {
    proptest::collection::vec((0usize..3, 0u8..8, -30i64..30), 1..4)
}

/// One step of the randomized script. `Subscribe`/`Advertise` resolve
/// to ids derived from the script position, so re-issue-with-new-filter
/// protocol violations cannot arise; retractions may reference absent
/// ids on purpose (the anomaly path must also fold identically).
#[derive(Clone, Debug)]
enum OpSpec {
    Publish(i64, i64, usize),
    Subscribe(Vec<PredSpec>),
    Unsubscribe(u64),
    Advertise(Vec<PredSpec>),
    Unadvertise(u64),
    Commit(u64),
    Abort(u64),
}

/// Publications dominate (6 of 12 kind slots) so the amortized
/// publish-run path sees real multi-element runs; commits/aborts land
/// between them.
fn arb_op() -> impl Strategy<Value = OpSpec> {
    (
        0u8..12,
        -30i64..30,
        -30i64..30,
        0usize..WORDS.len(),
        arb_filter(),
        0u64..30,
    )
        .prop_map(|(kind, x, y, w, specs, slot)| match kind {
            0..=5 => OpSpec::Publish(x, y, w),
            6 => OpSpec::Subscribe(specs),
            7 => OpSpec::Unsubscribe(slot),
            8 => OpSpec::Advertise(specs),
            9 => OpSpec::Unadvertise(slot % 8),
            10 => OpSpec::Commit(slot % MOVE_SLOTS),
            _ => OpSpec::Abort(slot % MOVE_SLOTS),
        })
}

/// Resolves a script step at position `i` into either a routable
/// message or a movement-transaction boundary.
enum Resolved {
    Msg(PubSubMsg),
    Commit(MoveId),
    Abort(MoveId),
}

fn resolve(op: &OpSpec, i: usize) -> Resolved {
    match op {
        OpSpec::Publish(x, y, w) => Resolved::Msg(PubSubMsg::Publish(PublicationMsg::new(
            PubId(i as u64),
            ClientId(1),
            Publication::new()
                .with("x", *x)
                .with("y", *y)
                .with("t", WORDS[*w]),
        ))),
        OpSpec::Subscribe(specs) => Resolved::Msg(PubSubMsg::Subscribe(Subscription::new(
            SubId::new(ClientId(1000 + i as u64), 0),
            build_filter(specs),
        ))),
        OpSpec::Unsubscribe(slot) => {
            Resolved::Msg(PubSubMsg::Unsubscribe(SubId::new(ClientId(*slot), 0)))
        }
        OpSpec::Advertise(specs) => Resolved::Msg(PubSubMsg::Advertise(Advertisement::new(
            AdvId::new(ClientId(2000 + i as u64), 0),
            build_filter(specs),
        ))),
        OpSpec::Unadvertise(slot) => Resolved::Msg(PubSubMsg::Unadvertise(AdvId::new(
            ClientId(9),
            *slot as u32,
        ))),
        OpSpec::Commit(slot) => Resolved::Commit(MoveId(*slot)),
        OpSpec::Abort(slot) => Resolved::Abort(MoveId(*slot)),
    }
}

/// A batch of messages that arrived from `from` in order: the fold of
/// [`BrokerCore::handle_into`] over it into one effect list, each
/// publication taking its set of `pre` while the stamp is current.
fn handle_batch_prematched(
    core: &mut BrokerCore,
    from: Hop,
    msgs: Vec<PubSubMsg>,
    mut pre: Option<&mut PrematchedRoutes>,
) -> Vec<BrokerOutput> {
    let mut out = Vec::new();
    for msg in msgs {
        core.handle_into(from, msg, pre.as_deref_mut(), &mut out);
    }
    out
}

/// [`handle_batch_prematched`] with nothing pre-computed.
fn handle_batch(core: &mut BrokerCore, from: Hop, msgs: Vec<PubSubMsg>) -> Vec<BrokerOutput> {
    handle_batch_prematched(core, from, msgs, None)
}

/// A broker with local client subscriptions, an upstream advertisement,
/// and live pending (shadow) routes: every other subscription — and,
/// when `adv_move` is set, the advertisement itself — is mid-move
/// toward B3 under one of the `MOVE_SLOTS` transaction ids, so script
/// commits/aborts flip real routing state.
fn seeded(config: BrokerConfig, sub_filters: &[Vec<PredSpec>], adv_move: bool) -> BrokerCore {
    let mut core = BrokerCore::new(BrokerId(1), [BrokerId(2), BrokerId(3)], config);
    let adv = Advertisement::new(
        AdvId::new(ClientId(9), 0),
        Filter::builder().ge("x", -100).le("x", 100).build(),
    );
    core.handle(Hop::Broker(BrokerId(2)), PubSubMsg::Advertise(adv.clone()));
    for (i, specs) in sub_filters.iter().enumerate() {
        let cid = ClientId(i as u64);
        let sub = Subscription::new(SubId::new(cid, 0), build_filter(specs));
        core.handle(Hop::Client(cid), PubSubMsg::Subscribe(sub.clone()));
        if i % 2 == 0 {
            core.install_pending_sub(
                &sub,
                MoveId(i as u64 % MOVE_SLOTS),
                Hop::Broker(BrokerId(3)),
                None,
            );
        }
    }
    if adv_move {
        core.install_pending_adv(
            &adv,
            MoveId(MOVE_SLOTS - 1),
            Hop::Broker(BrokerId(3)),
            Some(BrokerId(2)),
        );
    }
    core
}

/// Runs the script both ways — folding `handle` per message vs.
/// [`handle_batch`] over maximal consecutive-message runs — applying the
/// same movement commits/aborts at the same boundaries on both cores.
fn run_both(
    config: BrokerConfig,
    sub_filters: &[Vec<PredSpec>],
    adv_move: bool,
    ops: &[OpSpec],
) -> (BrokerCore, Vec<BrokerOutput>, BrokerCore, Vec<BrokerOutput>) {
    let from = Hop::Broker(BrokerId(2));
    let mut folded = seeded(config, sub_filters, adv_move);
    let mut batched = folded.clone();
    let mut fold_out = Vec::new();
    let mut batch_out = Vec::new();
    let mut run: Vec<PubSubMsg> = Vec::new();
    let flush = |core: &mut BrokerCore, run: &mut Vec<PubSubMsg>, out: &mut Vec<_>| {
        if !run.is_empty() {
            out.extend(handle_batch(core, from, std::mem::take(run)));
        }
    };
    for (i, op) in ops.iter().enumerate() {
        match resolve(op, i) {
            Resolved::Msg(m) => {
                fold_out.extend(folded.handle(from, m.clone()));
                run.push(m);
            }
            Resolved::Commit(mid) => {
                flush(&mut batched, &mut run, &mut batch_out);
                folded.commit_move(mid, &mut fold_out);
                batched.commit_move(mid, &mut batch_out);
            }
            Resolved::Abort(mid) => {
                flush(&mut batched, &mut run, &mut batch_out);
                folded.abort_move(mid, &mut Vec::new());
                batched.abort_move(mid, &mut Vec::new());
            }
        }
    }
    flush(&mut batched, &mut run, &mut batch_out);
    (folded, fold_out, batched, batch_out)
}

fn state_json(core: &BrokerCore) -> String {
    serde_json::to_string(core).expect("broker state serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batching is a pure transport optimization: same flat effect
    /// sequence, same deliveries, same per-neighbor multisets, same
    /// final broker state as the one-message fold — across movement
    /// commits and aborts with live shadow routes.
    #[test]
    fn handle_batch_equals_fold(
        sub_filters in proptest::collection::vec(arb_filter(), 1..8),
        adv_move in any::<bool>(),
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let (folded, fold_out, batched, batch_out) =
            run_both(BrokerConfig::plain(), &sub_filters, adv_move, &ops);
        // The flat sequences agree exactly, and with them every
        // per-destination order a driver could observe.
        prop_assert_eq!(&fold_out, &batch_out);
        prop_assert_eq!(state_json(&folded), state_json(&batched));
    }

    /// The same property under active covering, where subscribe and
    /// retract paths trigger quench/release cascades inside a batch.
    #[test]
    fn handle_batch_equals_fold_with_covering(
        sub_filters in proptest::collection::vec(arb_filter(), 1..6),
        ops in proptest::collection::vec(arb_op(), 1..30),
    ) {
        let (folded, fold_out, batched, batch_out) =
            run_both(BrokerConfig::covering(), &sub_filters, false, &ops);
        prop_assert_eq!(&fold_out, &batch_out);
        prop_assert_eq!(state_json(&folded), state_json(&batched));
    }

    /// Chunked batching composes: splitting one message stream into
    /// arbitrary consecutive chunks of [`handle_batch`] calls yields the
    /// maximal-batch result (associativity of the ingestion path).
    #[test]
    fn batch_splitting_is_associative(
        sub_filters in proptest::collection::vec(arb_filter(), 1..6),
        ops in proptest::collection::vec(arb_op(), 1..30),
        chunk in 1usize..7,
    ) {
        let from = Hop::Broker(BrokerId(2));
        let msgs: Vec<PubSubMsg> = ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match resolve(op, i) {
                Resolved::Msg(m) => Some(m),
                _ => None,
            })
            .collect();
        let mut whole = seeded(BrokerConfig::plain(), &sub_filters, false);
        let mut split = whole.clone();
        let whole_out = handle_batch(&mut whole, from, msgs.clone());
        let mut split_out = Vec::new();
        for c in msgs.chunks(chunk) {
            split_out.extend(handle_batch(&mut split, from, c.to_vec()));
        }
        prop_assert_eq!(whole_out, split_out);
        prop_assert_eq!(state_json(&whole), state_json(&split));
    }
}

/// The publications of a message run, in order — what the pipelined
/// drivers feed to `prematch`.
fn contents_of(run: &[PubSubMsg]) -> Vec<&Publication> {
    run.iter()
        .filter_map(|m| match m {
            PubSubMsg::Publish(p) => Some(&p.content),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pipelined ingestion path — `prematch` under a fresh stamp,
    /// then [`handle_batch_prematched`] — is a pure transport
    /// optimization exactly like [`handle_batch`]: same flat effects and
    /// same final state as the one-message fold. Runs that mix
    /// subscribes/advertises between publishes invalidate the stamp
    /// *mid-batch*, so the internal staleness fallback is exercised by
    /// the same scripts.
    #[test]
    fn prematched_batch_equals_fold(
        sub_filters in proptest::collection::vec(arb_filter(), 1..8),
        adv_move in any::<bool>(),
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let from = Hop::Broker(BrokerId(2));
        let mut folded = seeded(BrokerConfig::plain(), &sub_filters, adv_move);
        let mut batched = folded.clone();
        let mut fold_out = Vec::new();
        let mut batch_out = Vec::new();
        let mut run: Vec<PubSubMsg> = Vec::new();
        let flush = |core: &mut BrokerCore, run: &mut Vec<PubSubMsg>, out: &mut Vec<_>| {
            if !run.is_empty() {
                let msgs = std::mem::take(run);
                let mut pre = core.prematch(&contents_of(&msgs));
                out.extend(
                    handle_batch_prematched(core, from, msgs, Some(&mut pre)),
                );
            }
        };
        for (i, op) in ops.iter().enumerate() {
            match resolve(op, i) {
                Resolved::Msg(m) => {
                    fold_out.extend(folded.handle(from, m.clone()));
                    run.push(m);
                }
                Resolved::Commit(mid) => {
                    flush(&mut batched, &mut run, &mut batch_out);
                    folded.commit_move(mid, &mut fold_out);
                    batched.commit_move(mid, &mut batch_out);
                }
                Resolved::Abort(mid) => {
                    flush(&mut batched, &mut run, &mut batch_out);
                    folded.abort_move(mid, &mut Vec::new());
                    batched.abort_move(mid, &mut Vec::new());
                }
            }
        }
        flush(&mut batched, &mut run, &mut batch_out);
        prop_assert_eq!(&fold_out, &batch_out);
        prop_assert_eq!(state_json(&folded), state_json(&batched));
    }

    /// The pipeline race, deterministically: routes are pre-computed,
    /// *then* a movement transaction commits or aborts (bumping the
    /// routing version — the apply stage's write-lock window), and
    /// only then is the batch applied with the now-stale routes. The
    /// stamp mismatch must force a recomputation: results equal the
    /// fold that never saw the stale routes.
    #[test]
    fn stale_prematch_recomputes_identically(
        sub_filters in proptest::collection::vec(arb_filter(), 1..8),
        adv_move in any::<bool>(),
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let from = Hop::Broker(BrokerId(2));
        let mut folded = seeded(BrokerConfig::plain(), &sub_filters, adv_move);
        let mut batched = folded.clone();
        let mut fold_out = Vec::new();
        let mut batch_out = Vec::new();
        let mut run: Vec<PubSubMsg> = Vec::new();
        // Both cores apply the boundary mutation *before* the buffered
        // run; the batched side pre-computes the run's routes *before*
        // the mutation, so its stamp is stale whenever the commit or
        // abort touched the routing tables.
        let boundary = |folded: &mut BrokerCore,
                            batched: &mut BrokerCore,
                            run: &mut Vec<PubSubMsg>,
                            fold_out: &mut Vec<BrokerOutput>,
                            batch_out: &mut Vec<BrokerOutput>,
                            mid: Option<(MoveId, bool)>| {
            let msgs = std::mem::take(run);
            let mut pre = batched.prematch(&contents_of(&msgs));
            if let Some((m, commit)) = mid {
                if commit {
                    folded.commit_move(m, fold_out);
                    batched.commit_move(m, batch_out);
                } else {
                    folded.abort_move(m, &mut Vec::new());
                    batched.abort_move(m, &mut Vec::new());
                }
            }
            for msg in msgs.iter() {
                fold_out.extend(folded.handle(from, msg.clone()));
            }
            if !msgs.is_empty() {
                batch_out.extend(
                    handle_batch_prematched(batched, from, msgs, Some(&mut pre)),
                );
            }
        };
        for (i, op) in ops.iter().enumerate() {
            match resolve(op, i) {
                Resolved::Msg(m) => run.push(m),
                Resolved::Commit(mid) => boundary(
                    &mut folded, &mut batched, &mut run,
                    &mut fold_out, &mut batch_out, Some((mid, true)),
                ),
                Resolved::Abort(mid) => boundary(
                    &mut folded, &mut batched, &mut run,
                    &mut fold_out, &mut batch_out, Some((mid, false)),
                ),
            }
        }
        boundary(&mut folded, &mut batched, &mut run, &mut fold_out, &mut batch_out, None);
        prop_assert_eq!(&fold_out, &batch_out);
        prop_assert_eq!(state_json(&folded), state_json(&batched));
    }
}
