#!/usr/bin/env bash
# Bench-regression gate: re-measures the routing benches and compares
# per-benchmark medians against the committed baseline
# BENCH_routing.json.
#
#   - Gated groups: publish_batch, srt_overlap, covering_release. A
#     median more than 25% slower than the committed baseline fails
#     the gate. Every baseline row carries the `nproc` it was recorded
#     on; the bars mean something only against a box of that size.
#   - The baseline must record the cyclic_routing group (tree /
#     tree_dedup / extra1 / extra3 at 7 brokers) with the forced-dedup
#     tree row within 10% of the plain tree row — the multi-path PR's
#     acceptance bar: tree deployments pay <10% for the dedup gate.
#     Non-fast runs re-measure that ratio live with the dedicated
#     dedup_gate binary (interleaved paired slices, immune to the
#     between-row machine drift that criterion medians carry).
#   - The baseline must record the move_vs_bystanders reconfig rows
#     (one reconfiguration movement on a chain of 8 whose path brokers
#     hold 300 / 3 000 / 30 000 bystander rows). The 30 000 / 300
#     ratio is printed, not gated: the paper's claim is that it is ~1
#     (a movement touches only the mover's own entries), and pass/fail
#     timing decisions belong to paired end-to-end runs.
#   - The baseline must record the delivery_fanout rows (one
#     publication at a MobileBroker hosting 1 / 40 / 400 running
#     subscribers that all match, eight string attributes), each with
#     the parent commit's time beside it. Printed, not gated: the
#     end-to-end claim rests on paired `e2e` runs.
#   - The baseline must record the table_footprint rows (bytes a row
#     of a 1 000- and a 10 000-row PRT of wide two-band filters, by
#     the counting allocator) and the subscribe_path rows (installing
#     and forwarding a subscription whose filter the caller shares),
#     each with the parent commit's figure beside it. Printed, not
#     gated: crates/broker/tests/table_footprint.rs holds the byte
#     budget, paired `e2e` runs the end-to-end claim.
#   - The baseline must record the forwarding_saturation rows (the
#     forwarding query on 10 000 wide rows whose hops are one, twenty
#     or one per row, and on transit_400, the sim-cyclic transit shape
#     of 400 one-band rows on two hops), each with the parent commit's
#     time beside it. hop_per_row can never saturate, so its ratio to
#     the parent is what the early exit costs a table it cannot help.
#     Printed, not gated: pass/fail timing belongs to paired `e2e` runs.
#   - The TCP wire-protocol baseline BENCH_tcp.json must record the
#     tcp_throughput group (binary frames at batch 64/256), the
#     tcp_latency p99 row and the tcp_summary msgs/sec row. Its rows
#     carry `nproc` like the routing baseline's. Printed, not gated.
#   - CI_FAST=1 skips re-measurement (single-iteration timings are
#     meaningless) and only checks the baseline shape plus that every
#     gated benchmark still runs; set BENCH_QUICK_JSON=<file> to reuse
#     an existing CRITERION_QUICK capture instead of re-running.
#   - BENCH_CHECK_RUNS (default 3) measurement repetitions feed each
#     median, damping scheduler noise on small CI boxes.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_routing.json
TCP_BASELINE=BENCH_tcp.json
GATED=(publish_batch srt_overlap covering_release)

# TCP baseline shape checks (every mode).
python3 - "$TCP_BASELINE" <<'PY'
import json, sys

rows = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
unstamped = sorted(f"{r['group']}/{r['bench']}" for r in rows if "nproc" not in r)
if unstamped:
    sys.exit(f"bench_check: {sys.argv[1]} rows without nproc: {unstamped}")
def latest(group, field="ns_per_iter"):
    out = {}
    for r in rows:
        if r["group"] == group and field in r:
            out[r["bench"]] = r[field]
    return out

thr = latest("tcp_throughput")
for need in ("bin/64", "bin/256"):
    if need not in thr:
        sys.exit(f"bench_check: {sys.argv[1]} missing tcp_throughput/{need}")
lat = latest("tcp_latency")
if "bin/p99" not in lat:
    sys.exit(f"bench_check: {sys.argv[1]} missing tcp_latency/bin/p99")
summary = latest("tcp_summary", "msgs_per_sec")
if "bin/256" not in summary:
    sys.exit(f"bench_check: {sys.argv[1]} missing tcp_summary/bin/256 msgs/sec")
print(
    f"bench_check: tcp baseline ok (recorded on nproc {sorted({r['nproc'] for r in rows})}, "
    f"{summary['bin/256']:,.0f} msgs/sec at batch 256, p99 {lat['bin/p99']/1e3:.0f}us, not gated)"
)
PY

# Baseline shape checks (every mode): rows stamped, groups recorded.
python3 - "$BASELINE" <<'PY'
import json, sys

rows = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
unstamped = sorted(f"{r['group']}/{r['bench']}" for r in rows if "nproc" not in r)
if unstamped:
    sys.exit(f"bench_check: baseline rows without nproc: {unstamped}")
print(f"bench_check: baseline ok (recorded on nproc {sorted({r['nproc'] for r in rows})})")
cy = {r["bench"]: r["ns_per_iter"] for r in rows if r["group"] == "cyclic_routing"}
for need in ("tree/7", "tree_dedup/7", "extra1/7", "extra3/7"):
    if need not in cy:
        sys.exit(f"bench_check: baseline missing cyclic_routing/{need}")
dratio = cy["tree_dedup/7"] / cy["tree/7"]
if dratio > 1.10:
    sys.exit(f"bench_check: baseline dedup overhead {dratio:.2f}x > 1.10x on the tree")
print(f"bench_check: baseline ok (cyclic_routing dedup overhead {dratio:.2f}x on the tree)")
mv = {r["bench"]: r["ns_per_iter"] for r in rows if r["group"] == "move_vs_bystanders"}
for need in ("reconfig/300", "reconfig/3000", "reconfig/30000"):
    if need not in mv:
        sys.exit(f"bench_check: baseline missing move_vs_bystanders/{need}")
print(
    f"bench_check: baseline ok (move_vs_bystanders reconfig {mv['reconfig/300'] / 1e3:.1f} us at 300 "
    f"bystanders, {mv['reconfig/30000'] / 1e3:.1f} us at 30 000: "
    f"{mv['reconfig/30000'] / mv['reconfig/300']:.2f}x, not gated)"
)
df = {r["bench"]: r for r in rows if r["group"] == "delivery_fanout"}
for need in ("1", "40", "400"):
    if need not in df or "parent_ns_per_iter" not in df[need]:
        sys.exit(f"bench_check: baseline missing delivery_fanout/{need} (with parent_ns_per_iter)")
print(
    "bench_check: baseline ok (delivery_fanout "
    + ", ".join(
        f"{df[k]['ns_per_iter'] / 1e3:.1f} us at {k} (parent {df[k]['parent_ns_per_iter'] / 1e3:.1f})"
        for k in ("1", "40", "400")
    )
    + ", not gated)"
)
tf = {r["bench"]: r for r in rows if r["group"] == "table_footprint"}
for need in ("1k", "10k"):
    if need not in tf or not {"bytes_per_row", "parent_bytes_per_row"} <= tf[need].keys():
        sys.exit(f"bench_check: baseline missing table_footprint/{need} (with bytes_per_row and parent_bytes_per_row)")
sp = {r["bench"]: r for r in rows if r["group"] == "subscribe_path"}
for need in ("prt_insert", "propagate"):
    if need not in sp or "parent_ns_per_iter" not in sp[need]:
        sys.exit(f"bench_check: baseline missing subscribe_path/{need} (with parent_ns_per_iter)")
print(
    "bench_check: baseline ok (table_footprint "
    + ", ".join(
        f"{tf[k]['bytes_per_row']} B a row at {k} (parent {tf[k]['parent_bytes_per_row']})"
        for k in ("1k", "10k")
    )
    + "; subscribe_path "
    + ", ".join(
        f"{k} {sp[k]['ns_per_iter'] / 1e3:.2f} us (parent {sp[k]['parent_ns_per_iter'] / 1e3:.2f})"
        for k in ("prt_insert", "propagate")
    )
    + ", not gated)"
)
fs = {r["bench"]: r for r in rows if r["group"] == "forwarding_saturation"}
fs_rows = ("one_hop", "twenty_hops", "hop_per_row", "transit_400")
for need in fs_rows:
    if need not in fs or "parent_ns_per_iter" not in fs[need]:
        sys.exit(f"bench_check: baseline missing forwarding_saturation/{need} (with parent_ns_per_iter)")
print(
    "bench_check: baseline ok (forwarding_saturation "
    + ", ".join(
        f"{k} {fs[k]['ns_per_iter'] / 1e3:.1f} us (parent {fs[k]['parent_ns_per_iter'] / 1e3:.1f})"
        for k in fs_rows
    )
    + f"; hop_per_row {fs['hop_per_row']['ns_per_iter'] / fs['hop_per_row']['parent_ns_per_iter']:.2f}x the parent, not gated)"
)
PY

if [[ "${CI_FAST:-0}" == "1" ]]; then
    out="${BENCH_QUICK_JSON:-}"
    cleanup=""
    if [[ -z "$out" ]]; then
        out=$(mktemp)
        cleanup="$out"
        trap 'rm -f "$cleanup"' EXIT
        CRITERION_QUICK=1 CRITERION_JSON="$out" \
            cargo bench -p transmob-bench -q --bench routing -- \
            "${GATED[@]}" cyclic_routing
        CRITERION_QUICK=1 CRITERION_JSON="$out" \
            cargo bench -p transmob-bench -q --bench tcp -- tcp_throughput
    fi
    python3 - "$out" "$BASELINE" "${GATED[@]}" <<'PY'
import json, sys

seen = set()
for line in open(sys.argv[1]):
    r = json.loads(line)
    seen.add((r["group"], r["bench"]))
base = set()
for line in open(sys.argv[2]):
    r = json.loads(line)
    base.add((r["group"], r["bench"]))
gated = set(sys.argv[3:]) | {"cyclic_routing"}
missing = sorted(k for k in base if k[0] in gated and k not in seen)
if missing:
    sys.exit(f"bench_check: benchmarks vanished from the quick run: {missing}")
for need in ("bin/64", "bin/256"):
    if ("tcp_throughput", need) not in seen:
        sys.exit(f"bench_check: tcp_throughput/{need} vanished from the quick run")
print(f"bench_check: CI_FAST=1 - all {len([k for k in seen if k[0] in gated])} "
      "gated benchmarks plus tcp_throughput still run; timing gate skipped")
PY
    exit 0
fi

runs="${BENCH_CHECK_RUNS:-3}"
out=$(mktemp)
trap 'rm -f "$out"' EXIT
for _ in $(seq "$runs"); do
    CRITERION_JSON="$out" cargo bench -p transmob-bench -q --bench routing -- \
        "${GATED[@]}" cyclic_routing
done

python3 - "$out" "$BASELINE" "${GATED[@]}" <<'PY'
import json, statistics, sys

meas = {}
for line in open(sys.argv[1]):
    r = json.loads(line)
    meas.setdefault((r["group"], r["bench"]), []).append(r["ns_per_iter"])
base = {}
for line in open(sys.argv[2]):
    r = json.loads(line)
    base[(r["group"], r["bench"])] = r["ns_per_iter"]
gated = set(sys.argv[3:])

failures = []
for key in sorted(k for k in meas if k[0] in gated):
    med = statistics.median(meas[key])
    if key not in base:
        print(f"bench_check: note: {key[0]}/{key[1]} has no baseline (new bench)")
        continue
    ratio = med / base[key]
    verdict = "FAIL" if ratio > 1.25 else "ok"
    print(f"bench_check: {verdict} {key[0]}/{key[1]} "
          f"median {med:,.0f} ns vs baseline {base[key]:,.0f} ns ({ratio:.2f}x)")
    if ratio > 1.25:
        failures.append(key)

missing = sorted(k for k in base if k[0] in gated and k not in meas)
if missing:
    sys.exit(f"bench_check: gated benchmarks vanished: {missing}")
missing_cy = [n for n in ("tree/7", "tree_dedup/7", "extra1/7", "extra3/7")
              if ("cyclic_routing", n) not in meas]
if missing_cy:
    sys.exit(f"bench_check: cyclic_routing rows were not measured: {missing_cy}")

if failures:
    sys.exit(f"bench_check: regression >25% in {failures}")
print("bench_check: regression gate passed")
PY

# Live dedup-overhead gate: the forced-dedup tree must stay within 10%
# of the plain tree. Criterion rows run seconds apart and machine
# drift between them dwarfs the bar, so the gate uses the dedicated
# paired-measurement binary (interleaved A/B slices, median of paired
# ratios — see crates/bench/src/bin/dedup_gate.rs).
dedup_json=$(cargo run -q --release -p transmob-bench --bin dedup_gate)
python3 - "$dedup_json" <<'PY'
import json, sys

r = json.loads(sys.argv[1])
ratio = r["ratio"]
if ratio > 1.10:
    sys.exit(f"bench_check: live dedup overhead {ratio:.2f}x > 1.10x on the tree "
             f"({r['tree_dedup_ns_per_pub']:.0f} vs {r['tree_ns_per_pub']:.0f} ns/pub)")
print(f"bench_check: live dedup gate passed ({ratio:.2f}x on the tree, "
      f"{r['tree_dedup_ns_per_pub']:.0f} vs {r['tree_ns_per_pub']:.0f} ns/pub)")
PY
