#!/usr/bin/env bash
# Checks that the working tree still runs the same program as <rev>:
#
#   scripts/same_program.sh <rev>
#
# For a refactor that must change no behaviour. Builds <rev> offline
# and in release from a `git archive` export under
# target/same_program/ (nothing is registered in the repository's own
# metadata), and the working tree as it stands, each in a target
# directory of its own there. Then, on both builds:
#
#  1. `figures all --seed 42 --out <dir>`: the two output directories
#     must be byte-identical (`diff -r`).
#  2. `e2e --workload W --seed 1 --seconds 2 --trace 1` for each of
#     sim-reconfig, sim-cyclic and sim-match: the traced counts
#     sim.events_per_op, sim.link_msgs_per_op, sim.msgs_per_move,
#     broker.core.outputs_per_op, broker.dedup.dup_arrivals_per_pub and
#     workloads.fanout_per_pub must be equal. Timings are not compared;
#     they do not repeat.
#
# Prints each comparison and exits non-zero on any difference. The
# first run builds both sides from nothing (a few minutes); later runs
# reuse the target directories.
set -euo pipefail

rev=${1:?usage: scripts/same_program.sh <rev>}
root=$(git rev-parse --show-toplevel)
cd "$root"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
	echo "same_program: unknown revision $rev" >&2
	exit 2
}
work=$root/target/same_program
base=$work/base-src
rm -rf "$base"
mkdir -p "$base"
git archive "$rev" | tar -x -C "$base"

# build <source dir> <target dir>
build() {
	CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
		--manifest-path "$1/Cargo.toml" -p transmob-bench --bin figures
	CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
		--manifest-path "$1/bench_e2e/Cargo.toml"
}
echo "same_program: building $rev"
build "$base" "$work/base-target"
echo "same_program: building the working tree"
build "$root" "$work/head-target"

status=0
for side in base head; do
	rm -rf "$work/$side-figures"
	"$work/$side-target/release/figures" all --seed 42 --out "$work/$side-figures" \
		>"$work/$side-figures.log"
done
files=$(find "$work/base-figures" -type f | wc -l)
if diff -r "$work/base-figures" "$work/head-figures"; then
	echo "same_program: figures all --seed 42: $files files, byte-identical"
else
	echo "same_program: figures all --seed 42: outputs differ"
	status=1
fi

metrics="sim.events_per_op sim.link_msgs_per_op sim.msgs_per_move
broker.core.outputs_per_op broker.dedup.dup_arrivals_per_pub
workloads.fanout_per_pub"
for w in sim-reconfig sim-cyclic sim-match; do
	for side in base head; do
		"$work/$side-target/release/e2e" --workload "$w" --seed 1 --seconds 2 --trace 1 \
			2>/dev/null | tail -n 1 >"$work/$side-$w.json"
	done
	echo "same_program: e2e --workload $w --seed 1 --seconds 2 --trace 1 ($rev vs working tree)"
	# shellcheck disable=SC2086
	python3 - "$work/base-$w.json" "$work/head-$w.json" $metrics <<'EOF' || status=1
import json
import sys

base, head = (json.load(open(path))["metrics"] for path in sys.argv[1:3])
differ = False
for name in sys.argv[3:]:
    b, h = base[name]["value"], head[name]["value"]
    print(f"  {name}: {b} {'==' if b == h else '!='} {h}")
    differ |= b != h
sys.exit(1 if differ else 0)
EOF
done

if [ "$status" -eq 0 ]; then
	echo "same_program: same program as $rev"
else
	echo "same_program: DIFFERS from $rev"
fi
exit "$status"
