#!/usr/bin/env bash
# Sampling CPU profile of one end-to-end benchmark run:
#
#   scripts/profile.sh --workload sim-cyclic --seed 1 --seconds 10 --trace 0
#
# Builds the `e2e` binary (release, as the benchmark runs it), preloads
# a small SIGPROF sampler into it (`setitimer(ITIMER_PROF)` at 997 Hz,
# `backtrace()` per tick, stacks written at exit), resolves the stacks
# against `nm -C` of the binary and prints each function's self and
# inclusive share. By default only samples with `Sim::run_until` on
# the stack count, i.e. the timed phase of the `sim-*` workloads:
# set-up, the oracle and the report are left out (`--root`, below). Inlined callees are charged to
# the function they were inlined into; frames outside the binary are
# named by `dladdr` (`[malloc]`; `[?]` is what it cannot name, mostly
# libc's local symbols such as its `memcpy` variants). Right after the
# sample count it prints the driver share: the share of those samples with no
# `MobileBroker::` frame on the stack, i.e. what the driver (on the
# `sim-*` workloads, the `Sim`) spends on its own bookkeeping rather
# than on broker steps. A change to the driver states its before and
# after as this one number.
#
#   scripts/profile.sh --callers malloc --workload sim-reconfig --seed 1 --seconds 10 --trace 0
#
# additionally attributes the samples whose leaf frame's name contains
# the substring (`malloc`, `?`, `memcpy`, `clone`, ...) to their
# callers: the share of each pair of nearest named ancestors that are
# not allocator plumbing, which is what turns "`[?]` 14 %" into "under
# `handle_move`, under `SimFlush::send_batch`".
#
#   scripts/profile.sh --root Sim::run_to_quiescence --workload sim-match --seed 1 --seconds 10 --trace 0
#
# counts the samples under another function instead of
# `Sim::run_until` (any substring of a frame's name): here the set-up,
# which settles the subscriptions by running the Sim to quiescence.
# `--root` and `--callers` go before the `e2e` arguments, in either
# order.
#
#   scripts/profile.sh --allocs --workload sim-cyclic --seed 1 --seconds 10 --trace 0
#
# samples nothing: it preloads a shim that counts the calls to
# `malloc`, `calloc`, `realloc` and the aligned allocators instead, and
# runs the binary twice, once for a single round (`--seconds 0.001`
# appended) and once as given, for several. The difference is what the
# extra rounds cost, set-up included, so it prints the allocations an
# operation of one round makes. All threads count, so on the threaded
# workloads the number includes the runtime's own.
#
# Needs `cc`, `nm` and `python3`; prints a notice and exits 0 without
# them. No CI tier runs this.
set -euo pipefail
cd "$(dirname "$0")/.."

for tool in cc nm python3; do
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "profile: skipped, no \`$tool\` on this machine"
        exit 0
    fi
done

callers=""
root="Sim::run_until"
allocs=""
while true; do
    case "${1:-}" in
    --allocs)
        allocs=1
        shift
        ;;
    --callers)
        callers="${2:?--callers needs a substring of the leaf frame to attribute}"
        shift 2
        ;;
    --root)
        root="${2:?--root needs a substring of the function whose samples count}"
        shift 2
        ;;
    *) break ;;
    esac
done

dir=target/profile
mkdir -p "$dir"
rm -f "$dir"/samples.*
exe=bench_e2e/target/release/e2e

if [ -n "$allocs" ]; then
    cat >"$dir/allocs.c" <<'C'
#define _GNU_SOURCE
#include <stdio.h>
#include <stdlib.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);

static unsigned long calls;
#define COUNT __atomic_fetch_add(&calls, 1, __ATOMIC_RELAXED)

void *malloc(size_t n) { COUNT; return __libc_malloc(n); }
void *calloc(size_t k, size_t n) { COUNT; return __libc_calloc(k, n); }
void *realloc(void *p, size_t n) { COUNT; return __libc_realloc(p, n); }
void *aligned_alloc(size_t align, size_t n) { COUNT; return __libc_memalign(align, n); }
int posix_memalign(void **out, size_t align, size_t n) {
    COUNT;
    void *p = __libc_memalign(align, n);
    if (!p) return 12; /* ENOMEM */
    *out = p;
    return 0;
}

__attribute__((destructor)) static void finish(void) {
    FILE *out = fopen(getenv("PROFILE_ALLOCS"), "w");
    if (!out) return;
    fprintf(out, "%lu\n", __atomic_load_n(&calls, __ATOMIC_RELAXED));
    fclose(out);
}
C
    cc -O2 -shared -fPIC -o "$dir/allocs.so" "$dir/allocs.c"
    cargo build --release --offline --quiet --manifest-path bench_e2e/Cargo.toml
    # One round, then as many as the arguments' --seconds allow (the
    # last --seconds given wins).
    for run in one several; do
        extra=()
        [ "$run" = one ] && extra=(--seconds 0.001)
        PROFILE_ALLOCS="$PWD/$dir/allocs.$run" LD_PRELOAD="$PWD/$dir/allocs.so" \
            "$exe" "$@" "${extra[@]}" >"$dir/stdout.$run"
    done
    python3 - "$dir" <<'PY'
import re, sys

runs = {}
for run in ("one", "several"):
    out = open(f"{sys.argv[1]}/stdout.{run}").read()
    m = re.search(r"^# (\S+): (\d+) round\(s\) of (\d+) ops", out, re.M)
    calls = int(open(f"{sys.argv[1]}/allocs.{run}").read())
    runs[run] = (m.group(1), int(m.group(2)), int(m.group(3)), calls)
name, r1, ops, a1 = runs["one"]
_, rn, _, an = runs["several"]
if rn <= r1:
    sys.exit(f"allocs: the run as given made {rn} round(s); give it more --seconds")
print(f"allocs: {name}: {a1} calls in {r1} round, {an} in {rn} rounds of {ops} ops")
print(f"allocs: {(an - a1) / ((rn - r1) * ops):.1f} allocations an operation of one round")
PY
    exit 0
fi

cat >"$dir/shim.c" <<'C'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <unistd.h>

#define DEPTH 48
#define MAX_SAMPLES (1 << 20)
static void *(*stacks)[DEPTH];
static unsigned char *depths;
static volatile size_t taken;
static size_t exe_base, exe_end;

static void tick(int sig) {
    (void)sig;
    size_t i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) depths[i] = (unsigned char)backtrace(stacks[i], DEPTH);
}

static int main_program(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size; (void)data;
    exe_base = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; i++)
        if (info->dlpi_phdr[i].p_type == PT_LOAD) {
            size_t end = exe_base + info->dlpi_phdr[i].p_vaddr + info->dlpi_phdr[i].p_memsz;
            if (end > exe_end) exe_end = end;
        }
    return 1; /* the first object is the program itself */
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder outside the handler */
    dl_iterate_phdr(main_program, NULL);
    stacks = calloc(MAX_SAMPLES, sizeof *stacks);
    depths = calloc(MAX_SAMPLES, 1);
    struct sigaction sa = {.sa_handler = tick, .sa_flags = SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1003}, {0, 1003}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[256];
    snprintf(path, sizeof path, "%s.%d", getenv("PROFILE_SAMPLES"), (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) return;
    size_t n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (size_t i = 0; i < n; i++) {
        /* frames 0 and 1 are the handler and the signal trampoline */
        for (int f = 2; f < depths[i]; f++) {
            size_t pc = (size_t)stacks[i][f];
            Dl_info where;
            if (pc >= exe_base && pc < exe_end) fprintf(out, "+%zx ", pc - exe_base);
            else if (dladdr((void *)pc, &where) && where.dli_sname) fprintf(out, "@%s ", where.dli_sname);
            else fprintf(out, "@? ");
        }
        fputc('\n', out);
    }
    fclose(out);
}
C
cc -O2 -shared -fPIC -o "$dir/shim.so" "$dir/shim.c" -ldl

cargo build --release --offline --quiet --manifest-path bench_e2e/Cargo.toml

PROFILE_SAMPLES="$PWD/$dir/samples" LD_PRELOAD="$PWD/$dir/shim.so" "$exe" "$@" >"$dir/stdout"
tail -n 1 "$dir/stdout" | cut -c1-400

nm -C --defined-only "$exe" >"$dir/symbols"
python3 - "$dir" "$callers" "$root" <<'PY'
import bisect, collections, glob, re, sys

CALLERS = sys.argv[2]
ROOT = sys.argv[3]
# Frames that say nothing about who asked: unnamed ones, the
# allocator's entry points and the standard library's growth paths.
PLUMBING = re.compile(
    r"^\[(\?|malloc|calloc|realloc|free|cfree|memalign|posix_memalign)\]$"
    r"|__rust_|__rdl_|alloc::alloc::|alloc::raw_vec::|RawVec|CountingAlloc"
)
syms = []
for line in open(sys.argv[1] + "/symbols"):
    parts = line.rstrip("\n").split(" ", 2)
    if len(parts) == 3 and parts[1] in "tTwW":
        syms.append((int(parts[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", parts[2])))
syms.sort()
starts = [a for a, _ in syms]

def name(frame):
    if frame[0] == "@":
        return "[" + frame[1:] + "]"
    # A return address is one past the call: look up the byte before.
    i = bisect.bisect_right(starts, int(frame[1:], 16) - 1) - 1
    return syms[i][1] if i >= 0 else "[?]"

total = kept = driver = 0
self_n, incl_n, callers_n = collections.Counter(), collections.Counter(), collections.Counter()
for path in glob.glob(sys.argv[1] + "/samples.*"):
    for line in open(path):
        frames = line.split()
        if not frames:
            continue
        total += 1
        # The leaf is the interrupted instruction itself, not a return address.
        leaf = frames[0] if frames[0][0] == "@" else "+%x" % (int(frames[0][1:], 16) + 1)
        stack = [name(leaf)] + [name(f) for f in frames[1:]]
        under = next((i for i, s in enumerate(stack) if ROOT in s), None)
        if under is None:
            continue
        stack = stack[: under + 1]
        kept += 1
        driver += not any("MobileBroker::" in s for s in stack)
        self_n[stack[0]] += 1
        for s in set(stack):
            incl_n[s] += 1
        if CALLERS and CALLERS in stack[0]:
            named = [s for s in stack[1:] if not PLUMBING.search(s)]
            callers_n[tuple(named[:2])] += 1

print(f"profile: {total} samples at 997 Hz, {kept} under {ROOT}")
if kept:
    print(
        f"profile: driver share {100 * driver / kept:.1f}%: the samples under {ROOT} "
        "with no MobileBroker:: frame, i.e. the driver's own bookkeeping"
    )
if kept:
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print(f"\n{title:>9}  function (top 30 by {title} share of the samples under {ROOT})")
        for s, n in counts.most_common(30):
            print(f"{100 * n / kept:8.1f}%  {s[:150]}")
if CALLERS:
    matched = sum(callers_n.values())
    print(
        f"\ncallers of leaf frames matching {CALLERS!r}: {matched} samples, "
        f"{100 * matched / max(kept, 1):.1f}% of those under {ROOT}"
    )
    print("    share  nearest named caller  <  its caller (top 20, share of the matching samples)")
    for pair, n in callers_n.most_common(20):
        print(f"{100 * n / matched:8.1f}%  " + "  <  ".join(s[:90] for s in pair))
PY
