#!/usr/bin/env bash
# Sampling CPU profile of one end-to-end benchmark run:
#
#   scripts/profile.sh --workload sim-cyclic --seed 1 --seconds 10 --trace 0
#
# Builds the `e2e` binary (release, as the benchmark runs it), preloads
# a small SIGPROF sampler into it (`setitimer(ITIMER_PROF)` at 997 Hz,
# `backtrace()` per tick, stacks written at exit), resolves the stacks
# against `nm -C` of the binary and prints each function's self and
# inclusive share. Only samples with `Sim::run_until` on the stack
# count, i.e. the timed phase of the `sim-*` workloads: set-up, the
# oracle and the report are left out. Inlined callees are charged to
# the function they were inlined into; frames outside the binary are
# named by `dladdr` (`[malloc]`; `[?]` is what it cannot name, mostly
# libc's local symbols such as its `memcpy` variants).
#
#   scripts/profile.sh --callers malloc --workload sim-reconfig --seed 1 --seconds 10 --trace 0
#
# additionally attributes the samples whose leaf frame's name contains
# the substring (`malloc`, `?`, `memcpy`, `clone`, ...) to their
# callers: the share of each pair of nearest named ancestors that are
# not allocator plumbing, which is what turns "`[?]` 14 %" into "under
# `handle_move`, under `SimFlush::send_batch`".
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
if [[ "${1:-}" == "--callers" ]]; then
    callers="${2:?--callers needs a substring of the leaf frame to attribute}"
    shift 2
fi

dir=target/profile
mkdir -p "$dir"
rm -f "$dir"/samples.*

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
exe=bench_e2e/target/release/e2e

PROFILE_SAMPLES="$PWD/$dir/samples" LD_PRELOAD="$PWD/$dir/shim.so" "$exe" "$@" >"$dir/stdout"
tail -n 1 "$dir/stdout" | cut -c1-400

nm -C --defined-only "$exe" >"$dir/symbols"
python3 - "$dir" "$callers" <<'PY'
import bisect, collections, glob, re, sys

ROOT = "Sim::run_until"
CALLERS = sys.argv[2]
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

total = kept = 0
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
        self_n[stack[0]] += 1
        for s in set(stack):
            incl_n[s] += 1
        if CALLERS and CALLERS in stack[0]:
            named = [s for s in stack[1:] if not PLUMBING.search(s)]
            callers_n[tuple(named[:2])] += 1

print(f"profile: {total} samples at 997 Hz, {kept} under {ROOT}")
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
