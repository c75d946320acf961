#!/usr/bin/env bash
# profile: a sampling CPU profiler for machines without `perf`.
#
# Compiles a small SIGPROF sampler with the system `cc` into
# target/profile/, preloads it into the command, and symbolizes what it
# recorded with `addr2line -f -i -C`. Every process the command starts
# (it is inherited through LD_PRELOAD) leaves one sample file; all of them
# are counted together. Two tables come out: the leaf function, inlined
# frames included, and the real (not inlined) function enclosing it —
# each with sample counts and shares. For diagnosis only: the timer asks
# for a sample per millisecond of CPU time, which the kernel's tick may
# coarsen (to 4 ms at 250 Hz), and a table means little below a few
# thousand samples. Inlining moves samples between functions from one
# build to the next: compare builds by whole modules, not one function.
#
# usage: scripts/profile.sh [-n rows] <command…>
#   e.g. scripts/profile.sh benchmark/target/release/aft-benchmark \
#          --workload ba-n32-sim --seed 1 --seconds 10 --trace 0 \
#          --partyd benchmark/target/release/aft-partyd --out /tmp/bench-out
set -euo pipefail
rows=25
if [[ ${1:-} == -n ]]; then
    rows=$2
    shift 2
fi
if [[ $# -eq 0 ]]; then
    echo "usage: $0 [-n rows] <command…>" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
dir=$root/target/profile
out=$dir/run.$$
rm -rf "$out"
mkdir -p "$out"

cat >"$dir/sampler.c" <<'EOF'
/* Records the interrupted instruction pointer on every SIGPROF (1 ms of
 * process CPU time) and, at exit, writes the samples followed by this
 * process's /proc/self/maps to OUT_DIR/<pid>. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAP (1 << 21)
static unsigned long pcs[CAP];
static unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < CAP)
        pcs[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096];
    snprintf(path, sizeof path, "%s/%d", OUT_DIR, (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    unsigned long n = taken < CAP ? taken : CAP;
    for (unsigned long i = 0; i < n; i++)
        fprintf(f, "%lx\n", pcs[i]);
    fputs("maps\n", f);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;)
        fputc(c, f);
    if (maps)
        fclose(maps);
    fclose(f);
}
EOF
cc -O2 -shared -fPIC -DOUT_DIR="\"$out\"" -o "$dir/sampler.so" "$dir/sampler.c"

status=0
LD_PRELOAD=$dir/sampler.so "$@" || status=$?

python3 - "$out" "$rows" <<'EOF'
import collections, os, re, subprocess, sys

out, rows = sys.argv[1], int(sys.argv[2])

def load_segments(path):
    """PT_LOAD segments of an ELF file as (offset, vaddr, filesz)."""
    text = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
    segs = []
    for line in text.splitlines():
        f = line.split()
        if f and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
    return segs

# Per binary: the file-relative virtual addresses sampled, with counts.
by_file = collections.defaultdict(collections.Counter)
unmapped = collections.Counter()
for name in os.listdir(out):
    with open(os.path.join(out, name)) as f:
        lines = f.read().splitlines()
    cut = lines.index("maps")
    maps = []
    for line in lines[cut + 1:]:
        f = line.split(maxsplit=5)
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else "[anon]"))
    for pc in (int(x, 16) for x in lines[:cut]):
        m = next((m for m in maps if m[0] <= pc < m[1]), None)
        if m is None or not m[3].startswith("/"):
            unmapped[m[3] if m else "[unmapped]"] += 1
        else:
            by_file[m[3]][pc - m[0] + m[2]] += 1

leaf, real = collections.Counter(), collections.Counter()
for name, hits in unmapped.items():
    leaf[name] += hits
    real[name] += hits
for path, offsets in by_file.items():
    segs = load_segments(path)
    vaddrs = {}
    for off in offsets:
        seg = next((s for s in segs if s[0] <= off < s[0] + s[2]), None)
        vaddrs[off] = off - seg[0] + seg[1] if seg else off
    addrs = sorted(set(vaddrs.values()))
    res = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
        input="\n".join(f"{a:x}" for a in addrs), capture_output=True, text=True,
    ).stdout.splitlines()
    # `-a` heads each address's frames (innermost first) with the address;
    # a frame is two lines, function then file:line.
    frames, current, k = {}, None, 0
    for line in res:
        if re.fullmatch(r"0x[0-9a-f]+", line):
            current, k = int(line, 16), 0
            frames[current] = []
        elif current is not None:
            if k % 2 == 0:
                frames[current].append(line)
            k += 1
    base = os.path.basename(path)
    for off, hits in offsets.items():
        names = [n for n in frames.get(vaddrs[off], []) if n != "??"] or [f"?? ({base})"]
        leaf[re.sub(r"::h[0-9a-f]{16}$", "", names[0])] += hits
        real[re.sub(r"::h[0-9a-f]{16}$", "", names[-1])] += hits

total = sum(leaf.values())
if total == 0:
    sys.exit("profile: no samples recorded (did the command exit through exit()?)")
for title, table in (("leaf function (inlined frames included)", leaf),
                     ("enclosing real function", real)):
    print(f"\n{title} — {total} samples")
    print(f"{'samples':>8} {'share':>6}  function")
    for name, hits in table.most_common(rows):
        print(f"{hits:>8} {100 * hits / total:>5.1f}%  {name}")
EOF
rm -rf "$out"
exit $status
