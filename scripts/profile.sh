#!/usr/bin/env bash
# profile: a sampling CPU profiler for machines without `perf`.
#
# Compiles a small SIGPROF sampler with the system `cc` into
# target/profile/, preloads it into the command, and symbolizes what it
# recorded with `addr2line -f -i -C`. Every process the command starts
# (it is inherited through LD_PRELOAD) leaves one sample file; all of them
# are counted together. Three tables come out: the leaf function, inlined
# frames included; the real (not inlined) function enclosing it; and the
# inclusive table — every function on the sampled call stack, inlined
# frames included, counted once per sample — each with sample counts and
# shares. For diagnosis only: the timer asks for a sample per millisecond
# of CPU time, which the kernel's tick may coarsen (to 4 ms at 250 Hz),
# and a table means little below a few thousand samples. Inlining moves
# samples between functions from one build to the next: compare builds by
# whole modules, not one function.
#
# The call stack is the chain of saved frame pointers (RBP, x86-64) above
# the interrupted stack pointer, each link read with process_vm_readv so a
# stale one cannot fault, and cut at the first return address outside the
# executable mappings. Only code built with frame pointers keeps that
# chain, so frames beyond the leaf appear only for a program built with
# RUSTFLAGS="-C force-frame-pointers=yes" (without it the inclusive table
# is the leaf table give or take a stray frame); where process_vm_readv is
# refused, every stack is its leaf.
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
/* Records the interrupted call stack on every SIGPROF (1 ms of process
 * CPU time) — the instruction pointer, then the return addresses up the
 * frame-pointer chain — and, at exit, writes the samples, one line each,
 * followed by this process's /proc/self/maps to OUT_DIR/<pid>. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

/* Words of sample storage (each sample: its frame count, then its frames)
 * and the deepest stack kept. Untouched storage is never resident. */
#define CAP (1 << 23)
#define DEPTH 64
/* How far above the stack pointer a frame may lie. */
#define SPAN (64ul << 20)
static unsigned long words[CAP];
static unsigned long used;

/* Up to `max` return addresses up the frame-pointer chain from `fp`, each
 * frame above the last and within SPAN of the stack pointer `sp`. */
static int walk(unsigned long fp, unsigned long sp, unsigned long *out, int max) {
    int depth = 0;
    pid_t self = getpid();
    while (depth < max && fp >= sp && fp - sp < SPAN && (fp & 7) == 0) {
        unsigned long frame[2]; /* saved frame pointer, return address */
        struct iovec to = {frame, sizeof frame}, from = {(void *)fp, sizeof frame};
        if (process_vm_readv(self, &to, 1, &from, 1, 0) != (ssize_t)sizeof frame || !frame[1])
            break;
        /* The call instruction, not the one after it: its line and its
         * inlined frames are the caller's. */
        out[depth++] = frame[1] - 1;
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    return depth;
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    unsigned long stack[DEPTH];
    stack[0] = regs[REG_RIP];
    int depth = 1 + walk(regs[REG_RBP], regs[REG_RSP], stack + 1, DEPTH - 1);
    unsigned long at = __atomic_fetch_add(&used, depth + 1, __ATOMIC_RELAXED);
    if (at + depth + 1 > CAP)
        return;
    words[at] = depth;
    for (int i = 0; i < depth; i++)
        words[at + 1 + i] = stack[i];
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
    unsigned long end = used < CAP ? used : CAP;
    for (unsigned long at = 0; at < end && words[at] && at + 1 + words[at] <= end;
         at += 1 + words[at]) {
        for (unsigned long i = 0; i < words[at]; i++)
            fprintf(f, i ? " %lx" : "%lx", words[at + 1 + i]);
        fputc('\n', f);
    }
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
import bisect, collections, os, re, subprocess, sys

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

def sized_symbols(path):
    """Defined code symbols of an ELF file with their sizes, from the
    static table where the file keeps one and the dynamic one (`nm -D`):
    their starts ascending, and for each the furthest end of it and every
    symbol before it."""
    spans = set()
    for table in ([], ["-D"]):
        text = subprocess.run(["nm", "--defined-only", "-S", *table, path],
                              capture_output=True, text=True).stdout
        for line in text.splitlines():
            f = line.split()
            if len(f) == 4 and f[2] in "tTwWiI":
                start, size = int(f[0], 16), int(f[1], 16)
                spans.add((start, start + size))
    spans = sorted(spans)
    reach, furthest = [], 0
    for _, end in spans:
        furthest = max(furthest, end)
        reach.append(furthest)
    return [start for start, _ in spans], reach

def unnamed(sized, addr):
    """Where no symbol covers `addr` though one starts before it, the end
    of the furthest-reaching of those: the start of the unnamed span
    `addr` is in, so that samples in one span add up. Otherwise None."""
    starts, reach = sized
    i = bisect.bisect_right(starts, addr)
    if i == 0 or reach[i - 1] > addr:
        return None
    return reach[i - 1]

# Every sample as its frames, innermost first, each a (file, file offset)
# or the name of what it fell in outside any file; and per binary the
# offsets to symbolize.
samples = []
by_file = collections.defaultdict(set)
for name in os.listdir(out):
    with open(os.path.join(out, name)) as f:
        lines = f.read().splitlines()
    cut = lines.index("maps")
    maps = []
    for line in lines[cut + 1:]:
        f = line.split(maxsplit=5)
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else "[anon]", "x" in f[1]))
    for line in lines[:cut]:
        frames = []
        for depth, pc in enumerate(int(x, 16) for x in line.split()):
            m = next((m for m in maps if m[0] <= pc < m[1]), None)
            if depth > 0 and (m is None or not m[4] or not m[3].startswith("/")):
                # A return address outside the code: the chain went stale.
                break
            if m is None or not m[3].startswith("/"):
                frames.append(m[3] if m else "[unmapped]")
            else:
                frames.append((m[3], pc - m[0] + m[2]))
                by_file[m[3]].add(pc - m[0] + m[2])
        samples.append(frames)

# Per (file, offset): its function names, innermost (inlined) first.
names_at = {}
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
    frames, lines, current, k = {}, {}, None, 0
    for line in res:
        if re.fullmatch(r"0x[0-9a-f]+", line):
            current, k = int(line, 16), 0
            frames[current], lines[current] = [], []
        elif current is not None:
            (frames if k % 2 == 0 else lines)[current].append(line)
            k += 1
    base = os.path.basename(path)
    sized = sized_symbols(path)
    for off in offsets:
        vaddr = vaddrs[off]
        names = [n for n in frames.get(vaddr, []) if n != "??"] or [f"?? ({base})"]
        # Without debug information addr2line names the symbol table's
        # nearest symbol before the address; past that symbol's end the
        # name is wrong, so the address is named by its file instead.
        if lines.get(vaddr, ["??:0"])[0].startswith("??:"):
            gap = unnamed(sized, vaddr)
            if gap is not None:
                names = [f"{base}+{gap:#x}"]
        names_at[(path, off)] = [re.sub(r"::h[0-9a-f]{16}$", "", n) for n in names]

leaf, real, inclusive = collections.Counter(), collections.Counter(), collections.Counter()
for frames in samples:
    names = [names_at[f] if isinstance(f, tuple) else [f] for f in frames]
    leaf[names[0][0]] += 1
    real[names[0][-1]] += 1
    inclusive.update({n for chain in names for n in chain})

total = len(samples)
if total == 0:
    sys.exit("profile: no samples recorded (did the command exit through exit()?)")
for title, table in (("leaf function (inlined frames included)", leaf),
                     ("enclosing real function", real),
                     ("inclusive: on the call stack (inlined frames included)", inclusive)):
    print(f"\n{title} — {total} samples")
    print(f"{'samples':>8} {'share':>6}  function")
    for name, hits in table.most_common(rows):
        print(f"{hits:>8} {100 * hits / total:>5.1f}%  {name}")
EOF
rm -rf "$out"
exit $status
