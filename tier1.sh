#!/bin/sh
# Tier-1 verification in one command: full build, full test suite, and
# a parallel-sweep smoke run of the bench driver.
set -e
cd "$(dirname "$0")"

dune build
dune runtest
dune exec bench/main.exe -- tab1 --jobs 2

# Chaos suite, pinned seed: the degradation grid must complete every
# fault plan (a plan that hits the epoch cap prints a WARNING).
dune exec bench/main.exe -- chaos --jobs 2

# Memory-RAS grid: ECC storms and a permanent node failure.  The bar
# is the same — every cell completes, the failed node is evacuated
# (DESIGN.md §14; a cell that hits the epoch cap prints a WARNING).
dune exec bench/main.exe -- ras --jobs 2

# Combined chaos + RAS smoke: software faults and hardware RAS compose
# in one plan — queue loss and flaky allocations while a node dies and
# ECC errors land.  The run must still complete.
dune exec bin/xen_numa_sim.exe -- run swaptions -m xen+ -p ft+carrefour \
  --faults "alloc=0.2,batch-loss=0.3,ecc-ce=0.5,ecc-ue=0.02,node_fail=1.0@50" >/dev/null
echo "tier1: chaos+ras combined smoke OK"

# Hugepage grid: superpages on/off across the three boot placements
# (EXPERIMENTS.md documents the expected shape; test/test_engine.ml
# pins it).
dune exec bench/main.exe -- hugepage --jobs 2

# Mitosis grid: radix page-walk pricing and page-table replication
# on/off (EXPERIMENTS.md documents the expected shape;
# test/test_extensions.ml pins the differential core).
dune exec bench/main.exe -- mitosis --jobs 2

# Perf gate: re-run the tab1 grid and compare wall-clock against the
# most recently committed BENCH_*.json (at its recorded --jobs
# setting, so deltas measure the code and not domain-count overhead).
# Any section more than 25% slower than the reference fails the build.
PERF_REF=""
PERF_REF_TIME=0
for f in BENCH_*.json; do
  [ -f "$f" ] || continue
  t=$(git log -1 --format=%ct -- "$f" 2>/dev/null)
  [ -n "$t" ] || continue
  if [ "$t" -gt "$PERF_REF_TIME" ]; then
    PERF_REF_TIME=$t
    PERF_REF=$f
  fi
done
if [ -n "$PERF_REF" ]; then
  PERF_JOBS=$(sed -n 's/^ *"jobs": \([0-9][0-9]*\),$/\1/p' "$PERF_REF")
  PERF_JOBS="${PERF_JOBS:-1}"
  echo "tier1: perf gate vs $PERF_REF (--jobs $PERF_JOBS)"
  dune exec bench/main.exe -- tab1 --jobs "$PERF_JOBS" --compare "$PERF_REF"
else
  echo "tier1: perf gate skipped (no committed BENCH_*.json)"
fi

# Usage errors must be reported as such: unknown sections, unknown
# options and a malformed --jobs all exit non-zero, and an unknown
# option is named as an option, not mistaken for a section.
if dune exec bench/main.exe -- no-such-section >/dev/null 2>&1; then
  echo "tier1: FAIL - unknown bench section did not exit non-zero" >&2
  exit 1
fi
if dune exec bench/main.exe -- tab1 --jobs banana >/dev/null 2>&1; then
  echo "tier1: FAIL - bad --jobs did not exit non-zero" >&2
  exit 1
fi
if out=$(dune exec bench/main.exe -- --inner-jobs 2 2>&1); then
  echo "tier1: FAIL - unknown bench option did not exit non-zero" >&2
  exit 1
fi
case "$out" in
  *'unknown option "--inner-jobs"'*) ;;
  *)
    echo "tier1: FAIL - unknown bench option not reported as an option" >&2
    exit 1
    ;;
esac

# The run help renders cleanly: a doc string Cmdliner cannot parse is
# reported on stderr and its escaped characters vanish from the text.
if ! help=$(dune exec bin/xen_numa_sim.exe -- run --help=plain 2>&1 >/dev/null); then
  echo "tier1: FAIL - run --help=plain exited non-zero" >&2
  exit 1
fi
if [ -n "$help" ]; then
  echo "tier1: FAIL - run --help=plain wrote to stderr: $help" >&2
  exit 1
fi
dune exec bin/xen_numa_sim.exe -- run --help=plain | grep -qF 'alloc=0.3@50-150' || {
  echo "tier1: FAIL - run --help=plain lost the fault-plan example alloc=0.3@50-150" >&2
  exit 1
}

# A thread count the host cannot pin is a usage error with a message,
# never an uncaught exception.
for t in 0 100; do
  if dune exec bin/xen_numa_sim.exe -- run swaptions --threads "$t" >/dev/null 2>&1; then
    echo "tier1: FAIL - run --threads $t did not exit non-zero" >&2
    exit 1
  fi
  if dune exec bin/xen_numa_sim.exe -- run swaptions --threads "$t" 2>&1 | grep -q "internal error"; then
    echo "tier1: FAIL - run --threads $t crashed instead of reporting a usage error" >&2
    exit 1
  fi
done

# Trace determinism smoke: the same grid traced at --jobs 1 and
# --jobs 4 must export byte-identical JSONL (streams are merged by
# config-derived label, never by worker schedule), every line must be
# one JSON object, and the summariser must accept the file.
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
dune exec bench/main.exe -- tab1 --jobs 1 --trace "$TRACE_DIR/j1.jsonl" --trace-cap 512 >/dev/null
dune exec bench/main.exe -- tab1 --jobs 4 --trace "$TRACE_DIR/j4.jsonl" --trace-cap 512 >/dev/null
cmp "$TRACE_DIR/j1.jsonl" "$TRACE_DIR/j4.jsonl" || {
  echo "tier1: FAIL - traces differ between --jobs 1 and --jobs 4" >&2
  exit 1
}
grep -cv '^{.*}$' "$TRACE_DIR/j1.jsonl" >/dev/null 2>&1 && {
  echo "tier1: FAIL - trace contains non-JSON-object lines" >&2
  exit 1
}
dune exec bin/xen_numa_trace.exe -- check "$TRACE_DIR/j1.jsonl"
dune exec bin/xen_numa_trace.exe -- summary --timeline 4 "$TRACE_DIR/j1.jsonl" >/dev/null
echo "tier1: trace determinism OK ($(wc -l < "$TRACE_DIR/j1.jsonl") JSONL lines)"

# Same determinism bar for the hugepage grid: the promotion scan is
# cursor-driven and the TLB blend derives from P2M state, so the
# worker schedule must not leak into the trace.
dune exec bench/main.exe -- hugepage --jobs 1 --trace "$TRACE_DIR/hp1.jsonl" --trace-cap 512 >/dev/null
dune exec bench/main.exe -- hugepage --jobs 4 --trace "$TRACE_DIR/hp4.jsonl" --trace-cap 512 >/dev/null
cmp "$TRACE_DIR/hp1.jsonl" "$TRACE_DIR/hp4.jsonl" || {
  echo "tier1: FAIL - hugepage traces differ between --jobs 1 and --jobs 4" >&2
  exit 1
}
dune exec bin/xen_numa_trace.exe -- check "$TRACE_DIR/hp1.jsonl"
echo "tier1: hugepage trace determinism OK ($(wc -l < "$TRACE_DIR/hp1.jsonl") JSONL lines)"

# Same bar for the mitosis grid: walk-off cells must replay the
# baseline engine byte for byte, and the replica update stream (hence
# the walk/replica summary events) must be a function of the cell seed
# alone, never of the worker schedule.
dune exec bench/main.exe -- mitosis --jobs 1 --trace "$TRACE_DIR/mt1.jsonl" --trace-cap 512 >/dev/null
dune exec bench/main.exe -- mitosis --jobs 4 --trace "$TRACE_DIR/mt4.jsonl" --trace-cap 512 >/dev/null
cmp "$TRACE_DIR/mt1.jsonl" "$TRACE_DIR/mt4.jsonl" || {
  echo "tier1: FAIL - mitosis traces differ between --jobs 1 and --jobs 4" >&2
  exit 1
}
dune exec bin/xen_numa_trace.exe -- check "$TRACE_DIR/mt1.jsonl"
echo "tier1: mitosis trace determinism OK ($(wc -l < "$TRACE_DIR/mt1.jsonl") JSONL lines)"

# And for the RAS grid: node-failure targets, ECC draws, evacuation
# batches and the degraded traffic model must all be functions of the
# cell seed alone, never of the worker schedule.
dune exec bench/main.exe -- ras --jobs 1 --trace "$TRACE_DIR/ras1.jsonl" --trace-cap 512 >/dev/null
dune exec bench/main.exe -- ras --jobs 4 --trace "$TRACE_DIR/ras4.jsonl" --trace-cap 512 >/dev/null
cmp "$TRACE_DIR/ras1.jsonl" "$TRACE_DIR/ras4.jsonl" || {
  echo "tier1: FAIL - ras traces differ between --jobs 1 and --jobs 4" >&2
  exit 1
}
dune exec bin/xen_numa_trace.exe -- check "$TRACE_DIR/ras1.jsonl"
echo "tier1: ras trace determinism OK ($(wc -l < "$TRACE_DIR/ras1.jsonl") JSONL lines)"

# Fast-forward equivalence: the steady-state delta replay must be
# invisible.  Each cell runs with fast-forward on and off; the JSONL
# exports must be byte-identical — same events, same floats, same
# order — and so must stdout once the "(N replayed)" suffix and the
# trace-file line are stripped.  The cells: a static cell (round-4k
# quiesces into a pure replay streak), a Carrefour cell (decade
# boundaries punctuate the streaks), a Linux first-touch/Carrefour
# cell, a radix-walk + replicated-page-table cell, and a disk-I/O cell
# with SLO objectives (verdicts and latency percentiles live in the
# printed result, not in the trace).
STRIP_FF='s/ ([0-9]* replayed)//; /^trace written to /d'
ff_equiv() {
  tag=$1
  shift
  dune exec bin/xen_numa_sim.exe -- run "$@" --trace "$TRACE_DIR/$tag-on.jsonl" \
    | sed "$STRIP_FF" > "$TRACE_DIR/$tag-on.txt"
  dune exec bin/xen_numa_sim.exe -- run "$@" --no-fast-forward \
    --trace "$TRACE_DIR/$tag-off.jsonl" | sed "$STRIP_FF" > "$TRACE_DIR/$tag-off.txt"
  cmp "$TRACE_DIR/$tag-on.jsonl" "$TRACE_DIR/$tag-off.jsonl" || {
    echo "tier1: FAIL - $tag traces differ between fast-forward on and off" >&2
    exit 1
  }
  cmp "$TRACE_DIR/$tag-on.txt" "$TRACE_DIR/$tag-off.txt" || {
    echo "tier1: FAIL - $tag results differ between fast-forward on and off" >&2
    exit 1
  }
}
ff_equiv static swaptions -t 8 -m xen+ -p round-4k
ff_equiv carrefour streamcluster -t 8 -m xen+ -p round-4k/carrefour
ff_equiv linux-carrefour pagerank -m linux -p first-touch/carrefour
ff_equiv pt-walk swaptions -t 8 -m xen+ -p first-touch/carrefour --pt-walk --replicate-pt
ff_equiv disk-slo cassandra -m xen+ -p round-1g --slo p99=500,mean=300
echo "tier1: fast-forward trace equivalence OK"

# Trace query engine smoke: the streaming query over the tab1 traces
# from --jobs 1 and --jobs 4 must render byte-identical tables (the
# aggregates are pure functions of the trace bytes), and the same run
# captured in both codecs must answer every query identically.
dune exec bin/xen_numa_trace.exe -- query "$TRACE_DIR/j1.jsonl" > "$TRACE_DIR/q1.txt"
dune exec bin/xen_numa_trace.exe -- query "$TRACE_DIR/j4.jsonl" > "$TRACE_DIR/q4.txt"
cmp "$TRACE_DIR/q1.txt" "$TRACE_DIR/q4.txt" || {
  echo "tier1: FAIL - query output differs between --jobs 1 and --jobs 4 traces" >&2
  exit 1
}
dune exec bin/xen_numa_sim.exe -- run swaptions -t 8 -m xen+ -p first-touch/carrefour \
  --trace "$TRACE_DIR/codec.jsonl" --trace-cap 512 >/dev/null
dune exec bin/xen_numa_sim.exe -- run swaptions -t 8 -m xen+ -p first-touch/carrefour \
  --trace "$TRACE_DIR/codec.bin" --trace-cap 512 >/dev/null
dune exec bin/xen_numa_trace.exe -- query --class page_fault,epoch_boundary --epochs 0-200 \
  --format jsonl --heatmap "$TRACE_DIR/heat_jsonl.csv" "$TRACE_DIR/codec.jsonl" \
  > "$TRACE_DIR/qc_jsonl.txt"
dune exec bin/xen_numa_trace.exe -- query --class page_fault,epoch_boundary --epochs 0-200 \
  --format jsonl --heatmap "$TRACE_DIR/heat_bin.csv" "$TRACE_DIR/codec.bin" \
  > "$TRACE_DIR/qc_bin.txt"
cmp "$TRACE_DIR/qc_jsonl.txt" "$TRACE_DIR/qc_bin.txt" || {
  echo "tier1: FAIL - query output differs between JSONL and binary codecs" >&2
  exit 1
}
cmp "$TRACE_DIR/heat_jsonl.csv" "$TRACE_DIR/heat_bin.csv" || {
  echo "tier1: FAIL - heatmap CSV differs between JSONL and binary codecs" >&2
  exit 1
}
echo "tier1: trace query engine OK (codecs and schedules agree)"

# Query usage errors: an unknown class name and a corrupt trace file
# must both exit non-zero (the class error enumerates the valid names;
# truncation must never be silently accepted).
if dune exec bin/xen_numa_trace.exe -- query --class no_such_class "$TRACE_DIR/codec.jsonl" \
  >/dev/null 2>&1; then
  echo "tier1: FAIL - unknown query class did not exit non-zero" >&2
  exit 1
fi
head -c 100 "$TRACE_DIR/codec.bin" > "$TRACE_DIR/truncated.bin"
if dune exec bin/xen_numa_trace.exe -- query "$TRACE_DIR/truncated.bin" >/dev/null 2>&1; then
  echo "tier1: FAIL - truncated binary trace did not exit non-zero" >&2
  exit 1
fi

# Phase profiler smoke: --profile prints the span table (and SLO
# objectives evaluate without disturbing the run).
dune exec bin/xen_numa_sim.exe -- run swaptions -t 8 --slo p99=10000 --profile \
  > "$TRACE_DIR/profile.txt"
grep -q "phase" "$TRACE_DIR/profile.txt" || {
  echo "tier1: FAIL - --profile printed no span table" >&2
  exit 1
}
grep -q "slo p99" "$TRACE_DIR/profile.txt" || {
  echo "tier1: FAIL - --slo printed no objective row" >&2
  exit 1
}
echo "tier1: profiler and SLO smoke OK"

# Short randomised chaos pass: a fresh QCHECK_SEED (overridable for
# replay) re-runs the fault-injection property suite, whose
# frame-accounting invariant (no leaks, no double frees) fails the
# build on violation.
QCHECK_SEED="${QCHECK_SEED:-$(date +%s)}"
export QCHECK_SEED
echo "tier1: randomised chaos pass (QCHECK_SEED=$QCHECK_SEED)"
dune exec test/test_main.exe -- test faults

# Same randomised seed over the property suites: the buddy partition
# invariant (the memory.buddy filter also matches memory.buddy.offline,
# whose free + allocated + offlined = total invariant covers page
# offlining), the P2M superpage consistency invariant, the top-k heap
# invariant, the batched-vs-per-page P2M equivalence, the evacuation
# frame-conservation property (post-drain P2M maps exactly the
# pre-failure guest frames, none on an offlined mfn), the
# replica-equivalence invariant (mirrors track the primary through any
# op interleaving), the radix walk monotonicity properties, and the
# fast-forward equivalence property (a delta-replayed run equals the
# naive run bit for bit across randomised policies, seeds and SLO
# objectives).
echo "tier1: randomised property pass (QCHECK_SEED=$QCHECK_SEED)"
dune exec test/test_main.exe -- test memory.buddy
dune exec test/test_main.exe -- test xen.p2m
dune exec test/test_main.exe -- test stats.topk
dune exec test/test_main.exe -- test xen.p2m.batch
dune exec test/test_main.exe -- test engine.ff
dune exec test/test_main.exe -- test policies.evacuation
dune exec test/test_main.exe -- test obs.latency
dune exec test/test_main.exe -- test obs.query
dune exec test/test_main.exe -- test xen.pt
dune exec test/test_main.exe -- test guest.tlb.walk

echo "tier1: OK"
