#!/usr/bin/env bash
# Data-path bench runner: builds the four data-path benches in Release (-O2), runs
# them, and records both simulated latency (p50/p99 ns) and wall-clock simulator
# throughput (ops/s) into BENCH_datapath.json so the perf trajectory has a baseline.
#
# Usage:
#   bench/run_benches.sh [before|after]
#     Section label to write into BENCH_datapath.json (default: after). Run once on
#     the old tree as `before` and once on the new tree as `after` to get a
#     comparable pair in one file.
#
# Environment:
#   BENCH_BUILD_DIR     build directory (default: <repo>/build-bench)
#   BENCH_OUT           output json (default: <repo>/BENCH_datapath.json)
#   BENCH_TENANTS_OUT, BENCH_SMP_OUT, BENCH_STORAGE_OUT, BENCH_CONTROLPATH_OUT,
#   BENCH_OPENLOOP_OUT  the per-bench metrics files (default: <repo>/BENCH_<name>.json)
#   BENCH_RUNS          timing runs per bench; wall_ms is the min (default: 5)
#   BENCH_BASELINE_BUILD_DIR
#                       prebuilt bench binaries of a baseline tree. When set, each
#                       timing round runs baseline and current back to back
#                       (interleaved), and BOTH a "before" (baseline) and an
#                       "after" (current) section are written in one invocation —
#                       sequential whole-tree runs are not comparable when
#                       machine load drifts between them.
#   BENCH_SMOKE=1       smoke mode for CI: use an existing build's bench
#                       binaries, run them once, and fail on any SHAPE-FAIL
#                       verdict; writes no json. The benches run their smoke
#                       shapes (l1: 10^4 connections instead of 10^6).
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BENCH_BUILD_DIR:-$REPO/build-bench}"
OUT="${BENCH_OUT:-$REPO/BENCH_datapath.json}"
LABEL="${1:-after}"
SMOKE="${BENCH_SMOKE:-0}"
BASELINE="${BENCH_BASELINE_BUILD_DIR:-}"

BENCHES=(bench_f1_datapath bench_e1_echo bench_c1_zerocopy bench_c2_streams bench_c3_wakeups bench_e3_storage bench_t2_tenants bench_s1_scaling bench_f2_controlpath bench_l1_openloop)
TENANTS_OUT="${BENCH_TENANTS_OUT:-$REPO/BENCH_tenants.json}"
SMP_OUT="${BENCH_SMP_OUT:-$REPO/BENCH_smp.json}"
STORAGE_OUT="${BENCH_STORAGE_OUT:-$REPO/BENCH_storage.json}"
CONTROLPATH_OUT="${BENCH_CONTROLPATH_OUT:-$REPO/BENCH_controlpath.json}"
OPENLOOP_OUT="${BENCH_OPENLOOP_OUT:-$REPO/BENCH_openloop.json}"

if [[ "$SMOKE" != "1" ]]; then
  cmake -S "$REPO" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG" >/dev/null
  cmake --build "$BUILD" -j "$(nproc)" --target "${BENCHES[@]}" >/dev/null
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Wall time is min-of-N (smoke mode: 1 run): the minimum is the least load-sensitive
# wall-clock estimator, so before/after numbers stay comparable across runs.
RUNS="${BENCH_RUNS:-5}"
if [[ "$SMOKE" == "1" ]]; then RUNS=1; fi

if [[ -n "$BASELINE" ]]; then
  LABELS=(before after)
  DIRS=("$BASELINE" "$BUILD")
else
  LABELS=("$LABEL")
  DIRS=("$BUILD")
fi

declare -A WALL_MS  # keyed "label/bench"
for b in "${BENCHES[@]}"; do
  for li in "${!LABELS[@]}"; do
    exe="${DIRS[$li]}/bench/$b"
    if [[ ! -x "$exe" ]]; then
      echo "missing bench binary: $exe" >&2
      exit 1
    fi
  done
  for (( r = 0; r < RUNS; r++ )); do
    # Inner loop over labels: baseline and current alternate within each round.
    for li in "${!LABELS[@]}"; do
      label="${LABELS[$li]}"
      exe="${DIRS[$li]}/bench/$b"
      # Benches that support it drop a <bench>.metrics.json observability snapshot
      # (per-op latency quantiles, sim internals, recovery trace) in this directory.
      mkdir -p "$TMP/metrics-$label"
      t0=$(date +%s%N)
      BENCH_METRICS_DIR="$TMP/metrics-$label" "$exe" > "$TMP/$label-$b.txt"
      t1=$(date +%s%N)
      ms=$(( (t1 - t0) / 1000000 ))
      key="$label/$b"
      if [[ -z "${WALL_MS[$key]:-}" || "$ms" -lt "${WALL_MS[$key]}" ]]; then
        WALL_MS[$key]=$ms
      fi
    done
  done
  for label in "${LABELS[@]}"; do
    if grep -q 'SHAPE-FAIL' "$TMP/$label-$b.txt"; then
      echo "$b ($label): SHAPE-FAIL" >&2
      sed -n '/SHAPE-FAIL/p' "$TMP/$label-$b.txt" >&2
      exit 1
    fi
    echo "$b ($label): SHAPE-OK (${WALL_MS[$label/$b]} ms wall, best of $RUNS)"
  done
done

if [[ "$SMOKE" == "1" ]]; then
  exit 0
fi

ops_per_sec() {  # ops wall_ms
  local ops=$1 ms=$2
  if (( ms == 0 )); then ms=1; fi
  echo $(( ops * 1000 / ms ))
}

emit_section() {  # label -> json on stdout
  local label=$1

  # f1: 2 systems x 2000 echo requests; "client-observed RTT p50   <posix>   <bypass>"
  local f1_ops=4000 f1_p50_posix f1_p50_bypass
  read -r f1_p50_posix f1_p50_bypass < <(
    awk '/client-observed RTT p50/{print $(NF-1), $NF}' "$TMP/$label-bench_f1_datapath.txt")

  # e1: 4 libOSes x 2000 requests; columns from the end:
  # p50 p99 mean sys copyB dbell pkts
  local e1_ops=8000 e1_catnip_p50 e1_catnip_p99 e1_posix_p50 e1_posix_p99
  local e1_catnip_dbell e1_catnip_pkts
  read -r e1_catnip_p50 e1_catnip_p99 e1_catnip_dbell e1_catnip_pkts < <(
    awk '$1=="catnip"{print $(NF-6), $(NF-5), $(NF-1), $NF}' "$TMP/$label-bench_e1_echo.txt")
  read -r e1_posix_p50 e1_posix_p99 < <(
    awk '$1=="posix"{print $(NF-6), $(NF-5)}' "$TMP/$label-bench_e1_echo.txt")

  # c2: demi server device cost per op at the fragments=1 (bulk SETs) row; the third
  # pipe-separated group is "dbell/op pkts/op".
  local c2_dbell c2_pkts
  read -r c2_dbell c2_pkts < <(
    awk -F'|' '$1 ~ /^1 / {split($4, a, " "); print a[1], a[2]}' \
      "$TMP/$label-bench_c2_streams.txt")

  # c1: 5 value sizes x 2 systems x 1500 requests; catnip copy count at the 4KB row.
  local c1_ops=15000 c1_copies_4k
  c1_copies_4k=$(awk -F'|' '$1 ~ /^4096/{n=split($3, a, " "); print a[n]}' \
    "$TMP/$label-bench_c1_zerocopy.txt")

  # c3: herd table; wait_any wakeups at 16 waiters (third pipe-separated column).
  local c3_wakeups
  c3_wakeups=$(awk -F'|' '$1 ~ /^16 /{split($3, a, " "); print a[1]}' \
    "$TMP/$label-bench_c3_wakeups.txt")

  # e3: catfish vs kernel log appends at the 4096-byte row (us/op columns).
  local e3_kernel_us e3_catfish_us
  read -r e3_kernel_us e3_catfish_us < <(
    awk -F'|' '$1 ~ /^4096/{split($2, k, " "); split($3, c, " "); print k[1], c[1]}' \
      "$TMP/$label-bench_e3_storage.txt")

  # e3 push-down rows: "host|pushdown | depth us/op cmpl/op dbell/op nvme/op".
  local e3_host_cmpl e3_push_cmpl
  e3_host_cmpl=$(awk -F'|' '$1 ~ /^host /{split($2, a, " "); print a[3]}' \
    "$TMP/$label-bench_e3_storage.txt")
  e3_push_cmpl=$(awk -F'|' '$1 ~ /^pushdown /{split($2, a, " "); print a[3]}' \
    "$TMP/$label-bench_e3_storage.txt")

  # Observability snapshots (per-op latency p50/p99, sim internals, recovery trace)
  # emitted by the benches themselves; {} when a bench wrote none.
  local m_e1 m_e3
  m_e1=$(cat "$TMP/metrics-$label/bench_e1_echo.metrics.json" 2>/dev/null || echo '{}')
  m_e3=$(cat "$TMP/metrics-$label/bench_e3_storage.metrics.json" 2>/dev/null || echo '{}')

  cat <<EOF
{
  "f1_datapath": {
    "wall_ms": ${WALL_MS[$label/bench_f1_datapath]},
    "ops": $f1_ops,
    "ops_per_sec": $(ops_per_sec "$f1_ops" "${WALL_MS[$label/bench_f1_datapath]}"),
    "rtt_p50_ns": {"posix": $f1_p50_posix, "kernel_bypass": $f1_p50_bypass},
    "verdict": "SHAPE-OK"
  },
  "e1_echo": {
    "wall_ms": ${WALL_MS[$label/bench_e1_echo]},
    "ops": $e1_ops,
    "ops_per_sec": $(ops_per_sec "$e1_ops" "${WALL_MS[$label/bench_e1_echo]}"),
    "catnip": {"p50_ns": $e1_catnip_p50, "p99_ns": $e1_catnip_p99,
               "doorbells_per_op": $e1_catnip_dbell, "packets_per_op": $e1_catnip_pkts},
    "posix": {"p50_ns": $e1_posix_p50, "p99_ns": $e1_posix_p99},
    "verdict": "SHAPE-OK"
  },
  "c2_streams": {
    "wall_ms": ${WALL_MS[$label/bench_c2_streams]},
    "catnip_bulk": {"doorbells_per_op": $c2_dbell, "packets_per_op": $c2_pkts},
    "verdict": "SHAPE-OK"
  },
  "c1_zerocopy": {
    "wall_ms": ${WALL_MS[$label/bench_c1_zerocopy]},
    "ops": $c1_ops,
    "ops_per_sec": $(ops_per_sec "$c1_ops" "${WALL_MS[$label/bench_c1_zerocopy]}"),
    "catnip_copies_at_4k": $c1_copies_4k,
    "verdict": "SHAPE-OK"
  },
  "c3_wakeups": {
    "wall_ms": ${WALL_MS[$label/bench_c3_wakeups]},
    "wait_any_wakeups_at_16_waiters": $c3_wakeups,
    "verdict": "SHAPE-OK"
  },
  "e3_storage": {
    "wall_ms": ${WALL_MS[$label/bench_e3_storage]},
    "us_per_append_4k": {"kernel": $e3_kernel_us, "catfish": $e3_catfish_us},
    "pushdown_completions_per_lookup": {"host": ${e3_host_cmpl:-0},
                                        "pushdown": ${e3_push_cmpl:-0}},
    "verdict": "SHAPE-OK"
  },
  "metrics": {
    "e1_echo": $m_e1,
    "e3_storage": $m_e3
  }
}
EOF
}

# Merges one section per label into json file $1: with jq, into the file's existing
# sections, so before/after pairs diff in one file. The remaining arguments are the
# command that prints a label's section, given the label as its last argument.
merge_sections() {  # out emit-command...
  local out=$1 label sep
  shift
  if command -v jq >/dev/null && [[ -f "$out" ]]; then
    for label in "${LABELS[@]}"; do
      jq --argjson section "$("$@" "$label")" ". + {\"$label\": \$section}" "$out" \
        > "$out.tmp"
      mv "$out.tmp" "$out"
    done
  else
    {
      printf '{'
      sep=''
      for label in "${LABELS[@]}"; do
        printf '%s\n  "%s": %s' "$sep" "$label" "$("$@" "$label")"
        sep=','
      done
      printf '\n}\n'
    } > "$out"
  fi
}

merge_sections "$OUT" emit_section
echo "wrote section(s) ${LABELS[*]} to $OUT"

# The other BENCH files hold, per label, a bench's wall time plus its own metrics
# snapshot:
#   BENCH_tenants.json      t2: per-tenant DWRR shares, on/off arms;
#   BENCH_smp.json          s1: 1->N worker scaling curves for echo/KV, skewed-tail
#                           steal on/off arms, determinism flag;
#   BENCH_storage.json      e3: catfish append latency quantiles and the
#                           host-vs-pushdown index lookup summary (us/op,
#                           completions/op, doorbells/op, nvme/op);
#   BENCH_controlpath.json  f2: fastcall-vs-syscall control-op pricing, one-crossing
#                           AcceptBatch drains, and the adaptive scenario's policy-off
#                           vs policy-on arms with tenant slot accounting;
#   BENCH_openloop.json     l1: the 10^6-connection open-loop sweep (config,
#                           per-rate achieved throughput and latency quantiles, and
#                           the simulator's footprint: peak RSS, ramp wall time, RSS
#                           per connection).
emit_metrics_section() {  # bench label -> json on stdout
  local bench=$1 label=$2 m
  m=$(cat "$TMP/metrics-$label/$bench.metrics.json" 2>/dev/null || echo '{}')
  printf '{"wall_ms": %s, "metrics": %s}' "${WALL_MS[$label/$bench]}" "$m"
}

METRICS_BENCHES=(bench_t2_tenants bench_s1_scaling bench_e3_storage bench_f2_controlpath bench_l1_openloop)
METRICS_OUTS=("$TENANTS_OUT" "$SMP_OUT" "$STORAGE_OUT" "$CONTROLPATH_OUT" "$OPENLOOP_OUT")
for i in "${!METRICS_BENCHES[@]}"; do
  merge_sections "${METRICS_OUTS[$i]}" emit_metrics_section "${METRICS_BENCHES[$i]}"
  echo "wrote ${METRICS_BENCHES[$i]} section(s) ${LABELS[*]} to ${METRICS_OUTS[$i]}"
done
