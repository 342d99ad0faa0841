#!/usr/bin/env bash
# Hermetic CI for the Sequence-RTG reproduction.
#
# The whole pipeline runs with --offline: the workspace has zero crates.io
# dependencies (see DESIGN.md, "Hermetic builds"), so a network-less runner
# must be able to build, test, and audit the tree end to end.
#
# Usage: ci.sh [--stage <pattern>]
#   --stage <pattern>  run only stages whose name contains <pattern>
#                      (glob patterns allowed); everything else is SKIPped.
#                      Gate stages assume a prior release build and recorded
#                      results/ — run the build stage (or `cargo build
#                      --release --offline`) first on a cold tree.
set -euo pipefail
cd "$(dirname "$0")"

STAGE_FILTER=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --stage)   STAGE_FILTER=$2; shift 2 ;;
    --stage=*) STAGE_FILTER=${1#--stage=}; shift ;;
    *) echo "usage: ci.sh [--stage <pattern>]" >&2; exit 2 ;;
  esac
done

# --- Per-stage wall-clock timing and the run summary -----------------------
# Every `==>` stage is timed; the run writes results/ci_timings.json and a
# summary table, and fails when any stage takes more than 3x its recorded
# baseline (plus a 15 s grace for sub-second stages on a noisy runner).
# `stage_begin` doubles as the --stage selector: a filtered-out stage is
# recorded as SKIP and its body never runs.
ci_stage_names=()
ci_stage_ms=()
ci_all_names=()
ci_all_status=()
_stage_open=""
stage_begin() {
  _stage_name=$1
  # shellcheck disable=SC2053  # intentional glob match of the filter
  if [[ -n "${STAGE_FILTER}" && "${_stage_name}" != *${STAGE_FILTER}* ]]; then
    ci_all_names+=("${_stage_name}")
    ci_all_status+=("SKIP")
    return 1
  fi
  _stage_t0=$(date +%s%N)
  _stage_open="${_stage_name}"
  echo "==> ${_stage_name}"
}
stage_end() {
  local ms=$(( ( $(date +%s%N) - _stage_t0 ) / 1000000 ))
  ci_stage_names+=("${_stage_name}")
  ci_stage_ms+=("${ms}")
  ci_all_names+=("${_stage_name}")
  ci_all_status+=("PASS")
  _stage_open=""
}

# --- Shared scratch space and seqd helpers ---------------------------------
smoke_json=$(mktemp)
seqd_log=$(mktemp)
seqd_store=$(mktemp -d)
ci_exit() {
  rm -rf "${smoke_json}" "${smoke_json}".* "${seqd_log}" "${seqd_log}".* "${seqd_store}"
  [[ -n "${seqd_pid:-}" ]] && kill -9 "${seqd_pid}" 2>/dev/null || true
  # The final pass/fail table. A stage that began but never ended is the one
  # that failed the run.
  if [[ -n "${_stage_open}" ]]; then
    ci_all_names+=("${_stage_open}")
    ci_all_status+=("FAIL")
  fi
  if [[ ${#ci_all_names[@]} -gt 0 ]]; then
    echo "==> CI summary"
    local i
    for i in "${!ci_all_names[@]}"; do
      printf '    %-68s %s\n' "${ci_all_names[$i]}" "${ci_all_status[$i]}"
    done
  fi
}
trap ci_exit EXIT

# Poll a seqd stderr log until the daemon announces its port.
wait_seqd_port() {
  local log=$1 port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "${log}")
    [[ -n "${port}" ]] && { echo "${port}"; return 0; }
    sleep 0.1
  done
  echo "seqd did not come up" >&2; cat "${log}" >&2; return 1
}

# One HTTP request against a local seqd, asserting a 200 response.
seqd_http() {
  local port=$1 method=$2 path=$3
  exec 3<>"/dev/tcp/127.0.0.1/${port}"
  printf '%s %s HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' "${method}" "${path}" >&3
  head -n1 <&3 | grep -q "200 OK"
  local ok=$?
  exec 3>&- 3<&-
  return "${ok}"
}

# GET a path from a local seqd and print the response body (headers stripped).
seqd_http_body() {
  local port=$1 path=$2
  exec 3<>"/dev/tcp/127.0.0.1/${port}"
  printf 'GET %s HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' "${path}" >&3
  sed '1,/^\r$/d' <&3
  exec 3>&- 3<&-
}

# --- Consolidated gate helpers ---------------------------------------------
# Every regression gate below goes through one of these; thresholds stay at
# each call site so a gate's bar is visible where the gate runs.

# elem/s rates of one bench JSON recording, one "id rate" line per record.
# Rates are recomputed from elements and median_ns because the oldest
# baseline recordings predate the per_sec field.
bench_rates() {
  sed -n 's/.*"id":"\([^"]*\)".*"median_ns":\([0-9.]*\).*"elements":\([0-9.]*\).*/\1 \2 \3/p' "$1" \
    | awk '{printf "%s %.1f\n", $1, $3 * 1e9 / $2}'
}

# gate_ratio_table BASE.json CUR.json MIN_RATIO FAIL_MSG
# Join two bench recordings on id, print each id's elem/s trajectory, fail
# when any current/baseline ratio drops below MIN_RATIO.
gate_ratio_table() {
  local base=$1 cur=$2 min_ratio=$3 fail_msg=$4
  bench_rates "${base}" | sort > "${smoke_json}.base"
  bench_rates "${cur}" | sort > "${smoke_json}.cur"
  join "${smoke_json}.base" "${smoke_json}.cur" \
    | awk -v min="${min_ratio}" -v msg="${fail_msg}" '
    {
      ratio = $3 / $2
      printf "    %-45s %12.0f -> %12.0f elem/s (x%.2f)\n", $1, $2, $3, ratio
      if (ratio < min) { bad = 1 }
    }
    END {
      if (bad) { printf "    %s\n", msg > "/dev/stderr"; exit 1 }
    }'
  rm -f "${smoke_json}.base" "${smoke_json}.cur"
}

# gate_floor VALUE FLOOR FMT FAIL_MSG
# Absolute floor on one recorded value; FMT is the awk printf format of the
# one-line verdict (applied to VALUE).
gate_floor() {
  local value=$1 floor=$2 fmt=$3 fail_msg=$4
  awk -v v="${value}" -v floor="${floor}" -v fmt="${fmt}" -v msg="${fail_msg}" 'BEGIN {
    printf "    " fmt "\n", v
    if (v < floor) { printf "    %s\n", msg > "/dev/stderr"; exit 1 }
  }'
}

# gate_ceiling VALUE CEILING FMT FAIL_MSG [DISPLAY_SCALE]
# Absolute ceiling on one recorded value; the verdict line shows
# VALUE * DISPLAY_SCALE (e.g. ns scaled to ms), the comparison is raw.
gate_ceiling() {
  local value=$1 ceiling=$2 fmt=$3 fail_msg=$4 scale=${5:-1}
  awk -v v="${value}" -v ceil="${ceiling}" -v fmt="${fmt}" -v msg="${fail_msg}" \
      -v scale="${scale}" 'BEGIN {
    printf "    " fmt "\n", v * scale
    if (v > ceil) { printf "    %s\n", msg > "/dev/stderr"; exit 1 }
  }'
}

# gate_pair_ratio BASE CUR MAX_RATIO FMT FAIL_MSG
# Ratio gate on one recorded value pair; FMT formats (base, cur, ratio).
gate_pair_ratio() {
  local base=$1 cur=$2 max_ratio=$3 fmt=$4 fail_msg=$5
  awk -v base="${base}" -v cur="${cur}" -v max="${max_ratio}" -v fmt="${fmt}" \
      -v msg="${fail_msg}" 'BEGIN {
    ratio = cur / base
    printf "    " fmt "\n", base, cur, ratio
    if (ratio > max) { printf "    %s\n", msg > "/dev/stderr"; exit 1 }
  }'
}

# gate_drop_table BASE_TABLE CUR_TABLE MAX_DROP FAIL_MSG
# Join two sorted "name score" tables, print each score trajectory, fail
# when any score drops more than MAX_DROP points below its baseline.
gate_drop_table() {
  local base=$1 cur=$2 max_drop=$3 fail_msg=$4
  join "${base}" "${cur}" | awk -v lim="${max_drop}" -v msg="${fail_msg}" '
    {
      delta = $3 - $2
      printf "    %-14s %.4f -> %.4f (%+.4f)\n", $1, $2, $3, delta
      if (-delta > lim + 1e-9) { bad = 1 }
    }
    END {
      if (bad) { printf "    %s\n", msg > "/dev/stderr"; exit 1 }
    }'
}

# --- Stages ----------------------------------------------------------------

if stage_begin "cargo fmt --check"; then
cargo fmt --all -- --check
stage_end
fi

if stage_begin "cargo build --release --offline"; then
cargo build --release --offline --workspace
stage_end
fi

if stage_begin "cargo test -q --offline"; then
cargo test -q --offline --workspace
stage_end
fi

if stage_begin "protocol torture + group commit (release, optimised wire path)"; then
# The adversarial wire suites run twice on purpose: the workspace test run
# above exercises them with debug assertions (including the UTF-8 re-check
# inside jsonlite's unchecked borrow path), and this release run exercises
# the exact optimised code the benchmarks and production builds ship.
cargo test -q --release --offline -p seqd --test protocol_torture --test group_commit
stage_end
fi

if stage_begin "bench smoke (1 sample, JSON to a scratch file)"; then
# One warm-up + one sample per benchmark: proves the bench binaries run and
# emit well-formed JSON without touching the recorded results/ trajectories.
TESTKIT_BENCH_SAMPLES=1 TESTKIT_BENCH_JSON="${smoke_json}" \
  cargo bench -q --offline -p bench --bench parser_throughput >/dev/null
grep -q '"id":"parser/match_against_learned_set/1000"' "${smoke_json}"
TESTKIT_BENCH_SAMPLES=1 TESTKIT_BENCH_JSON="${smoke_json}" \
  cargo bench -q --offline -p bench --bench scanner_throughput >/dev/null
grep -q '"id":"scanner/parse_only"' "${smoke_json}"
TESTKIT_BENCH_SAMPLES=1 TESTKIT_BENCH_JSON="${smoke_json}" \
  cargo bench -q --offline -p bench --bench seqd_throughput >/dev/null
grep -q '"id":"seqd/ingest_tcp"' "${smoke_json}"
grep -q '"id":"seqd/ingest_tcp_remine"' "${smoke_json}"
grep -q '"id":"seqd/ingest_tcp_evolve"' "${smoke_json}"
grep -q '"id":"seqd/ingest_line_latency"' "${smoke_json}"
grep -q '"id":"seqd/mine_stall"' "${smoke_json}"
# Restart cost at a realistic store size (>= 3,500 patterns, checkpointed on
# disk): open + load_pattern_sets must stay linear in the store. A per-pattern
# examples scan made this ~4 s; the absolute ceiling is 1 s.
TESTKIT_BENCH_SAMPLES=1 TESTKIT_BENCH_JSON="${smoke_json}" \
  cargo bench -q --offline -p bench --bench patterndb_ops >/dev/null
reload_ns=$(sed -n 's/.*"id":"patterndb\/reopen_and_load".*"median_ns":\([0-9.]*\).*/\1/p' \
  "${smoke_json}")
[[ -n "${reload_ns}" ]] \
  || { echo "patterndb/reopen_and_load record missing from the bench smoke" >&2; exit 1; }
gate_ceiling "${reload_ns}" 1000000000 \
  "reopen_and_load %.1f ms (ceiling 1000 ms)" \
  "REGRESSION: reopening the pattern store took over 1 s" 0.000001
echo "    bench smoke OK"
stage_end
fi

if stage_begin "bench regression gate (recorded parser trajectory vs baseline)"; then
# Guard the PR-over-PR perf record: the current results/BENCH_parser.json
# must not have regressed more than 30% in elem/s against the frozen
# baseline.
gate_ratio_table results/BENCH_parser.baseline.json results/BENCH_parser.json \
  0.7 "REGRESSION: >30% drop vs baseline"
echo "    regression gate OK"
stage_end
fi

if stage_begin "seqd throughput regression gate (recorded wire-path elem/s vs baseline)"; then
# The daemon's headline number: receipt-rate elem/s through the event-loop
# wire path (first byte -> durable receipt; see benches/seqd_throughput.rs).
# A re-recorded results/BENCH_seqd.json that drops more than 40% against
# the frozen baseline fails the gate.
gate_ratio_table results/BENCH_seqd.baseline.json results/BENCH_seqd.json \
  0.6 "REGRESSION: >40% drop vs baseline"
echo "    seqd throughput gate OK"
stage_end
fi

if stage_begin "evolve throughput gate (recorded online-evolution wire rate, absolute floor)"; then
# The online-evolution counterpart of the churn bench measures the same
# wire window with `--evolve online`. Unlike the ratio gates, this one is
# an absolute floor: the recorded receipt rate must stay at or above 1.0M
# lines/s, the bar that holds "online evolution stays off the ingest hot
# path" as a number rather than a sentence.
evolve_rate=$(bench_rates results/BENCH_seqd.json \
  | awk '$1 == "seqd/ingest_tcp_evolve" { print $2 }')
[[ -n "${evolve_rate}" ]] \
  || { echo "ingest_tcp_evolve record missing from results/BENCH_seqd.json" >&2; exit 1; }
gate_floor "${evolve_rate}" 1000000 \
  "ingest_tcp_evolve %.0f elem/s (floor 1000000)" \
  "REGRESSION: online-evolution ingest below 1.0M lines/s"
echo "    evolve throughput gate OK"
stage_end
fi

if stage_begin "latency regression gate (recorded seqd p99 vs frozen baseline)"; then
# The seqd bench records the daemon's own per-line ingest latency (from the
# seqd_ingest_line_seconds histogram) next to its throughput record. A
# re-recorded trajectory whose p99 is more than 50% above the frozen
# baseline fails the gate.
latency_p99() {
  sed -n 's/.*"id":"seqd\/ingest_line_latency".*"p99_ns":\([0-9]*\).*/\1/p' "$1"
}
base_p99=$(latency_p99 results/BENCH_seqd.baseline.json)
cur_p99=$(latency_p99 results/BENCH_seqd.json)
[[ -n "${base_p99}" && -n "${cur_p99}" ]] \
  || { echo "ingest_line_latency record missing from results/BENCH_seqd*.json" >&2; exit 1; }
gate_pair_ratio "${base_p99}" "${cur_p99}" 1.5 \
  "p99 ingest line latency %d ns -> %d ns (x%.2f)" \
  "REGRESSION: p99 >50% above baseline"
echo "    latency gate OK"
stage_end
fi

if stage_begin "mine-stall gate (recorded worker handoff pause, absolute ceiling)"; then
# The point of the background mining pipeline: handing residue to the miner
# must never stall a shard worker for a humanly-noticeable beat. Unlike the
# ratio gates above this one is absolute — the recorded seqd/mine_stall
# maximum (from the churn bench, re-mines forced mid-run) must stay under
# 5 ms, the bar the inline-mining design could exceed a thousandfold.
stall_max=$(sed -n 's/.*"id":"seqd\/mine_stall".*"max_ns":\([0-9]*\).*/\1/p' \
  results/BENCH_seqd.json)
[[ -n "${stall_max}" ]] \
  || { echo "mine_stall record missing from results/BENCH_seqd.json" >&2; exit 1; }
gate_ceiling "${stall_max}" 5000000 \
  "max mine-handoff stall %.3f ms (ceiling 5 ms)" \
  "REGRESSION: mine stall above 5 ms" 0.000001
echo "    mine-stall gate OK"
stage_end
fi

if stage_begin "accuracy regression gate (LogHub-2.0 grouping accuracy vs frozen baseline)"; then
# The quality floor next to the throughput gates: re-score the scaled-down
# fixed-seed LogHub-2.0 corpora live (all 14 families, 2000 lines each —
# deterministic seed->corpus, so same code means same scores), then hold
# sequence-rtg's per-family grouping accuracy against the frozen
# results/BENCH_accuracy.baseline.json two ways:
#   1. no family may drop more than 2 points (0.020), and
#   2. on families where the recorded run beats the Drain baseline,
#      the live run must still beat Drain.
./target/release/bench-accuracy --out results/BENCH_accuracy.json \
  2> "${smoke_json}.acc.log" \
  || { cat "${smoke_json}.acc.log" >&2; exit 1; }
# "family score" table of one tool's grouping accuracy, sorted for join.
accuracy_scores() {
  sed -n 's|.*"id":"accuracy/\([^"]*\)/'"$1"'".*"grouping_accuracy":\([0-9.]*\).*|\1 \2|p' "$2" \
    | sort
}
accuracy_scores sequence-rtg results/BENCH_accuracy.baseline.json > "${smoke_json}.acc.base"
accuracy_scores sequence-rtg results/BENCH_accuracy.json > "${smoke_json}.acc.cur"
[[ -s "${smoke_json}.acc.base" && -s "${smoke_json}.acc.cur" ]] \
  || { echo "sequence-rtg records missing from results/BENCH_accuracy*.json" >&2; exit 1; }
gate_drop_table "${smoke_json}.acc.base" "${smoke_json}.acc.cur" 0.020 \
  "REGRESSION: grouping accuracy dropped >2 points vs baseline"
accuracy_scores drain results/BENCH_accuracy.baseline.json > "${smoke_json}.acc.drbase"
accuracy_scores drain results/BENCH_accuracy.json > "${smoke_json}.acc.drcur"
join "${smoke_json}.acc.base" "${smoke_json}.acc.drbase" \
  | awk '$2 > $3 { print $1 }' > "${smoke_json}.acc.beats"
if [[ -s "${smoke_json}.acc.beats" ]]; then
  join "${smoke_json}.acc.cur" "${smoke_json}.acc.drcur" \
    | join "${smoke_json}.acc.beats" - | awk '
    {
      printf "    %-14s rtg %.4f vs drain %.4f (recorded win)\n", $1, $2, $3
      if ($2 <= $3) { bad = 1 }
    }
    END {
      if (bad) {
        printf "    %s\n", "REGRESSION: sequence-rtg no longer beats Drain on a recorded-win family" > "/dev/stderr"
        exit 1
      }
    }'
fi
rm -f "${smoke_json}".acc.*
# Per-family scoring time rides into results/ci_timings.json as its own
# pseudo-stage, so a family whose scoring blows up is visible by name.
while read -r fam ms; do
  ci_stage_names+=("accuracy: ${fam}")
  ci_stage_ms+=("${ms}")
done < <(sed -n 's/.*"family":"\([^"]*\)".*"elapsed_ms":\([0-9.]*\).*/\1 \2/p' \
    results/BENCH_accuracy.json \
  | awk '{ if (!($1 in sum)) order[++n] = $1; sum[$1] += $2 }
         END { for (i = 1; i <= n; i++) printf "%s %d\n", order[i], sum[order[i]] }')
echo "    accuracy gate OK"
stage_end
fi

if stage_begin "seqd smoke (start -> ingest -> /healthz -> shutdown)"; then
./target/release/seqd --addr 127.0.0.1:0 --shards 2 --batch-size 1000 \
  --store "${seqd_store}/store" 2> "${seqd_log}" &
seqd_pid=$!
port=$(wait_seqd_port "${seqd_log}")
seqd_http "${port}" GET /healthz
# To a file, not a pipe: grep -q would close the pipe on first match and the
# load generator's later status lines would die on EPIPE before the shutdown
# request goes out.
./target/release/seqd-loadgen --addr "127.0.0.1:${port}" --records 2000 --shutdown \
  > "${seqd_log}.loadgen"
grep -q '"received":2000,"accepted":2000' "${seqd_log}.loadgen"
wait "${seqd_pid}"
seqd_pid=""
echo "    seqd smoke OK"
stage_end
fi

if stage_begin "metrics contract (scrape /metrics -> promlint -> golden name set)"; then
# A live daemon's exposition must lint clean (every series carries # HELP
# and # TYPE, histograms cumulative and +Inf-terminated) and export exactly
# the metric names recorded in tests/golden/metrics_names.txt — renaming or
# dropping a series is an observability API break and must be deliberate.
./target/release/seqd --addr 127.0.0.1:0 --shards 2 --batch-size 1000 \
  --store "${seqd_store}/contract" 2> "${seqd_log}.contract" &
seqd_pid=$!
port=$(wait_seqd_port "${seqd_log}.contract")
./target/release/seqd-loadgen --addr "127.0.0.1:${port}" --records 500 > /dev/null
seqd_http_body "${port}" /metrics > "${seqd_log}.metrics"
./target/release/promlint "${seqd_log}.metrics" \
  || { echo "promlint failed on a live /metrics scrape" >&2; exit 1; }
./target/release/promlint --names "${seqd_log}.metrics" \
  | diff - tests/golden/metrics_names.txt \
  || { echo "/metrics name set diverged from tests/golden/metrics_names.txt" >&2; exit 1; }
seqd_http "${port}" POST /shutdown
wait "${seqd_pid}"
seqd_pid=""
echo "    metrics contract OK"
stage_end
fi

if stage_begin "evolve-vs-batch equivalence smoke (online evolution matches known traffic)"; then
# Each mode learns the same fixed-seed corpus (wave 1), waits for its mining
# to land and publish, then replays the corpus (wave 2) and drains. Online
# evolution need not produce byte-identical patterns to the batch analyser,
# but it must group the same traffic: its wave-2 matched count is held to
# >= 95% of the batch path's.
evolve_matched() {
  local mode=$1 dir=$2 log=$3 port stats runs backlog
  ./target/release/seqd --addr 127.0.0.1:0 --shards 2 --batch-size 500 \
    --evolve "${mode}" --store "${dir}" 2> "${log}" &
  seqd_pid=$!
  port=$(wait_seqd_port "${log}")
  ./target/release/seqd-loadgen --addr "127.0.0.1:${port}" --records 2000 --seed 9 \
    > /dev/null
  for _ in $(seq 1 300); do
    stats=$(seqd_http_body "${port}" /stats)
    runs=$(sed -n 's/.*"remine_runs":\([0-9]*\).*/\1/p' <<<"${stats}")
    backlog=$(sed -n 's/.*"mine_backlog":\([0-9]*\).*/\1/p' <<<"${stats}")
    [[ "${runs:-0}" -ge 1 && "${backlog:-1}" -eq 0 ]] && break
    sleep 0.1
  done
  [[ "${runs:-0}" -ge 1 ]] || { echo "${mode}: wave 1 never mined" >&2; return 1; }
  # Online mode must actually be evolving, not quietly falling back to
  # batch re-mining (and vice versa).
  local evolved
  evolved=$(sed -n 's/.*"evolve_runs":\([0-9]*\).*/\1/p' <<<"${stats}")
  if [[ "${mode}" == online ]]; then
    [[ "${evolved:-0}" -ge 1 ]] || { echo "online mode never ran the evolver" >&2; return 1; }
  else
    [[ "${evolved:-0}" -eq 0 ]] || { echo "batch mode ran the evolver" >&2; return 1; }
  fi
  ./target/release/seqd-loadgen --addr "127.0.0.1:${port}" --records 2000 --seed 9 \
    --shutdown > /dev/null
  wait "${seqd_pid}"
  seqd_pid=""
  sed -n 's/.*drained — ingested 4000 matched \([0-9]*\) .*/\1/p' "${log}"
}
batch_matched=$(evolve_matched batch "${seqd_store}/ev-batch" "${seqd_log}.ev-batch")
online_matched=$(evolve_matched online "${seqd_store}/ev-online" "${seqd_log}.ev-online")
[[ -n "${batch_matched}" && -n "${online_matched}" ]] \
  || { echo "drained matched counts missing (batch='${batch_matched}' online='${online_matched}')" >&2; exit 1; }
echo "    wave-2 matched: batch ${batch_matched}, online ${online_matched}"
[[ "${batch_matched}" -ge 1000 ]] \
  || { echo "batch reference matched too little of its own corpus" >&2; exit 1; }
[[ $(( online_matched * 100 )) -ge $(( batch_matched * 95 )) ]] \
  || { echo "online evolution matched <95% of the batch reference" >&2; exit 1; }
echo "    evolve equivalence smoke OK"
stage_end
fi

if stage_begin "seqd crash-recovery smoke (kill -9 mid-batch -> restart -> WAL replay)"; then
# Reference: the same fixed-seed corpus through a daemon that drains cleanly.
# --batch-size far above the corpus keeps all 500 records in residue, so the
# crashed run below dies with everything receipted but nothing flushed.
./target/release/seqd --addr 127.0.0.1:0 --shards 2 --batch-size 100000 \
  --store "${seqd_store}/clean" 2> "${seqd_log}.clean" &
seqd_pid=$!
port=$(wait_seqd_port "${seqd_log}.clean")
./target/release/seqd-loadgen --addr "127.0.0.1:${port}" --records 500 --seed 7 \
  --shutdown > /dev/null
wait "${seqd_pid}"
seqd_pid=""

# Crash run: ingest the corpus (the receipt means it is fsynced in the WAL),
# then SIGKILL — no drain, no flush, no checkpoint.
./target/release/seqd --addr 127.0.0.1:0 --shards 2 --batch-size 100000 \
  --store "${seqd_store}/crash" 2> "${seqd_log}.crash" &
seqd_pid=$!
port=$(wait_seqd_port "${seqd_log}.crash")
./target/release/seqd-loadgen --addr "127.0.0.1:${port}" --records 500 --seed 7 \
  > "${seqd_log}.crash.loadgen"
grep -q '"received":500,"accepted":500' "${seqd_log}.crash.loadgen"
kill -9 "${seqd_pid}"
wait "${seqd_pid}" 2>/dev/null || true
seqd_pid=""
wal_bytes=$(cat "${seqd_store}/crash/ingest-wal/"*.wal | wc -c)
[[ "${wal_bytes}" -gt 0 ]] || { echo "ingest WAL empty after kill -9" >&2; exit 1; }

# Restart on the same store: the WAL must replay all 500 before the drain.
./target/release/seqd --addr 127.0.0.1:0 --shards 2 --batch-size 100000 \
  --store "${seqd_store}/crash" 2> "${seqd_log}.recover" &
seqd_pid=$!
port=$(wait_seqd_port "${seqd_log}.recover")
seqd_http "${port}" POST /shutdown
wait "${seqd_pid}"
seqd_pid=""
# The drained counters must show the full replay and the intact invariant.
grep -q 'drained — ingested 500 .* rejected 0 malformed 0 dropped 0 replayed 500' \
  "${seqd_log}.recover" \
  || { echo "recovery counters wrong:" >&2; cat "${seqd_log}.recover" >&2; exit 1; }
# A fully-released WAL holds nothing for the next start.
wal_bytes=$(cat "${seqd_store}/crash/ingest-wal/"*.wal | wc -c)
[[ "${wal_bytes}" -eq 0 ]] || { echo "WAL not released after drain" >&2; exit 1; }
# The recovered store equals the crash-free run (grok export is
# deterministic per pattern: SHA1(pattern ‖ service) ids, no timestamps).
./target/release/sequence-rtg --db "${seqd_store}/clean" --export grok --quiet \
  < /dev/null | grep add_tag | sort > "${seqd_log}.clean.patterns"
./target/release/sequence-rtg --db "${seqd_store}/crash" --export grok --quiet \
  < /dev/null | grep add_tag | sort > "${seqd_log}.crash.patterns"
[[ -s "${seqd_log}.clean.patterns" ]] || { echo "clean run mined nothing" >&2; exit 1; }
diff -u "${seqd_log}.clean.patterns" "${seqd_log}.crash.patterns" \
  || { echo "recovered store diverged from the crash-free run" >&2; exit 1; }
echo "    crash-recovery smoke OK"
stage_end
fi

if stage_begin "dependency audit: workspace crates only"; then
# Every package cargo can see must live in this repository. A single
# registry/git dependency breaks the offline guarantee, so fail on any
# `cargo tree` line that is not a workspace member (path = /root/repo/...).
packages=$(cargo tree --offline --workspace --prefix none --format '{p}' \
  | sed 's/ (\*)$//' | sed '/^$/d' | sort -u)
external=$(grep -v "($(pwd)" <<<"${packages}" || true)
if [[ -n "${external}" ]]; then
  echo "non-workspace dependencies detected:" >&2
  echo "${external}" >&2
  exit 1
fi
count=$(wc -l <<<"${packages}")
echo "    ${count} packages, all in-tree"
stage_end
fi

if [[ -n "${STAGE_FILTER}" ]]; then
  # A filtered run is a partial pipeline: leave the recorded full-run
  # timings alone and skip the timing gate.
  echo "==> CI stage timings skipped (--stage filter active)"
  echo "CI OK"
  exit 0
fi

echo "==> CI stage timings"
# Write the timings record, print the summary table, and gate each stage
# against the recorded baseline: >3x the baseline seconds plus a 15 s grace
# (absorbs scheduler noise on sub-second stages) fails the run. The baseline
# records *cold-cache* times for the compile-heavy stages (build/test/bench
# smoke), so a fresh clone passes; warm runs are far under the limit.
{
  echo '{"stages":['
  for i in "${!ci_stage_names[@]}"; do
    sep=$([[ "$i" -gt 0 ]] && echo ',' || true)
    printf '%s{"stage":"%s","seconds":%d.%03d}\n' \
      "${sep}" "${ci_stage_names[$i]}" \
      $(( ci_stage_ms[i] / 1000 )) $(( ci_stage_ms[i] % 1000 ))
  done
  echo ']}'
} > results/ci_timings.json
# `|` delimiter: stage names contain `/` (e.g. "/healthz").
stage_seconds() {
  sed -n 's|.*{"stage":"'"$1"'","seconds":\([0-9.]*\)}.*|\1|p' "$2"
}
timing_bad=0
for i in "${!ci_stage_names[@]}"; do
  name="${ci_stage_names[$i]}"
  cur=$(stage_seconds "${name}" results/ci_timings.json)
  base=$(stage_seconds "${name}" results/ci_timings.baseline.json 2>/dev/null || true)
  if [[ -z "${base}" ]]; then
    printf '    %-68s %8.1fs (no baseline)\n' "${name}" "${cur}"
    continue
  fi
  verdict=$(awk -v base="${base}" -v cur="${cur}" 'BEGIN {
    limit = 3 * base + 15
    printf "%.1fs -> %.1fs (limit %.1fs) %s", base, cur, limit, (cur > limit) ? "SLOW" : "ok"
  }')
  printf '    %-68s %s\n' "${name}" "${verdict}"
  if [[ "${verdict}" == *SLOW ]]; then timing_bad=1; fi
done
if [[ "${timing_bad}" -ne 0 ]]; then
  echo "    REGRESSION: a CI stage took >3x its baseline (+15s grace)" >&2
  exit 1
fi

echo "CI OK"
