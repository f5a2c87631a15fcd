#!/usr/bin/env bash
# CI perf-regression gate over the hot-path micro-benches.
#
# Runs the topic-matching, windowed-stream, wire-codec and tskv benches
# in quick mode (DIMMER_BENCH_QUICK: ~5 ms calibration windows, median of
# five samples per bench), takes the per-bench minimum over
# GATE_PASSES=3 passes (the minimum is robust to scheduler noise on a
# loaded box, and a real regression raises the minimum too), and
# compares it against the committed baseline named in BASELINE below.
# A bench fails the gate when its minimum exceeds baseline * 1.25 +
# 100 ns — the flat 100 ns term keeps sub-microsecond benches from
# tripping on jitter — and a baseline bench that this run did not
# produce at all fails it as MISSING (drop its row in the same change
# that deletes the bench).
#
# The gate also runs the E13 smoke once (at --threads 4, which makes it
# measure the parallel-runner speedup against a single-threaded re-run
# of the same seed) and records its SLO attainment fields (one
# `{"slo":...}` line per objective) plus one `{"e13":"speedup"}` record
# alongside the bench medians; a run whose SLO comes back unmet fails
# the gate outright, and the measured speedup may not fall below 75% of
# the committed value.
# The E14 overload smoke rides along the same way: its per-load-point
# records are kept in the baseline, any `"conserved":false` fails the
# gate immediately, and goodput at the 2x-capacity point may not
# regress more than 25% against the committed value. The E15 storage
# smoke gates the tskv engine: the quantized-corpus compression ratio
# must stay >= 8x, sealed borrowed scans must stay within 2x of the
# flat store, and the crash sweep must lose zero acknowledged points.
#
# Usage:
#   scripts/bench_gate.sh            compare against the baseline
#   scripts/bench_gate.sh --update   re-measure and rewrite the baseline
set -euo pipefail

cd "$(dirname "$0")/.."

BASELINE="results/BENCH_pr10.json"
BENCHES=(topic_matching streams wire_codecs tskv)

raw="$(mktemp)"
out="$(mktemp)"
slo="$(mktemp)"
e14="$(mktemp)"
e15="$(mktemp)"
trap 'rm -f "$raw" "$out" "$slo" "$e14" "$e15"' EXIT

passes="${GATE_PASSES:-3}"
echo "== bench_gate: measuring (${BENCHES[*]}), min of $passes passes"
for _ in $(seq 1 "$passes"); do
    for b in "${BENCHES[@]}"; do
        DIMMER_BENCH_QUICK=1 DIMMER_BENCH_JSON="$raw" \
            cargo bench -q -p dimmer-bench --bench "$b" >/dev/null
    done
done

echo "== bench_gate: E13 smoke for SLO attainment + parallel speedup"
DIMMER_E13_SMOKE=1 DIMMER_E13_JSON="$slo" \
    cargo run -q --release -p dimmer-bench --bin e13_city_scale -- --threads 4 >/dev/null
if [[ ! -s "$slo" ]]; then
    echo "bench_gate: E13 emitted no SLO records" >&2
    exit 1
fi
if grep -q '"met":false' "$slo"; then
    echo "bench_gate: SLO missed in the E13 smoke run:" >&2
    grep '"met":false' "$slo" >&2
    exit 1
fi

echo "== bench_gate: E14 overload smoke for goodput + conservation"
DIMMER_E14_SMOKE=1 DIMMER_E14_JSON="$e14" \
    cargo run -q --release -p dimmer-bench --bin e14_overload >/dev/null
if [[ ! -s "$e14" ]]; then
    echo "bench_gate: E14 emitted no records" >&2
    exit 1
fi
if grep -q '"conserved":false' "$e14"; then
    echo "bench_gate: E14 lost request conservation:" >&2
    grep '"conserved":false' "$e14" >&2
    exit 1
fi

echo "== bench_gate: E15 storage smoke for compression + scans + recovery"
DIMMER_E15_SMOKE=1 DIMMER_E15_JSON="$e15" \
    cargo run -q --release -p dimmer-bench --bin e15_storage >/dev/null
if [[ ! -s "$e15" ]]; then
    echo "bench_gate: E15 emitted no records" >&2
    exit 1
fi
if ! awk -F'"ratio":' '/"e15":"compress".*"corpus":"quantized"/ \
        { exit ($2 + 0 >= 8.0) ? 0 : 1 }' "$e15"; then
    echo "bench_gate: E15 quantized compression ratio fell below 8x:" >&2
    grep '"corpus":"quantized"' "$e15" >&2
    exit 1
fi
if ! awk -F'"rel":' '/"e15":"scan"/ { exit ($2 + 0 <= 2.0) ? 0 : 1 }' "$e15"; then
    echo "bench_gate: E15 sealed scan slower than 2x the flat store:" >&2
    grep '"e15":"scan"' "$e15" >&2
    exit 1
fi
if ! grep -q '"e15":"crash_sweep".*"lost":0[,}]' "$e15"; then
    echo "bench_gate: E15 crash sweep lost acknowledged points:" >&2
    grep '"e15":"crash_sweep"' "$e15" >&2
    exit 1
fi

# Reduce the repeated passes to one per-bench minimum, preserving
# first-seen order so baseline diffs stay readable.
awk -F'"' '
    {
        split($0, a, /"median_ns":/); sub(/}.*/, "", a[2])
        v = a[2] + 0
        if (!($4 in best)) { order[++n] = $4; best[$4] = v }
        else if (v < best[$4]) best[$4] = v
    }
    END {
        for (i = 1; i <= n; i++)
            printf "{\"bench\":\"%s\",\"median_ns\":%s}\n", order[i], best[order[i]]
    }
' "$raw" > "$out"
cat "$slo" >> "$out"
cat "$e14" >> "$out"
cat "$e15" >> "$out"

if [[ "${1:-}" == "--update" ]]; then
    cp "$out" "$BASELINE"
    echo "bench_gate: baseline rewritten ($BASELINE)"
    exit 0
fi

if [[ ! -f "$BASELINE" ]]; then
    echo "bench_gate: no baseline at $BASELINE — run scripts/bench_gate.sh --update" >&2
    exit 1
fi

# Goodput gate: at the 2x-capacity load point the overload tier must
# still serve at least 75% of the committed goodput.
base_goodput="$(grep -E '"e14":"sweep".*"mult":2\.0' "$BASELINE" \
    | sed -E 's/.*"goodput_qps":([0-9.]+).*/\1/' | head -n1)"
now_goodput="$(grep -E '"e14":"sweep".*"mult":2\.0' "$e14" \
    | sed -E 's/.*"goodput_qps":([0-9.]+).*/\1/' | head -n1)"
if [[ -z "$now_goodput" ]]; then
    echo "bench_gate: E14 smoke produced no 2x load point" >&2
    exit 1
fi
if [[ -z "$base_goodput" ]]; then
    echo "new      e14_goodput_at_2x $now_goodput qps (no baseline — commit one with --update)"
elif awk -v b="$base_goodput" -v n="$now_goodput" \
        'BEGIN { exit (n < b * 0.75) ? 0 : 1 }'; then
    echo "bench_gate: E14 goodput at 2x regressed >25%: $base_goodput -> $now_goodput qps" >&2
    exit 1
else
    printf 'ok       %-40s %12s -> %12s qps (limit %s)\n' \
        e14_goodput_at_2x "$base_goodput" "$now_goodput" \
        "$(awk -v b="$base_goodput" 'BEGIN { printf "%.1f", b * 0.75 }')"
fi

# Parallel-speedup gate: the 4-thread E13 smoke may not lose more than
# 25% of the committed wall-clock speedup over --threads 1. (On a
# single-core runner the committed value is ~1x or below — barrier
# overhead with no parallelism — so the gate stays self-consistent;
# multi-core speedups are gated once a multi-core baseline is
# committed.)
base_speedup="$(grep '"e13":"speedup"' "$BASELINE" \
    | sed -E 's/.*"speedup":([0-9.]+).*/\1/' | head -n1)"
now_speedup="$(grep '"e13":"speedup"' "$slo" \
    | sed -E 's/.*"speedup":([0-9.]+).*/\1/' | head -n1)"
if [[ -z "$now_speedup" ]]; then
    echo "bench_gate: E13 smoke produced no speedup record" >&2
    exit 1
fi
if [[ -z "$base_speedup" ]]; then
    echo "new      e13_parallel_speedup $now_speedup x (no baseline — commit one with --update)"
elif awk -v b="$base_speedup" -v n="$now_speedup" \
        'BEGIN { exit (n < b * 0.75) ? 0 : 1 }'; then
    echo "bench_gate: E13 parallel speedup regressed >25%: ${base_speedup}x -> ${now_speedup}x" >&2
    exit 1
else
    printf 'ok       %-40s %12s -> %12s x   (limit %s)\n' \
        e13_parallel_speedup "$base_speedup" "$now_speedup" \
        "$(awk -v b="$base_speedup" 'BEGIN { printf "%.2f", b * 0.75 }')"
fi

if awk -F'"' '
    # SLO and E14 records carry no median; both are gated above, not
    # compared here.
    !/"median_ns":/ { next }
    FNR == NR {
        split($0, a, /"median_ns":/); sub(/}.*/, "", a[2])
        base[$4] = a[2] + 0
        order[++n] = $4
        next
    }
    {
        split($0, a, /"median_ns":/); sub(/}.*/, "", a[2])
        now = a[2] + 0
        seen[$4] = 1
        if (!($4 in base)) {
            printf "new      %-40s %38.1f ns (no baseline — commit one with --update)\n", $4, now
            next
        }
        limit = base[$4] * 1.25 + 100
        verdict = (now > limit) ? "REGRESS" : "ok"
        printf "%-8s %-40s %12.1f -> %12.1f ns (limit %12.1f)\n", verdict, $4, base[$4], now, limit
        if (now > limit) bad++
    }
    END {
        for (i = 1; i <= n; i++) {
            if (order[i] in seen) continue
            printf "MISSING  %-40s %12.1f ns (in the baseline, not measured by this run)\n", order[i], base[order[i]]
            bad++
        }
        exit bad > 0 ? 1 : 0
    }
' "$BASELINE" "$out"; then
    echo "bench_gate: ok"
else
    echo "bench_gate: REGRESSION — a hot path slowed >25% or went unmeasured vs $BASELINE" >&2
    echo "bench_gate: if intentional, refresh with scripts/bench_gate.sh --update" >&2
    exit 1
fi
