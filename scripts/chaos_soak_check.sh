#!/usr/bin/env bash
# Chaos soak check (a step of the CI `build-test` job).
#
# Soaks the ingest front end under scripted transport hostility and holds
# it to the chaos invariant:
#   1. sweep: run bench/chaos_sweep over several fault-corpus seeds; every
#      run must exit 0 (every frame admitted exactly once, served results
#      bit-identical to the in-process reference at thread counts 1 and 4);
#   2. schema: every emitted BENCH_chaos.json must pass
#      scripts/check_bench_json.py;
#   3. reproducibility: rerunning the first seed must reproduce the
#      deterministic portion of the artifact exactly - same fingerprint,
#      same per-schedule fault and reconnect counts (wall-time fields are
#      the only thing allowed to move between runs).
#
# Usage: chaos_soak_check.sh [path-to-chaos_sweep-binary]
# Knobs: CHAOS_SEEDS (default "1 2 3"), CHAOS_DAYS (6), CHAOS_SCHEDULES (8).
set -euo pipefail
cd "$(dirname "$0")/.."

binary="${1:-build/bench/chaos_sweep}"
[[ -x "${binary}" ]] || {
  echo "chaos_soak_check: ${binary} not built" >&2
  exit 1
}

days="${CHAOS_DAYS:-6}"
schedules="${CHAOS_SCHEDULES:-8}"
read -r -a seeds <<< "${CHAOS_SEEDS:-1 2 3}"

workdir="$(mktemp -d)"
cleanup() { rm -rf "${workdir}"; }
trap cleanup EXIT

# Projects the deterministic portion of a BENCH_chaos.json (fingerprint,
# invariant booleans, per-schedule fault/reconnect counts) so two runs of
# the same seed can be diffed without tripping over wall-time fields.
stable_view() {
  python3 - "$1" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
rows = [{k: r[k] for k in ("threads", "schedule", "script",
                           "faults_injected", "reconnects")}
        for r in data["results"]]
print(json.dumps({"fingerprint": data["fingerprint"],
                  "chaos_equals_in_process": data["chaos_equals_in_process"],
                  "exactly_once": data["exactly_once"],
                  "rows": rows}, indent=1))
EOF
}

for seed in "${seeds[@]}"; do
  echo "== chaos sweep: seed ${seed}, ${schedules} schedules, ${days} days =="
  "${binary}" --days "${days}" --schedules "${schedules}" --seed "${seed}"
  python3 scripts/check_bench_json.py BENCH_chaos.json
  cp BENCH_chaos.json "${workdir}/seed_${seed}.json"
done

echo "== reproducibility: rerun seed ${seeds[0]} and diff the stable view =="
"${binary}" --days "${days}" --schedules "${schedules}" --seed "${seeds[0]}" \
  > /dev/null
stable_view "${workdir}/seed_${seeds[0]}.json" > "${workdir}/first.stable"
stable_view BENCH_chaos.json > "${workdir}/second.stable"
if ! diff -u "${workdir}/first.stable" "${workdir}/second.stable"; then
  echo "chaos_soak_check: rerun of seed ${seeds[0]} diverged" >&2
  exit 1
fi
echo "chaos_soak_check: ${#seeds[@]} seed(s) held the chaos invariant and reproduced exactly"
