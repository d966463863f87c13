#!/usr/bin/env bash
# Recovery matrix: restore-equals-uninterrupted across feature combinations,
# process boundary included (ctest test `RecoveryMatrix`).
#
# Every cell drives build/examples/streaming_service, which serves the fleet
# through one ShardGroup at any shard count, and is diffed against the
# uninterrupted reference of its ensemble setting: the drained run's frame
# and alarm counts, the alarm log, plus the RANK / TIMELINE / COMOVE
# answers over the history log when history is on.
# A reference is a 1-shard run, and the demo exits non-zero unless its
# alarms equal an unsharded serial FleetService replay, so each reference
# is the unsharded output. A reference with no alarms fails the matrix.
#
#   cell                 role        shards ensemble history  scenario of
#   inproc-s1            in-process  1      off      off      kill_restore_check.sh
#   inproc-s1-hist       in-process  1      off      on       history_recovery_check.sh
#   inproc-s1-ens        in-process  1      K3/M2    off      ensemble_recovery_check.sh
#   inproc-s1-ens-hist   in-process  1      K3/M2    on       (combination)
#   inproc-s4            in-process  4      off      off      (combination)
#   inproc-s4-hist       in-process  4      off      on       shard_recovery_check.sh
#   inproc-s4-ens        in-process  4      K3/M2    off      (combination)
#   inproc-s4-ens-hist   in-process  4      K3/M2    on       (combination)
#   wire-s1              wire        1      off      off      net_resume_check.sh
#   wire-s4-ens-hist     wire        4      K3/M2    on       obs_scrape_check.sh
#
# The ensemble is K=3 members, M=2 of them to agree, a retrain every 48
# samples, so a retrain is often in flight when a checkpoint is taken.
#
# In-process cell: checkpoint every 10,000 frames into a fleet checkpoint
# directory, SIGKILL once a committed fleet.manifest exists (with history
# on, only once a record block is on disk as well), then restore from the
# directory over the same history log and run to the end.
#
# Wire cell: serve on ephemeral ports with --stats-out; a client streams
# part of the fleet and is cut with --abort-after (no FIN), so the server
# stays mid-stream; scrape every shard (the merged scrape must carry
# server.frames_received); a second client resumes every shard session and
# drains the stream; scrape every shard again. The post-drain merged scrape
# must equal the server's in-process --stats-out rendering byte for byte.
#
# Every cell runs even when an earlier one fails; the summary names the
# failed cells and the exit code is non-zero if any failed.
#
# Usage: recovery_matrix.sh [path-to-streaming_service-binary]
set -euo pipefail
cd "$(dirname "$0")/.."

binary="${1:-build/examples/streaming_service}"
[[ -x "${binary}" ]] || {
  echo "recovery_matrix: ${binary} not built" >&2
  exit 1
}

#      cell                 role    shards ensemble history
cells=(
  "inproc-s1            inproc  1      off      off"
  "inproc-s1-hist       inproc  1      off      on"
  "inproc-s1-ens        inproc  1      on       off"
  "inproc-s1-ens-hist   inproc  1      on       on"
  "inproc-s4            inproc  4      off      off"
  "inproc-s4-hist       inproc  4      off      on"
  "inproc-s4-ens        inproc  4      on       off"
  "inproc-s4-ens-hist   inproc  4      on       on"
  "wire-s1              wire    1      off      off"
  "wire-s4-ens-hist     wire    4      on       on"
)

workdir="$(mktemp -d)"
# shellcheck disable=SC2046
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "${workdir}"' EXIT

ensemble_flags() { # ensemble_flags on|off
  [[ "$1" == on ]] && echo "--ensemble-k 3 --ensemble-m 2 --retrain-every 48"
  return 0
}

# Waits up to 30 s for `condition` to hold while `pid` runs; true if it held.
wait_while_running() { # wait_while_running <pid> <condition...>
  local pid="$1"
  shift
  for _ in $(seq 1 600); do
    "$@" && return 0
    kill -0 "${pid}" 2>/dev/null || break
    sleep 0.05
  done
  "$@"
}

# A freshly opened segment holds a 32-byte header; only a file clearly past
# it proves a record block reached the disk.
record_block_on_disk() { # record_block_on_disk <history-dir>
  [[ -d "$1" ]] &&
    [[ -n "$(find "$1" -type f -size +64c 2>/dev/null | head -1)" ]]
}

# A drained run's frame and alarm accounting, from the line both the
# in-process and the server role print ("processed F[/S] frames, A alarms").
accounting() { # accounting <run-output>
  sed -nE 's|^.*processed ([0-9]+)(/[0-9]+)? frames, ([0-9]+) alarms.*$|\1 frames processed, \3 alarms|p' "$1"
}

# Answers RANK, TIMELINE for `vehicle` and COMOVE around `alarm_seq` over a
# log directory, one file per query kind.
query_log() { # query_log <history-dir> <out-prefix> <vehicle> <alarm-seq>
  "${binary}" --query rank --history-dir "$1" > "$2.rank"
  "${binary}" --query timeline --vehicle "$3" --history-dir "$1" \
    > "$2.timeline"
  "${binary}" --query comove --alarm-seq "$4" --history-dir "$1" > "$2.comove"
}

# Uninterrupted reference of one ensemble setting: alarm log, history log
# and the query parameters every cell reuses (the vehicle of the first
# alarm and the global seq of the first alarmed record in its timeline).
make_reference() { # make_reference on|off
  local ref="${workdir}/ref-$1"
  mkdir -p "${ref}"
  # shellcheck disable=SC2046
  "${binary}" $(ensemble_flags "$1") --alarm-log "${ref}/alarms.log" \
    --history-dir "${ref}/history" > "${ref}/run.out" || {
    echo "recovery_matrix: reference (ensemble $1) run failed" >&2
    tail -5 "${ref}/run.out" >&2
    exit 1
  }
  accounting "${ref}/run.out" > "${ref}/accounting"
  [[ -s "${ref}/accounting" && -s "${ref}/alarms.log" ]] || {
    echo "recovery_matrix: reference (ensemble $1) produced no alarms" \
         "or no frame accounting line" >&2
    exit 1
  }
  local vehicle alarm_seq
  vehicle="$(awk 'NR == 1 {print $1}' "${ref}/alarms.log")"
  "${binary}" --query timeline --vehicle "${vehicle}" \
    --history-dir "${ref}/history" > "${ref}/probe.timeline"
  alarm_seq="$(awk '/ alarm 1 / {print $2; exit}' "${ref}/probe.timeline")"
  [[ -n "${alarm_seq}" ]] || {
    echo "recovery_matrix: reference (ensemble $1) logged no alarmed record" >&2
    exit 1
  }
  echo "${vehicle} ${alarm_seq}" > "${ref}/params"
  query_log "${ref}/history" "${ref}/answer" "${vehicle}" "${alarm_seq}"
  echo "reference ensemble=$1: $(wc -l < "${ref}/alarms.log") alarms," \
       "TIMELINE vehicle ${vehicle}, COMOVE seq ${alarm_seq}"
}

# Diffs a cell's frame accounting, its alarm log and, with history, its
# query answers against the reference of its ensemble setting. Every frame
# must be processed exactly once across the interruption.
check_against_reference() { # <cell-dir> <ensemble> <history> <run-output>
  local cell="$1" ref="${workdir}/ref-$2"
  if [[ "$(accounting "$4")" != "$(cat "${ref}/accounting")" ]]; then
    echo "drained run reports '$(accounting "$4")'," \
         "the reference '$(cat "${ref}/accounting")'"
    return 1
  fi
  if ! diff -q "${ref}/alarms.log" "${cell}/alarms.log" > /dev/null; then
    echo "alarm log differs from the uninterrupted reference"
    diff "${ref}/alarms.log" "${cell}/alarms.log" | head -20 || true
    return 1
  fi
  if [[ "$3" == off ]]; then
    echo "frame accounting and alarm log equal the reference"
    return 0
  fi
  local vehicle alarm_seq
  read -r vehicle alarm_seq < "${ref}/params"
  query_log "${cell}/history" "${cell}/answer" "${vehicle}" "${alarm_seq}"
  local kind
  for kind in rank timeline comove; do
    if ! diff -q "${ref}/answer.${kind}" "${cell}/answer.${kind}" \
        > /dev/null; then
      echo "${kind} answer differs from the uninterrupted reference"
      diff "${ref}/answer.${kind}" "${cell}/answer.${kind}" | head -20 || true
      return 1
    fi
  done
  echo "frame accounting, alarm log and RANK / TIMELINE / COMOVE answers" \
       "equal the reference"
}

cell_inproc() { # cell_inproc <cell-dir> <shards> <ensemble> <history>
  local cell="$1" shards="$2" ensemble="$3" history="$4"
  local -a features
  read -r -a features <<< "--shards ${shards} $(ensemble_flags "${ensemble}")"
  [[ "${history}" == on ]] && features+=(--history-dir "${cell}/history")
  local manifest="${cell}/fleet/fleet.manifest"

  "${binary}" "${features[@]}" --snapshot-every 10000 \
    --snapshot-path "${cell}/fleet" > "${cell}/crash.out" 2>&1 &
  local victim=$!
  committed() {
    [[ -s "${manifest}" ]] &&
      { [[ "${history}" == off ]] || record_block_on_disk "${cell}/history"; }
  }
  if ! wait_while_running "${victim}" committed; then
    wait "${victim}" || true
    echo "no committed fleet.manifest (and record block) before the run ended"
    return 1
  fi
  kill -KILL "${victim}" 2>/dev/null || true
  wait "${victim}" 2>/dev/null || true
  echo "killed pid ${victim} after a committed checkpoint:" \
       "$(ls "${cell}/fleet" | tr '\n' ' ')"

  "${binary}" "${features[@]}" --restore "${cell}/fleet" \
    --alarm-log "${cell}/alarms.log" > "${cell}/restore.out" 2>&1 || {
    echo "restore run failed"
    tail -5 "${cell}/restore.out"
    return 1
  }
  grep "resuming at frame" "${cell}/restore.out"
  check_against_reference "${cell}" "${ensemble}" "${history}" \
    "${cell}/restore.out"
}

cell_wire() { # cell_wire <cell-dir> <shards> <ensemble> <history>
  local cell="$1" shards="$2" ensemble="$3" history="$4"
  local -a features
  read -r -a features <<< "--shards ${shards} $(ensemble_flags "${ensemble}")"
  [[ "${history}" == on ]] && features+=(--history-dir "${cell}/history")

  # One mid-stream and one post-drain scrape of every shard.
  "${binary}" --listen 0 "${features[@]}" --port-file "${cell}/port" \
    --sessions 1 --alarm-log "${cell}/alarms.log" \
    --stats-out "${cell}/inproc_stats.txt" --await-scrapes $((2 * shards)) \
    > "${cell}/server.out" 2>&1 &
  local server=$!
  port_published() { [[ -s "${cell}/port" ]]; }
  if ! wait_while_running "${server}" port_published; then
    kill "${server}" 2>/dev/null || true
    echo "server never published its port"
    cat "${cell}/server.out"
    return 1
  fi
  local port
  port="$(cat "${cell}/port")"
  # Every failed step stops the server and names itself.
  stop_server() {
    kill "${server}" 2>/dev/null || true
    wait "${server}" 2>/dev/null || true
    echo "$1"
    tail -5 "${cell}/clients.out" "${cell}/server.out"
  }
  "${binary}" --connect "${port}" --abort-after 40000 \
    >> "${cell}/clients.out" 2>&1 || {
    stop_server "first client failed"
    return 1
  }
  "${binary}" --query stats --fleet --connect "${port}" \
    > "${cell}/midstream_stats.txt" 2>> "${cell}/clients.out" || {
    stop_server "mid-stream scrape failed"
    return 1
  }
  grep -q '^counter server\.frames_received ' \
    "${cell}/midstream_stats.txt" || {
    stop_server "mid-stream scrape is missing server.frames_received"
    return 1
  }
  "${binary}" --connect "${port}" --resume >> "${cell}/clients.out" 2>&1 || {
    stop_server "resume client failed"
    return 1
  }
  wait_while_running "${server}" \
    grep -q "final stats written" "${cell}/server.out" || {
    stop_server "server never published its final stats"
    return 1
  }
  "${binary}" --query stats --fleet --connect "${port}" \
    > "${cell}/fleet_stats.txt" 2>> "${cell}/clients.out" || {
    stop_server "post-drain scrape failed"
    return 1
  }
  wait "${server}" || {
    echo "server exited with an error"
    tail -5 "${cell}/server.out"
    return 1
  }
  if ! diff -q "${cell}/inproc_stats.txt" "${cell}/fleet_stats.txt" \
      > /dev/null; then
    echo "post-drain merged scrape differs from the in-process --stats-out"
    diff "${cell}/inproc_stats.txt" "${cell}/fleet_stats.txt" | head -20 || true
    return 1
  fi
  echo "post-drain scrape == in-process stats" \
       "($(wc -l < "${cell}/fleet_stats.txt") metric lines)"
  check_against_reference "${cell}" "${ensemble}" "${history}" \
    "${cell}/server.out"
}

start_s=${SECONDS}
make_reference off
make_reference on

failed=()
for row in "${cells[@]}"; do
  read -r name role shards ensemble history <<< "${row}"
  cell="${workdir}/${name}"
  mkdir -p "${cell}"
  status=0
  "cell_${role}" "${cell}" "${shards}" "${ensemble}" "${history}" \
    > "${cell}/cell.log" 2>&1 || status=$?
  if ((status == 0)); then
    echo "PASS ${name}"
  else
    echo "FAIL ${name}"
    sed 's/^/    /' "${cell}/cell.log"
    failed+=("${name}")
  fi
done

echo "recovery_matrix: ${#cells[@]} cells in $((SECONDS - start_s)) s," \
     "${#failed[@]} failed${failed[*]:+: ${failed[*]}}"
((${#failed[@]} == 0))
