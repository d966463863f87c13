#!/usr/bin/env python3
"""Schema guard for bench JSON artifacts.

Every bench that emits a BENCH_*.json file must record the --threads value
it ran with in the file's header (top-level "threads" key, integer), so a
measurement can never be archived without its execution-runtime context.
Likewise every artifact must carry a top-level "build" object (compiler,
compiler_version, build_type, flags - all strings; see
bench::WriteBuildMetadata), so a measurement can never be archived without
its toolchain context either.
On top of those universal rules, benches registered in SCHEMAS must carry
their bench-specific result fields (e.g. BENCH_snapshot.json must list
detector/bytes/save_ms/restore_ms per result row).

Unknown bench names are a HARD ERROR: every bench that ships a
BENCH_*.json artifact must register its result schema in SCHEMAS below, so
a new bench can never silently ship unguarded measurement rows.

CI runs this over every emitted artifact; any violation fails the job.

Usage: check_bench_json.py BENCH_a.json [BENCH_b.json ...]
"""
import json
import sys

# Type predicates for schema rows: (predicate, human-readable name).
_NUMBER = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
           "number")
_INT = (lambda v: isinstance(v, int) and not isinstance(v, bool), "integer")
_STR = (lambda v: isinstance(v, str), "string")

# Per-bench result-row requirements: bench name -> [(field, predicate, name)].
SCHEMAS = {
    "snapshot_cost": [
        ("detector", *_STR),
        ("bytes", *_INT),
        ("save_ms", *_NUMBER),
        ("restore_ms", *_NUMBER),
    ],
    "streaming_throughput": [
        ("threads", *_INT),
        ("seconds", *_NUMBER),
        ("frames_per_sec", *_NUMBER),
        ("ratio_to_run_fleet", *_NUMBER),
    ],
    "chaos_sweep": [
        ("threads", *_INT),
        ("seconds", *_NUMBER),
        ("frames_per_sec", *_NUMBER),
        ("faults_injected", *_INT),
        ("reconnects", *_INT),
    ],
    "ensemble_sweep": [
        ("setting", *_STR),
        ("config", *_STR),
        ("threads", *_INT),
        ("false_alarms", *_INT),
        ("detected", *_INT),
        ("total_failures", *_INT),
        ("mean_lead_days", *_NUMBER),
        ("latency_p50_ms", *_NUMBER),
        ("latency_p99_ms", *_NUMBER),
        ("ensemble_bytes_per_vehicle", *_NUMBER),
        ("retrains_started", *_INT),
        ("suppressed_alarms", *_INT),
        ("fingerprint", *_STR),
    ],
    "scaling_sweep": [
        ("threads", *_INT),
        ("generate_seconds", *_NUMBER),
        ("run_fleet_seconds", *_NUMBER),
        ("run_grid_seconds", *_NUMBER),
    ],
}

# Universal header requirement: the build-metadata block every artifact
# must carry (all string-valued).
BUILD_FIELDS = ("compiler", "compiler_version", "build_type", "flags")


def check_results(path: str, bench: str, data: dict) -> list[str]:
    """Bench-specific checks for registered benches."""
    schema = SCHEMAS.get(bench)
    if schema is None:
        return []
    results = data.get("results")
    if not isinstance(results, list) or not results:
        return [f"{path}: bench '{bench}' must carry a non-empty 'results' list"]
    errors = []
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            errors.append(f"{path}: results[{i}] must be an object")
            continue
        for field, predicate, type_name in schema:
            if not predicate(row.get(field)):
                errors.append(
                    f"{path}: results[{i}] missing {type_name} '{field}'")
    return errors


def check(path: str) -> list[str]:
    """Returns the error messages for `path` (empty when it conforms).

    A readable artifact whose bench name has no SCHEMAS entry is an ERROR,
    not a warning: an unregistered bench ships unguarded measurement rows,
    which is exactly what this guard exists to prevent. Register the
    bench's result schema in SCHEMAS before emitting its artifact.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        return [f"{path}: unreadable or invalid JSON: {err}"]
    if not isinstance(data, dict):
        return [f"{path}: top level must be a JSON object"]
    bench = data.get("bench")
    if not isinstance(bench, str) or not bench:
        return [f"{path}: missing top-level 'bench' name"]
    errors = []
    if bench not in SCHEMAS:
        errors.append(
            f"{path}: bench '{bench}' has no registered result schema - "
            f"add one to SCHEMAS in scripts/check_bench_json.py")
    threads = data.get("threads")
    # bool is an int subclass in Python; reject it explicitly.
    if isinstance(threads, bool) or not isinstance(threads, int):
        errors.append(f"{path}: missing integer top-level 'threads' "
                      f"(the --threads value the bench ran with)")
    build = data.get("build")
    if not isinstance(build, dict):
        errors.append(f"{path}: missing top-level 'build' object "
                      f"(toolchain metadata; see bench::WriteBuildMetadata)")
    else:
        for field in BUILD_FIELDS:
            if not isinstance(build.get(field), str):
                errors.append(f"{path}: 'build' missing string '{field}'")
    errors.extend(check_results(path, bench, data))
    return errors


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: check_bench_json.py BENCH_*.json", file=sys.stderr)
        return 2
    errors = [msg for path in argv[1:] for msg in check(path)]
    for msg in errors:
        print(f"check_bench_json: {msg}", file=sys.stderr)
    if not errors:
        print(f"check_bench_json: {len(argv) - 1} artifact(s) conform")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
