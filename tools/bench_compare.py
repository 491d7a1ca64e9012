#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh bench --json run against the
committed BENCH_*.json baseline and fail on large regressions.

Usage:
    tools/bench_compare.py --baseline BENCH_rehash.json \
        --current current_e16.json [--factor 2.0]

Rows are matched on per-bench identity keys (n, mode, placement, ...);
current rows with no baseline counterpart are skipped (e.g. a --quick run
covers a subset of sizes, or a baseline predates a new row shape). For each
matched row the registered metrics are compared with a multiplicative
tolerance: a higher-is-better metric regresses when
current < baseline / factor, a lower-is-better metric when
current > baseline * factor. The default factor of 2.0 is deliberately
generous — CI runners differ from the recording machine and bench modes are
quick — so only cliff-sized regressions (the exact thing this PR's latency
work guards) trip the gate.

Exit status: 0 = no regression, 1 = at least one regression (or unusable
inputs). Every comparison is printed so a failing run is diagnosable from
the job log alone.
"""

import argparse
import json
import subprocess
import sys

# Per-bench comparison registry: identity keys select the row, metrics map
# field -> (direction, floor) or (direction, floor, ceiling). Direction
# "higher" = bigger is better, "lower" = smaller is better. The floor is an
# absolute noise gate for extreme statistics: a lower-is-better metric only
# counts as regressed while the current value also EXCEEDS the floor (a
# 0.05 ms -> 0.15 ms max is scheduler jitter, not a cliff); a
# higher-is-better metric only counts while the current value is BELOW the
# floor. floor=None disables the gate. The optional third element is an
# ABSOLUTE bound that fails REGARDLESS of the baseline — for metrics where
# the acceptance criterion is the value itself, not drift relative to a
# recording. Its meaning follows the direction: for "lower" it is a
# ceiling (telemetry overhead <= 1.05x, rehash cliff <= 1 ms); for
# "higher" it is a hard floor. Rows missing every identity key
# (summary/smoke rows) are skipped.
# CI runners are not the recording machine, so each gated metric is one of
# two kinds: an IN-BINARY ratio of two postures run in the same process on
# the same host (telemetry on vs off, durable vs plain, incremental vs full
# audit — machine-speed-independent), or an absolute latency where the
# absolute value IS the criterion (rebuild boundary max, rehash cliff),
# always behind a noise floor. Absolute throughput is deliberately not
# gated: ops/sec scales with the host and would fail every PR on a slower
# runner.
REGISTRY = {
    "e13_service": {
        # Same-machine comparisons only (local re-records); not part of
        # the CI gate — shard-scaling ratios are core-count-dependent.
        "keys": ["n", "placement", "audit", "mode", "shards", "batch"],
        "metrics": {"speedup_vs_sequential": ("higher", None)},
    },
    "e14_rebuild": {
        # boundary_max_ms (worst rebuild-related request) is the ONLY
        # gated metric: both the whole-run max and its speedup ratio can
        # catch an unrelated scheduler stall on a shared runner (see the
        # E14 protocol notes), while the boundary max is what the
        # partitioned path actually controls. Gated only on the
        # partitioned rows — the stop-the-world ("legacy") rows' absolute
        # latency is machine-proportional and not a criterion.
        "keys": ["n", "mode"],
        "metrics": {"boundary_max_ms": ("lower", 1.0)},
        "absolute_modes": {"partitioned"},
    },
    "e15_audit": {
        "keys": ["n", "mode", "cadence"],
        "metrics": {"speedup_mean_vs_full": ("higher", None)},
    },
    "e17_durability": {
        # WAL overhead is an in-binary ratio (the same churn served with
        # and without the durable wrapper in one process), so it is
        # machine-speed-independent and gated. Absolute recovery_ms scales
        # with the host and is recorded but not gated.
        "keys": ["case", "n", "mode", "suffix"],
        "metrics": {"overhead_ratio": ("lower", None)},
    },
    "e16_rehash": {
        # Only the absolute incremental-row max is gated: the cliff being
        # guarded is "incremental growth stays sub-millisecond", and a
        # speedup ratio would divide by that same microsecond-scale
        # extreme statistic, making it noise-proportional (a 0.2 ms
        # scheduler stall halves the ratio while meaning nothing). A real
        # regression — stop-the-world growth returning — lands multiple
        # milliseconds over both the floor and the 2x band. The 1.0 ms
        # absolute ceiling pins the cliff criterion itself (incremental
        # growth stays sub-millisecond) independent of baseline drift.
        "keys": ["n", "mode"],
        "metrics": {"max_ms": ("lower", 1.0, 1.0)},
        "absolute_modes": {"incremental"},
    },
    "e18_telemetry": {
        # telemetry_overhead_ratio is in-binary (gates flipped around
        # alternating segments in one process) and machine-speed-
        # independent. The 1.05 ceiling IS the acceptance criterion —
        # always-on telemetry keeps >= 0.95x the gated-off throughput —
        # so it binds absolutely, not relative to the baseline. Only the
        # "on" / "scrape" rows carry the field; the trace tier's
        # cost is recorded (trace_overhead_ratio) but not gated.
        "keys": ["case", "n", "mode"],
        "metrics": {"telemetry_overhead_ratio": ("lower", None, 1.05)},
    },
}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        print(f"bench_compare: cannot read {path}: {error}", file=sys.stderr)
        return None


def baseline_provenance(path, baseline):
    """Commit SHA that last touched the baseline file plus the build flavor
    recorded in its meta block, so a failing CI gate names exactly what it
    compared against from the job log alone. Best-effort: outside a git
    checkout (or for a pre-meta baseline) the fields degrade to 'unknown'."""
    try:
        sha = subprocess.run(
            ["git", "log", "-1", "--format=%h", "--", path],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    meta = baseline.get("meta")
    if isinstance(meta, dict) and meta:
        flavor = " ".join(f"{key}={value}" for key, value in meta.items())
    else:
        flavor = "unknown (baseline predates meta)"
    return f"commit {sha}, flavor: {flavor}"


def effective_keys(keys, baseline_rows, current_rows):
    """Identity keys carried by at least one row on BOTH sides. A key that
    exists only in one file (e.g. a field added by a later PR) would make
    every identity tuple mismatch, so it is dropped for the whole
    comparison instead."""
    def carried(rows):
        return {key for key in keys for row in rows if key in row}

    present_both = carried(baseline_rows) & carried(current_rows)
    return [key for key in keys if key in present_both]


def row_identity(row, keys):
    """Identity tuple over the keys the row actually carries; None when the
    row carries none of them (a smoke/summary row)."""
    present = [(key, row[key]) for key in keys if key in row]
    if not present:
        return None
    return tuple(present)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed BENCH_*.json")
    parser.add_argument("--current", required=True, help="fresh bench --json output")
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="multiplicative tolerance; >1 (default 2.0)",
    )
    args = parser.parse_args()

    if args.factor <= 1.0:
        print("bench_compare: --factor must be > 1", file=sys.stderr)
        return 1

    baseline = load(args.baseline)
    current = load(args.current)
    if baseline is None or current is None:
        return 1

    bench = current.get("bench")
    if bench != baseline.get("bench"):
        print(
            f"bench_compare: bench mismatch: baseline={baseline.get('bench')} "
            f"current={bench}",
            file=sys.stderr,
        )
        return 1
    spec = REGISTRY.get(bench)
    if spec is None:
        print(f"bench_compare: no comparison registered for bench '{bench}'",
              file=sys.stderr)
        return 1

    keys = effective_keys(spec["keys"], baseline.get("rows", []),
                          current.get("rows", []))
    by_identity = {}
    for row in baseline.get("rows", []):
        identity = row_identity(row, keys)
        if identity is not None:
            by_identity[identity] = row

    regressions = 0
    compared = 0
    skipped = 0
    for row in current.get("rows", []):
        identity = row_identity(row, keys)
        base_row = by_identity.get(identity) if identity is not None else None
        if base_row is None:
            skipped += 1
            continue
        label = " ".join(f"{key}={value}" for key, value in identity)
        absolute_modes = spec.get("absolute_modes")
        for metric, bounds in spec["metrics"].items():
            direction, floor, absolute = (tuple(bounds) + (None, None))[:3]
            if metric not in base_row:
                # Not applicable to this row shape (e.g. a recovery row has
                # no overhead ratio) — the baseline never carried it either.
                continue
            if metric not in row:
                # The baseline gates this metric but the fresh run no longer
                # reports it: a silent skip here would let a bench refactor
                # (or a typo in a field name) disable the gate unnoticed.
                regressions += 1
                compared += 1
                print(f"[   MISSING] {bench} {label} {metric}: present in "
                      f"baseline but absent from current run")
                continue
            # Absolute (lower-is-better) metrics gate only the optimized
            # mode's rows; ratio metrics gate every row.
            if (direction == "lower" and absolute_modes is not None
                    and row.get("mode") not in absolute_modes):
                continue
            base_value = float(base_row[metric])
            cur_value = float(row[metric])
            compared += 1
            if base_value <= 0:
                verdict = "ok (zero baseline)"
            elif direction == "higher":
                bad = cur_value < base_value / args.factor
                if bad and floor is not None and cur_value >= floor:
                    bad = False  # still above the noise floor: not a cliff
                if absolute is not None and cur_value < absolute:
                    bad = True  # absolute criterion (hard floor), no band
                verdict = "REGRESSION" if bad else "ok"
            else:
                bad = cur_value > base_value * args.factor
                if bad and floor is not None and cur_value <= floor:
                    bad = False  # still below the noise floor: not a cliff
                if absolute is not None and cur_value > absolute:
                    bad = True  # absolute criterion (ceiling), no band
                verdict = "REGRESSION" if bad else "ok"
            if verdict == "REGRESSION":
                regressions += 1
            ratio = cur_value / base_value if base_value > 0 else float("inf")
            print(f"[{verdict:>10}] {bench} {label} {metric}: "
                  f"baseline={base_value:g} current={cur_value:g} "
                  f"(x{ratio:.2f}, {direction} is better)")

    print(f"bench_compare: {compared} metrics compared, {skipped} current rows "
          f"without a baseline match, {regressions} regression(s) at "
          f"factor {args.factor}")
    if compared == 0:
        print(f"bench_compare: nothing compared — treat as failure "
              f"(baseline {args.baseline}: "
              f"{baseline_provenance(args.baseline, baseline)})",
              file=sys.stderr)
        return 1
    if regressions:
        print(f"bench_compare: FAILED against baseline {args.baseline} "
              f"({baseline_provenance(args.baseline, baseline)})",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
