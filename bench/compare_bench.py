#!/usr/bin/env python3
"""Compare a fresh perf_report JSON against the committed baseline.

Usage: compare_bench.py FRESH.json BASELINE.json [--floor EVENTS_PER_SEC]

Reads the per-case throughput numbers out of both reports and flags
regressions with per-case tolerances. CI runners are shared and noisy
and the committed baseline was produced on different hardware, so a
relative shortfall only *warns*; the hard failure criterion stays the
absolute events/s floor the perf-smoke job already applies (an
order-of-magnitude guard, not a noise tripwire). Wall-clock-dominated
composites (end-to-end sim rates) are warn-only at any ratio.

Exit codes: 0 ok (warnings allowed), 1 hard floor violated, 2 usage or
malformed report.
"""

import json
import sys

# Fresh-vs-baseline ratio below which a case warns. The event-core
# loops are stable enough for a tight-ish bound; composites are
# dominated by machine speed.
TOLERANCES = {
    "schedule_run": 0.5,
    "schedule_cancel_churn": 0.5,
    "fleet_interleave": 0.5,
}

# The absolute floor applies to these cases (mirrors perf_report's own
# --floor check): the raw event core.
FLOOR_CASES = ("schedule_run",)


def main(argv):
    args = []
    floor = 2_000_000.0
    it = iter(argv[1:])
    for a in it:
        if a == "--floor":
            floor = float(next(it, "0"))
        else:
            args.append(a)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    try:
        with open(args[0]) as f:
            fresh = json.load(f)
        with open(args[1]) as f:
            base = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"compare_bench: {e}", file=sys.stderr)
        return 2

    fresh_cases = fresh.get("cases", {})
    base_cases = base.get("cases", {})
    warnings = 0
    failures = 0

    for name, tol in TOLERANCES.items():
        f_eps = fresh_cases.get(name, {}).get("events_per_sec")
        b_eps = base_cases.get(name, {}).get("events_per_sec")
        if f_eps is None:
            print(f"compare_bench: case '{name}' missing from fresh report",
                  file=sys.stderr)
            return 2
        if b_eps is None:
            # Baseline predates the case (stacked PRs): nothing to
            # compare yet, the committed report catches up next refresh.
            print(f"  {name}: no baseline, fresh {f_eps:.3g} events/s")
            continue
        ratio = f_eps / b_eps if b_eps > 0 else float("inf")
        status = "ok"
        if ratio < tol:
            status = f"WARN (below {tol:.0%} of baseline)"
            warnings += 1
        print(f"  {name}: {f_eps:.3g} vs baseline {b_eps:.3g} "
              f"({ratio:.2f}x) {status}")
        if name in FLOOR_CASES and f_eps < floor:
            print(f"compare_bench: {name} {f_eps:.3g} events/s is below "
                  f"the hard floor of {floor:.3g}", file=sys.stderr)
            failures += 1

    # Composites: report the drift, never gate on it.
    for key in ("end_to_end_dfq", "end_to_end_serve"):
        f_rate = fresh.get(key, {}).get("sim_ms_per_wall_s")
        b_rate = base.get(key, {}).get("sim_ms_per_wall_s")
        if f_rate and b_rate:
            print(f"  {key}: {f_rate:.3g} vs baseline {b_rate:.3g} "
                  f"sim-ms/wall-s ({f_rate / b_rate:.2f}x, informational)")

    if warnings:
        print(f"compare_bench: {warnings} warning(s) - noisy-runner "
              "variance or a real regression; check locally")
    if failures:
        return 1
    print("compare_bench: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
