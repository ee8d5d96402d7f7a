#!/usr/bin/env python3
"""Build and run the NEON-Sim benchmark for one workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload serve64 --seed 1 --seconds 35 --trace 0

The first call configures and builds the simulator library and the
benchmark binary in Release mode under $CARGO_TARGET_DIR/perfbench when
that is set, else .bench_build/perfbench; later calls rebuild
incrementally. The binary repeats the workload until --seconds of wall time are spent and reports
medians over the repeats.

--trace 0 prints the end-to-end metrics BENCHMARK.json lists, measured
with span recording off. --trace 1 is the span run and prints the
per-layer metrics; its spans go to .bench_out/ as Chrome-trace JSON next
to a per-layer table.

Standard output is a human-readable table of every metric the run
produced, then, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. The full result, with the run
manifest (host, compiler, build type, commit, seed, config hashes), is
written to .bench_out/results/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")

BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 60


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_logged(cmd, timeout):
    """Run a build step; its output goes to stderr only on failure."""
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-20000:])
        fail(f"failed ({p.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "neon", "neon.hh")):
        fail("simulator sources (src/) not found; run from a source checkout")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per build tree.
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            run_logged(["cmake", "-S", BENCH_DIR, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       deadline - time.monotonic())
        run_logged(["cmake", "--build", bdir, "-j", jobs],
                   deadline - time.monotonic())
    exe = os.path.join(bdir, "neon_perfbench")
    if not os.access(exe, os.X_OK):
        fail(f"build produced no {exe}")
    return exe


def source_identity():
    """The git commit when there is one, and a digest of the sources."""
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return commit, h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    exe = build()
    commit, digest = source_identity()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--commit", commit,
           "--source-digest", digest]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=args.seconds * 1.5 + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = [ln for ln in p.stdout.splitlines() if ln.strip()]
    if p.returncode != 0 or not lines:
        fail(f"neon_perfbench exited with {p.returncode}")
    result = json.loads(lines[-1])

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    produced = result["metrics"]
    metrics, not_exercised = {}, []
    for m in wanted:
        got = produced.get(m["name"])
        if got is None:
            if args.trace == 0:
                fail(f"end-to-end metric {m['name']} was not produced", 3)
            # A per-layer metric of a layer this workload bypasses.
            not_exercised.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}", 3)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    result["not_exercised"] = not_exercised
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, "results", stem + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    man = result["manifest"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repeats {result['repeats']}  wall {result['wall_s']:.1f} s")
    print(f"host: nproc {man['nproc']}, {man['cpu_model']}; "
          f"{man['compiler']}, {man['build_type']}; commit {man['git_commit']}; "
          f"sources {man['source_digest']}")
    print(f"config hash {man['config_hash'][args.workload]}  "
          f"sim_digest {result['sim_digest']}")
    print(f"correct {result['correct']}  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    for why in result["failures"]:
        print(f"  check failed: {why}")
    print("model: unvalidated against hardware measurements "
          "(the repository holds no reference data)")
    for name in sorted(produced):
        m = produced[name]
        tag = "" if name in metrics else "   (reported, not gated)"
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}{tag}")
    for name in not_exercised:
        print(f"  {name:44s} {'n/a':>16s}   (layer not exercised)")

    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
