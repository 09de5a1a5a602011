"""normset-lab benchmark: seeded user-level queries, checked, timed.

    python3 perfbench/run.py --workload ring-factorization --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. The parent builds the seeded operation list
(see workloads.py), then runs rounds until --seconds have passed; each
round is a fresh worker process (worker.py) that runs the whole list once,
single-threaded, as a CLI user running one command per query would pay
the package import and the process-wide caches. Every output is checked
against perfbench/oracle.py. The last line of stdout is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics (from
wrappers installed in the worker) with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
# set-up takes ~0.2 s and jitters by tens of percent, so an untraced run
# adds set-up-only workers until it has this many samples
SETUP_SAMPLES = 9


def _round(plan: dict, trace: bool, index: int, probe: bool = False) -> dict:
    """Run the plan once in a fresh worker (or, as a probe, only set it up).
    The first traced round leaves its spans in
    perfbench/out/trace-<workload>.json.gz (the last run's trace per
    workload is kept).
    """
    name = plan["workload"]
    req = {"plan": plan, "trace": trace, "probe": probe,
           "net_dir": os.path.join(OUT_DIR, f"nets-{name}-{os.getpid()}"),
           "trace_path": os.path.join(OUT_DIR, f"trace-{name}.json.gz")
           if trace and index == 0 else None}
    env = dict(os.environ, PYTHONHASHSEED="0")
    req["spawned_at"] = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "worker.py")],
                          input=json.dumps(req), capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def _percentile(sorted_vals: list, pct: int) -> float:
    """Nearest-rank percentile."""
    return sorted_vals[max(0, -(-pct * len(sorted_vals) // 100) - 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "normset_lab", "__init__.py")):
        print("run from the normset-lab repository root: src/normset_lab is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import checks, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    plan = workloads.build(args.workload, args.seed)
    ops = plan["ops"]

    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        rounds.append(_round(plan, bool(args.trace), len(rounds)))
    setups = [r["setup_s"] for r in rounds]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(_round(plan, False, len(setups), probe=True)["setup_s"])

    checker = checks.Checker()
    failed = 0
    unexpected = []
    for r in rounds:
        for op, out in zip(ops, r["outputs"]):
            problem = checker.check(op, out)
            if problem is not None:
                failed += 1
                if not op.get("kept_failing"):
                    unexpected.append(f"op {op['id']} {op}: {problem}")
    for line in unexpected[:20]:
        print("CHECK FAILED:", line, file=sys.stderr)
    result = {"correct": not unexpected, "attempted": len(ops) * len(rounds),
              "failed": failed}
    if args.trace:
        result["metrics"] = _layer_metrics(rounds)
    else:
        result["metrics"] = _end_to_end(rounds, setups)
    print(json.dumps(result))
    return 0


def _end_to_end(rounds: list, setups: list) -> dict:
    lat = sorted(v for r in rounds for v in r["latencies_s"])
    return {
        "ops_per_s": {"value": statistics.median(len(r["latencies_s"]) / r["wall_s"]
                                                 for r in rounds), "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * _percentile(lat, 50), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * _percentile(lat, 90), "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                        "unit": "MB"},
    }


def _layer_metrics(rounds: list) -> dict:
    """Counts come from the first round (every round runs the same list in a
    fresh process, so they repeat exactly); times are medians over rounds.
    """
    first = rounds[0]["layers"]
    out = {}
    for name, (value, unit) in first.items():
        if unit in ("count", "ratio"):
            out[name] = {"value": value, "unit": unit}
        else:
            out[name] = {"value": statistics.median(r["layers"][name][0] for r in rounds),
                         "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())
