"""One round: a fresh process runs an operation list once, closed loop.

Reads {"spawned_at", "trace", "trace_path", "net_dir", "probe", "plan"} as
JSON on stdin (trace_path may be null) and writes one JSON result on
stdout. A probe sets up and stops before the first operation.
Set-up runs from the parent's spawn (time.monotonic is system-wide on
Linux) to the first timed operation: interpreter start, the package
import, reading the plan and writing the net files. Outputs are turned
into plain data only after the timed pass, and checked by the parent.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _peak_rss_kb() -> int:
    """High-water resident set of this process image. getrusage's ru_maxrss
    would also count the parent's footprint at fork time, which grows from
    round to round; VmHWM starts afresh at exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    req = json.load(sys.stdin)
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, root)
    import normset_lab  # noqa: F401  (the import is part of set-up)
    from perfbench import ops

    plan = req["plan"]
    net_dir = req["net_dir"]
    if plan["nets"]:
        os.makedirs(net_dir, exist_ok=True)
        for name, text in plan["nets"].items():
            with open(os.path.join(net_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    tracer = None
    if req["trace"]:
        from perfbench.trace import Tracer
        tracer = Tracer()
        tracer.install()

    todo = plan["ops"]
    latencies, results = [], []
    first = time.monotonic()
    if req["probe"]:
        _remove_nets(plan, net_dir)
        json.dump({"setup_s": first - req["spawned_at"]}, sys.stdout)
        return 0
    for op in todo:
        if tracer is not None:
            tracer.begin_op(op["id"])
        t0 = time.perf_counter()
        try:
            res = ops.run(op, net_dir)
        except Exception as exc:  # a failing operation is an output to check
            res = ops.Failed(exc)
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        results.append(res)
    wall = time.monotonic() - first
    peak_kb = _peak_rss_kb()

    out = {"setup_s": first - req["spawned_at"], "wall_s": wall,
           "latencies_s": latencies, "peak_rss_mb": peak_kb / 1024.0,
           "outputs": [ops.plain(op, r) for op, r in zip(todo, results)]}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        if req["trace_path"]:
            tracer.write(req["trace_path"])
    _remove_nets(plan, net_dir)
    json.dump(out, sys.stdout)
    return 0


def _remove_nets(plan: dict, net_dir: str):
    for name in plan["nets"]:
        os.remove(os.path.join(net_dir, name))
    if plan["nets"]:
        os.rmdir(net_dir)


if __name__ == "__main__":
    sys.exit(main())
