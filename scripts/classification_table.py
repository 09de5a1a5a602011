#!/usr/bin/env python3
"""Recompute the imaginary quadratic HFD classification and print it.

Maximal orders are classified by class number (h = 1 exactly the nine
UFD fields, h = 2 the eighteen half-factorial ones); every non-maximal
order Z[n*xi] with |d| <= 50, 2 <= n <= 5 carries an explicit witness,
except Z[sqrt(-3)], which is proved half-factorial by the conductor lemma
(h(-3) = 1, 2 inert, unit index 3), with no window.
"""
import argparse
import signal
import time

from normset_lab.hfd_lab import classification_check

signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # behave under `| head`


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--failures-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    report = classification_check()
    dt = time.perf_counter() - t0

    rows = [r for r in report.rows if not (args.failures_only and r.ok)]
    print(f"{'d':>5} {'n':>2}  {'expected':<9} {'computed':<9} ok  witness")
    for r in rows:
        wit = "" if r.witness is None else str(r.witness)
        mark = "+" if r.ok else "FAIL"
        print(f"{r.d:>5} {r.n:>2}  {r.expected:<9} {r.computed:<9} {mark:<4} {wit}")
    tally: dict[str, int] = {}
    for r in report.rows:
        tally[r.expected] = tally.get(r.expected, 0) + 1
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(tally.items()))
    print(f"# {len(report.rows)} rows ({summary}) in {dt:.2f}s; "
          f"all ok: {report.ok}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
