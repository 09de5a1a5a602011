"""Smoke tests for the scripts in scripts/ and for `python -m normset_lab`:
each runs in its own process.

The sequence-domain demo is deterministic (its random draws are seeded), so
its output is compared byte for byte with tests/golden, as is the normset
explorer's on Z[sqrt(10)].
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def _spawn(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _run(*args: str) -> str:
    done = _spawn(*args)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_classification_table():
    out = _run("scripts/classification_table.py")
    assert "# 151 rows (h=1: 9, h=2: 18, hfd: 1, not_hfd: 123)" in out
    assert out.rstrip().endswith("all ok: True")


def test_normset_explorer():
    out = _run("scripts/normset_explorer.py", "-5")
    assert out.startswith("order Z[sqrt(-5)], discriminant -20\n")
    assert "36: 2 factorizations, lengths [2], [(4, 9), (6, 6)]" in out
    assert "UFD: False" in out


def test_normset_explorer_matches_golden():
    out = _run("scripts/normset_explorer.py", "10", "--bound", "60")
    assert out == (GOLDEN / "normset_explorer_10.txt").read_text(encoding="utf-8")


def test_sequence_domain_demo_matches_golden():
    out = _run("scripts/sequence_domain_demo.py")
    assert out == (GOLDEN / "sequence_domain_demo.txt").read_text(encoding="utf-8")


def test_python_m_normset_lab_matches_golden():
    done = _spawn("-m", "normset_lab", "hfd", "--d", "-3", "--n", "2", "--format", "json")
    expected = (GOLDEN / "cli" / "hfd_-3_2.out").read_text(encoding="utf-8")
    assert f"exit: {done.returncode}\n{done.stdout}" == expected, done.stderr
