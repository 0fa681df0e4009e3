"""Smoke test of the benchmark command at toy size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

The three command cases each start their own Spark JVM through
``perfbench/run.py`` on EmailCore at scale 0.05 (50 vertices), so the whole
file takes about two minutes on 4 cores.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TOY = ["--workload", "emailcore-tr", "--seed", "0", "--seconds", "1", "--scale", "0.05"]


def _bench(*args: str, prelude: str = "") -> tuple[int, dict]:
    """Run the benchmark in a fresh interpreter; return (exit code, result)."""
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        f"{prelude}\n"
        f"import run; sys.exit(run.main({list(args)!r}))"
    )
    p = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=300,
    )
    lines = p.stdout.strip().splitlines()
    assert lines, p.stderr[-3000:]
    return p.returncode, json.loads(lines[-1])


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, kind):
    code, out = _bench(*TOY, "--trace", trace)
    assert code == 0 and out["correct"] and out["failed"] == 0, out
    assert out["attempted"] >= 1
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == _declared(kind)
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_gate_fails_the_run_on_a_wrong_blocker_list():
    wrong = (
        "import repro.algorithms.advanced_greedy as m\n"
        "m.advanced_greedy = lambda g, b, **kw: [g.seed] * b"
    )
    code, out = _bench(*TOY, "--trace", "0", prelude=wrong)
    assert code != 0
    assert not out["correct"] and out["failed"] >= 1


@pytest.mark.parametrize(
    "blockers",
    [[1, 2], [1, 1, 2], [0, 1, 2], [1, 2, 99]],
    ids=["too-few", "duplicate", "seed", "out-of-range"],
)
def test_check_blockers_rejects(blockers):
    assert run.check_blockers(blockers, n=10, seed=0, expected_len=3) is not None


def test_check_blockers_accepts_and_check_spread_floor():
    assert run.check_blockers([3, 1, 2], n=10, seed=0, expected_len=3) is None
    assert run.check_spread(10.0, n_seeds=10, n=50) is None
    assert run.check_spread(9.5, n_seeds=10, n=50) is not None
