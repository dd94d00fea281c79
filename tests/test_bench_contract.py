"""The names and result shapes that the benchmark in bench/ reaches from
outside the library: every function its tracer wraps must exist, a traced
worker must run, and the zigzag it checks with its own oracle must give the
library's sigma-gmf."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gmfkit.moduli_calc import build_zigzag, sigma_gmf_series

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load("tracer")
    targets = list(tracer.SPANS.values()) + [("gmfkit.family_analysis", "_newton")]
    for modname, attr in targets:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (modname, attr)


@pytest.mark.parametrize("argv", [
    ["trace-family", "--preset", "cusp", "--t0", "-1", "--t1", "1"],
    ["series", "--object", "sigma-gmf", "--d", "2"],
])
def test_traced_worker_runs(argv):
    # the tracer reads gmfkit's modules from sys.modules in a fresh worker,
    # which resolving each name above (importing it first) cannot show
    job = {"kind": "cli", "argv": argv, "stdin": None, "trace": True}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0, result["stderr"]
    assert isinstance(result["layers"], dict) and result["layers"]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8])
def test_zigzag_passes_the_bench_oracle(d):
    N = {5: 20, 8: 12}.get(d, 8)  # the series workload's (5, 20) and (8, 12)
    got = _load("oracles").zigzag_oracle(build_zigzag(d, N), d, N)
    assert got["errors"] == []
    series = sigma_gmf_series(d, N)
    assert series.min_degree == 0
    assert list(series.coeffs) == got["sigma-gmf"]
