"""Self-test of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench/test_bench.py

Runs every workload in smoke mode (tiny inputs) with and without tracing and
checks the result line against BENCHMARK.json; then checks that the tracer
wraps re-exported names and that the correctness gate rejects broken output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_result_matches_spec(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name], name
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


TRACER_PROBE = """
import json, tracer, flexwave.cli, flexwave.solver, flexwave.stability
wrapped = tracer.install(tracer.Tracer())
print(json.dumps({
    "wrapped": wrapped,
    "rebound": [
        getattr(fn, "__wrapped_by_tracer__", False)
        for fn in (flexwave.cli.sweep_floquet, flexwave.solver.grid_derivative, flexwave.stability.grid_derivative)
    ],
}))
"""


def test_tracer_wraps_every_binding():
    env = dict(run.child_env(), PYTHONPATH=f"{run.SRC}:{BENCH_DIR}")
    proc = subprocess.run([sys.executable, "-c", TRACER_PROBE], env=env, capture_output=True, text=True, check=True)
    probe = json.loads(proc.stdout)
    assert all(probe["rebound"])
    assert "cli.main" not in probe["wrapped"]
    assert set(run.NAMED_FUNCTIONS) <= set(probe["wrapped"])


def test_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: sum(range(20000)))
    outer = t.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert t.stats["inner"]["calls"] == 3
    assert t.stats["outer"]["self_s"] < t.stats["outer"]["total_s"]
    assert t.top_level_s == pytest.approx(t.stats["outer"]["total_s"])


def _write_spectrum(path: Path, lams_by_mu: dict[float, np.ndarray]) -> None:
    rows = [(mu, lam.real, lam.imag) for mu, lams in lams_by_mu.items() for lam in lams]
    np.savetxt(path, rows, delimiter=",", header="mu,re_lambda,im_lambda", comments="", fmt="%.17g")


def test_gate_rejects_asymmetric_spectrum(tmp_path):
    lams = np.array([0.01 + 1.0j, -0.01 + 2.0j, 3.0j])
    _write_spectrum(tmp_path / "spectrum_nonlinear_0.csv", {-0.25: np.conj(lams), 0.25: lams})
    assert gate.check_symmetry(tmp_path) == []
    _write_spectrum(tmp_path / "spectrum_nonlinear_0.csv", {-0.25: np.conj(lams) + 1e-6, 0.25: lams})
    assert gate.check_symmetry(tmp_path)


def test_gate_rejects_unconverged_branch_and_low_growth(tmp_path):
    meta = {"points": [{"a1": 0.001, "c": 1.0, "n_modes": 32, "residual_inf": 1e-9}]}
    (tmp_path / "branch_linear.meta.json").write_text(json.dumps(meta))
    assert gate.check_branches(tmp_path)
    _write_spectrum(tmp_path / "spectrum_linear_0.csv", {0.0: np.array([0.001 + 1j])})
    assert gate.check_growth(tmp_path, reference=0.001) == []
    assert gate.check_growth(tmp_path, reference=0.002)
