"""Correctness gate: checks one `flexwave` invocation from its output files only.

Checks, each with its tolerance:

1. every branch point in `branch_*.meta.json` has `residual_inf` <= 1e-10
   (the solver's own convergence tolerance);
2. every spectrum CSV is symmetric under mu -> -mu: the eigenvalues at -mu
   are the complex conjugates of those at mu.  The Hausdorff distance of the
   two sets must be <= 1e-8 times max(1, largest |lambda| of the slice), a
   normwise tolerance because QZ errors scale with the pencil norm;
3. on the sweep workloads the largest Re(lambda) over all spectra is no
   smaller than the nominal-input reference times (1 - GROWTH_TOLERANCE);
4. where a reference says so, the stability sidecar reports a modulational
   cluster;
5. where `branch_nls_*.csv` exists, |c - c_nls| <= 5 a1^4 + 1e-10 for every
   point with a1 <= 0.02: the NLS speed is exact to O(a1^2), so the gap is
   fourth order in the amplitude.

A `failed_mu` entry in a stability sidecar is a failed operation, not a
check failure; `check_outputs` returns both.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-10
SYMMETRY_TOL = 1e-8
#: Relative shortfall allowed against the reference growth.  Covers the
#: +-2 % amplitude jitter of the workload seeds (growth scales as a1^2) and
#: where the uniform mu grid falls on the instability band.
GROWTH_TOLERANCE = 0.15
NLS_AMPLITUDE_MAX = 0.02
NLS_COEFF = 5.0


def _read_csv(path: Path) -> np.ndarray:
    return np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)


def _spectrum_files(out: Path) -> list[Path]:
    return sorted(out.glob("spectrum_*.csv")) + sorted(out.glob("compare_ffh_*.csv"))


def check_branches(out: Path) -> list[str]:
    errors = []
    metas = sorted(out.glob("branch_*.meta.json"))
    if not metas:
        errors.append("no branch sidecar written")
    for meta_path in metas:
        points = json.loads(meta_path.read_text())["points"]
        if not points:
            errors.append(f"{meta_path.name}: empty branch")
        worst = max((p["residual_inf"] for p in points), default=0.0)
        if not worst <= RESIDUAL_TOL:
            errors.append(f"{meta_path.name}: residual_inf {worst:.3e} > {RESIDUAL_TOL:g}")
    return errors


def symmetry_defect(path: Path) -> float:
    """Largest normwise distance between the spectrum at -mu and conj(spectrum at mu)."""
    data = _read_csv(path)
    mus, lams = data[:, 0], data[:, 1] + 1j * data[:, 2]
    slices = np.unique(mus)
    worst = 0.0
    for mu in slices[slices > 0]:
        partner = slices[np.abs(slices + mu) <= 1e-12 * max(1.0, abs(mu))]
        if partner.size == 0:
            continue
        a = lams[mus == mu]
        b = np.conj(lams[mus == partner[0]])
        if a.size != b.size:
            return float("inf")
        dist = np.abs(a[:, None] - b[None, :])
        hausdorff = max(dist.min(axis=1).max(), dist.min(axis=0).max())
        scale = max(1.0, float(np.abs(a).max()))
        worst = max(worst, hausdorff / scale)
    return worst


def check_symmetry(out: Path) -> list[str]:
    errors = []
    for path in _spectrum_files(out):
        defect = symmetry_defect(path)
        if not defect <= SYMMETRY_TOL:
            errors.append(f"{path.name}: mu -> -mu symmetry defect {defect:.3e} > {SYMMETRY_TOL:g}")
    return errors


def max_growth(out: Path) -> float:
    return max((float(_read_csv(p)[:, 1].max()) for p in _spectrum_files(out)), default=float("nan"))


def check_growth(out: Path, reference: float) -> list[str]:
    growth = max_growth(out)
    floor = reference * (1.0 - GROWTH_TOLERANCE)
    if not growth >= floor:
        return [f"max growth {growth:.6e} below reference {reference:.6e} - {GROWTH_TOLERANCE:.0%}"]
    return []


def modulational_reported(out: Path) -> bool:
    for meta_path in out.glob("stability_*.meta.json"):
        for report in json.loads(meta_path.read_text())["reports"]:
            if any(c["kind"] == "modulational" for c in report["clusters"]):
                return True
    return False


def check_nls(out: Path) -> list[str]:
    errors = []
    for nls_path in sorted(out.glob("branch_nls_*.csv")):
        branch_path = out / nls_path.name.replace("branch_nls_", "branch_")
        nls, branch = _read_csv(nls_path), _read_csv(branch_path)
        if nls.shape[0] != branch.shape[0]:
            errors.append(f"{nls_path.name}: {nls.shape[0]} rows, branch has {branch.shape[0]}")
            continue
        a1, gap = nls[:, 0], np.abs(branch[:, 0] - nls[:, 1])
        small = a1 <= NLS_AMPLITUDE_MAX
        excess = gap[small] - (NLS_COEFF * a1[small] ** 4 + 1e-10)
        if excess.size and excess.max() > 0:
            i = int(np.argmax(excess))
            errors.append(f"{nls_path.name}: |c - c_nls| = {gap[small][i]:.3e} at a1 = {a1[small][i]:.4g}")
    return errors


def failed_mu(out: Path) -> int:
    count = 0
    for meta_path in out.glob("stability_*.meta.json"):
        for report in json.loads(meta_path.read_text())["reports"]:
            count += len(report["failed_mu"])
    return count


def check_outputs(out: Path, growth_reference: float | None, needs_modulational: bool) -> tuple[list[str], int]:
    """(check failures, failed_mu count) for one invocation's output directory."""
    errors = check_branches(out) + check_symmetry(out) + check_nls(out)
    if growth_reference is not None:
        errors += check_growth(out, growth_reference)
    if needs_modulational and not modulational_reported(out):
        errors.append("no modulational cluster reported")
    return errors, failed_mu(out)
