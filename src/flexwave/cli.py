"""Command-line front end: batch computations persisted as CSV plus a JSON
sidecar per run.

Commands
--------
dispersion   table of (k, D, omega, omega', omega'') over requested k and D
nls          envelope-equation coefficients and focusing flags over a D grid
resonance    resonant rigidity D for requested modes K
collisions   flat-water eigenvalue collisions for requested (D, c, h)
branch       bifurcation branch per ice model, with the asymptotic overlay
stability    Floquet spectra and instability reports for branch points
compare      joint FFH scatter and asymptotic overlay, both as (mu, Re, Im) rows

Each command takes only the flags it reads.  Each setting is taken from its
flag if given, else from the `--config` file, else from the command's default
(`COMMON_DEFAULTS` and `COMMAND_DEFAULTS`): flag > file > default.  Settings
are checked by the flag types and choices, by `SETTING_PARSERS` and by the
PhysicalParams and SolverConfig they build, before any output is written.

All numeric CSV payloads are written with 17 significant digits so reloaded
values round-trip exactly.  Exit codes: 0 success, 2 configuration error,
3 numerical failure (partial results are persisted alongside an error
record: `branch`, `stability` and `compare` save a branch that stalls at a
fold as far as it got).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .core import INFINITE_DEPTH, IceModel, NonpositiveRadicand, PhysicalParams, SpectralProfile, TravelingWave
from .solver import (
    BifurcationBranch,
    NoConvergence,
    SingularJacobian,
    SolverConfig,
    StepUnderflow,
    bifurcation_speed,
    branch_direction,
    continue_branch,
    residual,
)
from .stability import EigSolverFailure, classify, nls_overlay, sweep_floquet
from .theory import (
    FiniteDepthUnsupported,
    NlsCoefficients,
    NoPositiveRoot,
    WiltonPole,
    c_nls,
    dispersion_derivatives,
    find_collisions,
    nls_coefficients,
    resonant_rigidity,
)

NUMERICAL_ERRORS = (
    NonpositiveRadicand,
    NoConvergence,
    SingularJacobian,
    StepUnderflow,
    EigSolverFailure,
    WiltonPole,
    FiniteDepthUnsupported,
    NoPositiveRoot,
)


__all__ = ["ConfigError", "build_parser", "merge_config", "load_branch", "save_branch", "write_csv", "main"]


class ConfigError(ValueError):
    """Invalid run configuration (bad flag value, unwritable output dir, ...)."""


#: Values of the settings that neither a flag nor the config file gives.
#: COMMAND_DEFAULTS holds each command's own keys, so a sidecar records only
#: the settings its command reads.
COMMON_DEFAULTS = {"g": 1.0, "h": "inf", "out": "flexwave-out"}
COMMAND_DEFAULTS = {
    "dispersion": {"D": "0", "k_list": "1"},
    "nls": {"D": "0 0.12 25"},
    "resonance": {"K_list": "7 10"},
    "collisions": {"D": "0", "m_range": 10, "mu_grid": 2001},
    "branch": {"D": "0", "model": "both", "a1_max": 0.01},
    "stability": {"D": "0", "model": "both", "a1_max": 0.01, "mu_count": 401},
    "compare": {"D": "0", "model": "both", "a1_max": 0.01, "mu_count": 401},
}

#: Commands that continue a branch, and of those the ones that sweep mu.
BRANCH_COMMANDS = ("branch", "stability", "compare")
FLOQUET_COMMANDS = ("stability", "compare")


def write_csv(path: Path, header: list[str], rows) -> None:
    """The header line, then one line per row of ``len(header)`` numbers.

    The whole table is formatted by one ``%.17g`` operation: 17 significant
    digits give every float an exact round trip, and integers and flags
    print as integers.
    """
    values = np.asarray(list(rows), dtype=float).ravel().tolist()
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((line * (len(values) // len(header))) % tuple(values))


def write_sidecar(path: Path, config: dict, extra: dict | None = None) -> None:
    payload = {"version": __version__, "config": config}
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def parse_depth(text: str) -> float:
    if text.strip().lower() in ("inf", "infinite", "infinity"):
        return INFINITE_DEPTH
    return float(text)


def parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def parse_d_grid(text: str) -> np.ndarray:
    """`min max count` as the rigidities np.linspace(min, max, count)."""
    values = parse_float_list(text)
    if len(values) != 3 or not all(map(math.isfinite, values[:2])) or not values[2].is_integer() or values[2] < 1:
        raise ValueError(f"expected 'min max count' with finite bounds and a positive integer count, got {text!r}")
    return np.linspace(values[0], values[1], int(values[2]))


#: Parsers of the settings given as text; `merge_config` checks every one
#: present, and the commands read the parsed value through `setting`.
SETTING_PARSERS = {
    "h": parse_depth,
    "D": parse_float_list,
    "k_list": parse_float_list,
    "K_list": parse_int_list,
    "a1_list": parse_float_list,
    "D_grid": parse_d_grid,
}


def setting(cfg: dict, key: str):
    """Parsed value of the text-valued setting `key`."""
    return SETTING_PARSERS[key](str(cfg[key]))


def load_config_file(path: str) -> dict[str, str]:
    """Flat key-value config: one `key = value` per line, `#` comments."""
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def models_from(name: str) -> list[IceModel]:
    table = {
        "linear": [IceModel.LINEAR_BIHARMONIC],
        "nonlinear": [IceModel.NONLINEAR_COSSERAT],
        "both": [IceModel.LINEAR_BIHARMONIC, IceModel.NONLINEAR_COSSERAT],
    }
    if name not in table:
        raise ConfigError(f"unknown model {name!r}; expected linear, nonlinear or both")
    return table[name]


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    """Flags of one command: only those it reads.  Every default is None, so
    `merge_config` can tell a flag that was given from one that was not."""
    p.add_argument("--config", help="key=value config file; command-line flags take precedence")
    p.add_argument("--g", type=float, default=None, help="gravitational acceleration (default 1)")
    p.add_argument("--h", type=str, default=None, help="fluid depth, or 'inf'")
    p.add_argument("--out", type=str, default=None, help="output directory")
    if command != "resonance":
        p.add_argument("--D", type=str, default=None, help="flexural rigidity (list allowed where meaningful)")
    if command in BRANCH_COMMANDS:
        p.add_argument("--model", type=str, default=None, help="linear, nonlinear or both")
        p.add_argument("--modes", type=int, default=None, help="initial cosine mode count N")
        p.add_argument("--max-modes", type=int, default=None, help="cap for adaptive mode doubling")
        p.add_argument("--a1-max", type=float, default=None, help="target first-mode amplitude")
        p.add_argument("--a1-step", type=float, default=None, help="continuation step in a1")
    if command in FLOQUET_COMMANDS:
        p.add_argument("--mu-count", type=int, default=None, help="number of Floquet exponents in a sweep")
        p.add_argument("--a1-list", type=str, default=None, help="branch amplitudes to analyze, each in (0, a1-max]")
        p.add_argument("--floquet-modes", type=int, default=None)
    if command == "dispersion":
        p.add_argument("--k-list", type=str, default=None, help="wavenumbers (default 1)")
    if command == "nls":
        p.add_argument("--D-grid", type=str, default=None, help="min max count; overrides --D")
    if command == "resonance":
        p.add_argument("--K-list", type=str, default=None, help="resonant modes K (default 7 10)")
    if command == "collisions":
        p.add_argument("--c", type=float, default=None, help="frame speed (default: bifurcation speed)")
        p.add_argument("--m-range", type=int, default=None, help="largest Fourier mode |m| (default 10)")
        p.add_argument("--mu-grid", type=int, default=None, help="mu samples in the search (default 2001)")
    if command == "branch":
        p.add_argument("--resume", type=str, default=None,
                       help="prior branch CSV to continue from; its sidecar sets the model, g, h and D")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexwave",
        description="Periodic flexural-gravity waves: branches, spectra and asymptotic comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_flags(sub.add_parser(name), name)
    return parser


class _FileValueParser(argparse.ArgumentParser):
    """Reads config-file values as flags; a bad value is a ConfigError."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _config_file_values(command: str, path: str) -> dict:
    """Values of a config file, converted and checked by the command's flag
    types and choices.  Keys that are no setting of the command are dropped,
    so one file can serve several commands; `resume` is an error instead,
    because it would replace the command's own branch."""
    values = load_config_file(path)
    parser = _FileValueParser(prog=path, add_help=False, allow_abbrev=False)
    _add_flags(parser, command)
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    typed, _ = parser.parse_known_args(flags)
    if "resume" in values and not hasattr(typed, "resume"):
        raise ConfigError(f"{path}: {command} has no --resume; only branch continues a prior branch")
    return {key: getattr(typed, key) for key in values if hasattr(typed, key) and key != "config"}


def merge_config(args: argparse.Namespace) -> dict:
    """Flags over config-file values over the command's defaults."""
    merged = _config_file_values(args.command, args.config) if args.config else {}
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        merged[key] = value
    for key, value in {**COMMON_DEFAULTS, **COMMAND_DEFAULTS.get(args.command, {})}.items():
        merged.setdefault(key, value)
    for key in SETTING_PARSERS.keys() & merged.keys():
        try:
            setting(merged, key)
        except ValueError as exc:
            raise ConfigError(f"bad value {merged[key]!r} for {key}: {exc}") from exc
    _check_ranges(args.command, merged)
    return merged


def _check_ranges(command: str, cfg: dict) -> None:
    """Reject values the commands cannot use, before any computation."""
    # g and h for every command; D where the command takes a single value,
    # and each value of the D list and grid where it takes several
    params_from(cfg, d_value=None if command in ("collisions", *BRANCH_COMMANDS) else 0.0)
    if command in ("dispersion", "nls"):
        for key in ("D", "D_grid"):
            for d in setting(cfg, key) if cfg.get(key) else ():
                params_from(cfg, d_value=float(d))
    if command == "collisions" and cfg["mu_grid"] < 2:
        raise ConfigError(f"mu-grid must be at least 2, got {cfg['mu_grid']}")
    if command in BRANCH_COMMANDS:
        solver_config_from(cfg)
        if not 0 < cfg["a1_max"] < math.inf:
            raise ConfigError(f"a1-max must be positive and finite, got {cfg['a1_max']}")
    for key in ("a1_list", "k_list"):
        if cfg.get(key) and not all(map(math.isfinite, setting(cfg, key))):
            raise ConfigError(f"{key.replace('_', '-')} values must be finite, got {cfg[key]!r}")
    if cfg.get("c") is not None and not math.isfinite(cfg["c"]):
        raise ConfigError(f"c must be finite, got {cfg['c']}")
    if command in FLOQUET_COMMANDS:
        if cfg["mu_count"] < 2:
            raise ConfigError(f"mu-count must be at least 2, got {cfg['mu_count']}")
        if cfg.get("floquet_modes") is not None and cfg["floquet_modes"] < 1:
            raise ConfigError(f"floquet-modes must be at least 1, got {cfg['floquet_modes']}")
        if cfg.get("a1_list") and not all(0 < t <= cfg["a1_max"] for t in setting(cfg, "a1_list")):
            raise ConfigError(f"a1-list values must lie in (0, a1-max = {cfg['a1_max']}], got {cfg['a1_list']!r}")
    if command == "dispersion" and 0.0 in setting(cfg, "k_list"):
        raise ConfigError("dispersion is undefined at k = 0")


def params_from(cfg: dict, d_value: float | None = None) -> PhysicalParams:
    try:
        h = setting(cfg, "h")
        if d_value is None:
            d_list = setting(cfg, "D")
            if len(d_list) != 1:
                raise ConfigError("this command needs exactly one value of D")
            d_value = d_list[0]
        return PhysicalParams(g=float(cfg["g"]), h=h, D=d_value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def solver_config_from(cfg: dict) -> SolverConfig:
    kwargs = {}
    if "modes" in cfg:
        kwargs["n_modes"] = int(cfg["modes"])
        kwargs["max_modes"] = max(SolverConfig.max_modes, kwargs["n_modes"])
    if "max_modes" in cfg:
        kwargs["max_modes"] = int(cfg["max_modes"])
    if "a1_step" in cfg:
        kwargs["amplitude_step"] = float(cfg["a1_step"])
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def out_dir(cfg: dict) -> Path:
    path = Path(str(cfg["out"]))
    path.mkdir(parents=True, exist_ok=True)
    if not os.access(path, os.W_OK):
        raise ConfigError(f"output directory {path} is not writable")
    return path


# ---------------------------------------------------------------- commands


def cmd_dispersion(cfg: dict) -> None:
    out = out_dir(cfg)
    ks = setting(cfg, "k_list")
    d_values = setting(cfg, "D")
    rows = []
    for d in d_values:
        params = params_from(cfg, d_value=d)
        for k in ks:
            rows.append((k, d, *dispersion_derivatives(k, params)))
    write_csv(out / "dispersion.csv", ["k", "D", "omega", "omega_p", "omega_pp"], rows)
    write_sidecar(out / "dispersion.meta.json", cfg)


def cmd_nls(cfg: dict) -> None:
    out = out_dir(cfg)
    d_values = setting(cfg, "D_grid") if cfg.get("D_grid") else setting(cfg, "D")
    rows = []
    for d in d_values:
        params = params_from(cfg, d_value=float(d))
        try:
            lin = nls_coefficients(IceModel.LINEAR_BIHARMONIC, 1, params)
            tol = nls_coefficients(IceModel.NONLINEAR_COSSERAT, 1, params)
            rows.append(
                (d, lin.omega, lin.omega_p, lin.omega_pp, lin.M, tol.M,
                 lin.focusing, tol.focusing, 0)
            )
        except WiltonPole:
            rows.append((d, math.nan, math.nan, math.nan, math.nan, math.nan, 0, 0, 1))
    write_csv(
        out / "nls.csv",
        ["D", "omega", "omega_p", "omega_pp", "M_lin", "M_tol", "focusing_lin", "focusing_tol", "wilton_pole"],
        rows,
    )
    write_sidecar(out / "nls.meta.json", cfg)


def cmd_resonance(cfg: dict) -> None:
    out = out_dir(cfg)
    ks = setting(cfg, "K_list")
    params = params_from(cfg, d_value=0.0)
    rows = []
    for k in ks:
        rows.append((k, params.h, resonant_rigidity(k, params)))
    write_csv(out / "resonance.csv", ["K", "h", "D"], rows)
    write_sidecar(out / "resonance.meta.json", cfg)


def cmd_collisions(cfg: dict) -> None:
    out = out_dir(cfg)
    params = params_from(cfg)
    c = float(cfg["c"]) if cfg.get("c") is not None else bifurcation_speed(params)
    records = find_collisions(
        params, c, mu_grid=int(cfg["mu_grid"]), m_range=int(cfg["m_range"])
    )
    rows = [(r.mu, r.m1, r.s1, r.m2, r.s2, r.lam.real, r.lam.imag) for r in records]
    write_csv(out / "collisions.csv", ["mu", "m1", "s1", "m2", "s2", "re_lambda", "im_lambda"], rows)
    write_sidecar(out / "collisions.meta.json", cfg, {"c": c, "count": len(records)})


def save_branch(out: Path, branch: BifurcationBranch, cfg: dict, solver_cfg: SolverConfig) -> None:
    tag = branch.model.value
    n_max = max((w.profile.n_modes for w in branch.points), default=0)
    header = ["c"] + [f"a{j}" for j in range(1, n_max + 1)]
    rows = []
    meta_points = []
    for wave in branch.points:
        coeffs = np.zeros(n_max)
        coeffs[: wave.profile.n_modes] = wave.profile.coeffs
        rows.append((wave.c, *coeffs))
        z = np.concatenate(([wave.c], wave.profile.coeffs[1:]))
        res = residual(z, wave.a1, branch.params, branch.model)
        meta_points.append(
            {"a1": wave.a1, "c": wave.c, "n_modes": wave.profile.n_modes,
             "residual_inf": float(np.max(np.abs(res)))}
        )
    write_csv(out / f"branch_{tag}.csv", header, rows)
    extra = {
        "params": {"g": branch.params.g, "h": branch.params.h, "D": branch.params.D},
        "model": branch.model.value,
        "solver": asdict(solver_cfg),
        "points": meta_points,
    }
    if len(branch.points) >= 3:
        extra["direction"] = branch_direction(branch).value
    write_sidecar(out / f"branch_{tag}.meta.json", cfg, extra)

    if branch.params.infinite_depth:
        try:
            coeffs = nls_coefficients(branch.model, 1, branch.params)
            nls_rows = [(wave.a1, c_nls(wave.a1 / 2.0, coeffs, branch.params)) for wave in branch.points]
            write_csv(out / f"branch_nls_{tag}.csv", ["a1", "c_nls"], nls_rows)
        except WiltonPole:
            pass


def load_branch(csv_path: str | Path) -> BifurcationBranch:
    """Reload a persisted branch; params/model come from the sidecar."""
    csv_path = Path(csv_path)
    meta_path = csv_path.parent / (csv_path.stem + ".meta.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    params = PhysicalParams(
        g=float(meta["params"]["g"]),
        h=float(meta["params"]["h"]),
        D=float(meta["params"]["D"]),
    )
    model = IceModel(meta["model"])
    data = np.genfromtxt(csv_path, delimiter=",", skip_header=1, ndmin=2)
    points = []
    for row in data:
        c, coeffs = row[0], row[1:]
        n = np.max(np.nonzero(coeffs)) + 1 if np.any(coeffs) else 1
        points.append(
            TravelingWave(profile=SpectralProfile(coeffs[:n]), c=float(c), params=params, model=model)
        )
    return BifurcationBranch(params=params, model=model, points=points)


def _saved_branches(cfg: dict):
    """Continue, save and yield the branch of each model `--model` selects.

    With `resume` (branch only), the prior branch is loaded once: `--model`
    must include its model, and its points head the continued branch.  A
    branch that stalls at a fold is saved as far as it got before
    StepUnderflow propagates.
    """
    models = models_from(str(cfg["model"]))
    prior_points, start = [], None
    if cfg.get("resume"):
        try:
            prior = load_branch(cfg["resume"])
        except (OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"cannot resume from {cfg['resume']}: {exc}") from exc
        if prior.model not in models:
            raise ConfigError(
                f"--model {cfg['model']} does not include the {prior.model.value} model of {cfg['resume']}"
            )
        models, prior_points, start = [prior.model], prior.points, prior.points[-1]
    out = out_dir(cfg)
    solver_cfg = solver_config_from(cfg)
    params = params_from(cfg) if start is None else start.params
    for model in models:
        try:
            branch = continue_branch(params, model, float(cfg["a1_max"]), solver_cfg, start=start)
        except StepUnderflow as exc:
            exc.branch.points[:0] = prior_points
            save_branch(out, exc.branch, cfg, solver_cfg)
            raise
        branch.points[:0] = prior_points
        save_branch(out, branch, cfg, solver_cfg)
        yield branch


def cmd_branch(cfg: dict) -> None:
    for _ in _saved_branches(cfg):
        pass  # each branch is saved as it is computed


def _select_waves(branch: BifurcationBranch, cfg: dict) -> list[TravelingWave]:
    if cfg.get("a1_list"):
        targets = setting(cfg, "a1_list")
        return [min(branch.points, key=lambda w: abs(w.a1 - t)) for t in targets]
    return [branch.points[-1]]


def _floquet_runs(cfg: dict, overlay: dict[IceModel, NlsCoefficients] | None) -> None:
    """Per model: compute and save the branch, sweep each selected wave once
    over `mu-count` uniform exponents in [-1/2, 1/2), write its spectrum and
    classify it.  Given the NLS coefficients of each model, also write each
    wave's overlay curve, under `compare`'s file names; both files hold
    (mu, Re lambda, Im lambda) rows, so each overlay point pairs with the
    FFH slice at its mu."""
    out = out_dir(cfg)
    mu_count = int(cfg["mu_count"])
    mu_values = np.linspace(-0.5, 0.5, mu_count, endpoint=False)
    spectrum_tag, meta_tag = ("spectrum", "stability") if overlay is None else ("compare_ffh", "compare")
    header = ["mu", "re_lambda", "im_lambda"]
    for branch in _saved_branches(cfg):
        model = branch.model
        reports = []
        for idx, wave in enumerate(_select_waves(branch, cfg)):
            spectrum = sweep_floquet(wave, mu_values, n_modes=cfg.get("floquet_modes"))
            mus, lams = spectrum.flattened()
            rows = np.column_stack([mus, lams.real, lams.imag])
            write_csv(out / f"{spectrum_tag}_{model.value}_{idx}.csv", header, rows)
            report = classify(spectrum)
            reports.append(
                {
                    "a1": wave.a1,
                    "max_growth": report.max_growth,
                    "argmax_mu": report.argmax_mu,
                    "clusters": [
                        {
                            "kind": c.kind.value,
                            "mu_interval": list(c.mu_interval),
                            "centroid": [c.centroid.real, c.centroid.imag],
                            "max_growth": c.max_growth,
                        }
                        for c in report.clusters
                    ],
                    "failed_mu": [mu for mu, _ in spectrum.failures],
                    "qz_mu": spectrum.qz_mu,
                    "max_cond_c": spectrum.max_cond_c,
                }
            )
            if overlay is not None:
                curve = nls_overlay(overlay[model], wave.a1 / 2.0, wave.c, mu_grid=mu_count)
                write_csv(out / f"compare_nls_{model.value}_{idx}.csv", header, curve)
        write_sidecar(out / f"{meta_tag}_{model.value}.meta.json", cfg, {"reports": reports})


def cmd_stability(cfg: dict) -> None:
    _floquet_runs(cfg, overlay=None)


def cmd_compare(cfg: dict) -> None:
    # the overlay can fail (finite depth, Wilton pole): find out before any branch or sweep
    params = params_from(cfg)
    models = models_from(str(cfg["model"]))
    _floquet_runs(cfg, overlay={model: nls_coefficients(model, 1, params) for model in models})


COMMANDS = {
    "dispersion": cmd_dispersion,
    "nls": cmd_nls,
    "resonance": cmd_resonance,
    "collisions": cmd_collisions,
    "branch": cmd_branch,
    "stability": cmd_stability,
    "compare": cmd_compare,
}


def write_error_record(cfg: dict, exc: Exception) -> None:
    try:
        out = Path(str(cfg["out"]))
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "error.json", "w") as fh:
            json.dump({"error": type(exc).__name__, "message": str(exc)}, fh, indent=2)
            fh.write("\n")
    except OSError:
        pass


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = merge_config(args)
        command = COMMANDS[args.command]
    except ConfigError as exc:
        print(f"flexwave: config error: {exc}", file=sys.stderr)
        return 2
    try:
        command(cfg)
    except ConfigError as exc:
        print(f"flexwave: config error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"flexwave: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        write_error_record(cfg, exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
