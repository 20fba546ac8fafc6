"""Command-line front end: batch computations persisted as CSV plus a JSON
sidecar per run.

Commands
--------
dispersion   table of (k, D, omega, omega', omega'') over requested k and D
nls          envelope-equation coefficients and focusing flags over a D grid
resonance    resonant rigidity D for requested modes K
collisions   flat-water eigenvalue collisions for requested (D, c, h), on
             the fixed mu grid of `theory.find_collisions`
branch       bifurcation branch per ice model, with the asymptotic overlay
stability    Floquet spectra and instability reports for branch points
compare      joint FFH scatter and asymptotic overlay, both as (mu, Re, Im) rows

Each command takes only the flags it reads.  `SETTINGS` declares each
setting once: the commands that read it with its default in each, its flag's
help and type, the parser of its text and its least value.  A setting is
taken from its flag if given, else from the `--config` file, else from the
command's default: flag > file > default.  Runs are in the units of
`core.PhysicalParams`, so a gravity g other than 1, from a config file or a
resumed sidecar, is a config error.

`main` frames every run: check, make `out`, compute, record.  `merge_config`
checks every setting, by the table, by the PhysicalParams and SolverConfig
they build and by loading the `--resume` branch; `out_dir` then makes the
output directory, the one place that does; the command computes into it;
and a numerical failure leaves its record there.  A config error therefore
computes and writes nothing.

All numeric CSV payloads are written with 17 significant digits so reloaded
values round-trip exactly.  Exit codes: 0 success, 2 configuration error,
3 numerical failure, which is any `core.NumericalFailure` (partial results
are persisted alongside an error record that names the error: `branch`,
`stability` and `compare` save a branch that stalls at a fold as far as it
got).  The command, console script or ``python -m flexwave.cli``, exits
through `run_and_exit`, without the interpreter's final cyclic-GC passes:
they cost about 20 ms, near a tenth of a short `branch` run, and free only
memory that the exit gives back anyway.

Runs use one BLAS thread unless the caller sets a count: the package
docstring states the rule.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import asdict
from enum import Enum
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .core import INFINITE_DEPTH, IceModel, NumericalFailure, PhysicalParams, TravelingWave
from .solver import (
    BifurcationBranch,
    SolverConfig,
    StepUnderflow,
    bifurcation_speed,
    branch_direction,
    continue_branch,
)
from .stability import classify, nls_overlay, sweep_floquet
from .theory import (
    MAX_RESONANT_MODE,
    NlsCoefficients,
    WiltonPole,
    c_nls,
    dispersion_derivatives,
    find_collisions,
    flat_eigenvalues,
    nls_coefficients,
    resonant_rigidity,
)


class ConfigError(ValueError):
    """Invalid run configuration (bad flag value, unwritable output dir, ...)."""


#: Commands that continue a branch, and of those the ones that sweep mu.
BRANCH_COMMANDS = ("branch", "stability", "compare")
FLOQUET_COMMANDS = ("stability", "compare")


def write_csv(path: Path, header: list[str], rows) -> None:
    """The header line, then one line per row of ``len(header)`` numbers.

    The whole table is formatted by one ``%.17g`` operation: 17 significant
    digits give every float an exact round trip, and integers and flags
    print as integers.
    """
    values = np.asarray(rows, dtype=float).ravel().tolist()
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((line * (len(values) // len(header))) % tuple(values))


def _json_value(value):
    """A complex number as [re, im] and an Enum as its value; any other type
    that JSON lacks is an error, not its str."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, Enum):
        return value.value
    raise TypeError(f"cannot write {type(value).__name__} {value!r} to a sidecar")


def write_sidecar(path: Path, config: dict, extra: dict | None = None) -> None:
    payload = {"version": __version__, "config": config}
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_value, allow_nan=False)
        fh.write("\n")


def parse_depth(text: str) -> float:
    if text.strip().lower() in ("inf", "infinite", "infinity"):
        return INFINITE_DEPTH
    return float(text)


def parse_float_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.replace(",", " ").split()]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"values must be finite, got {text!r}")
    return values


def parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def parse_d_grid(text: str) -> np.ndarray:
    """`min max count` as the rigidities np.linspace(min, max, count)."""
    values = parse_float_list(text)
    if len(values) != 3 or not values[2].is_integer() or values[2] < 1:
        raise ValueError(f"expected 'min max count' with a positive integer count, got {text!r}")
    return np.linspace(values[0], values[1], int(values[2]))


def parse_model(name: str) -> list[IceModel]:
    """The ice models of a `--model` name."""
    models = {
        "linear": [IceModel.LINEAR_BIHARMONIC],
        "nonlinear": [IceModel.NONLINEAR_COSSERAT],
        "both": [IceModel.LINEAR_BIHARMONIC, IceModel.NONLINEAR_COSSERAT],
    }
    if name not in models:
        raise ValueError(f"unknown model {name!r}; expected linear, nonlinear or both")
    return models[name]


def setting(cfg: dict, key: str):
    """Parsed value of the text-valued setting `key`."""
    return SETTINGS[key].parse(str(cfg[key]))


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


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per command, with a flag for each setting it reads.
    Every flag defaults to None, so `merge_config` can tell a flag that was
    given from one that was not."""
    parser = argparse.ArgumentParser(
        prog="flexwave",
        description="Periodic flexural-gravity waves: branches, spectra and asymptotic comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file; command-line flags take precedence (default: none)")
        for key, entry in SETTINGS.items():
            if name in entry.defaults:
                default = entry.defaults[name]
                text = entry.help if default is None else f"{entry.help} (default {default})"
                p.add_argument(f"--{key.replace('_', '-')}", type=entry.type, default=None, help=text)
    return parser


def merge_config(args: argparse.Namespace) -> dict:
    """Flags over config-file values over the command's defaults.

    Each given value, from a flag or the file, is converted and checked by
    its SETTINGS entry.  Keys of the file that are settings of other commands
    are dropped, so one file can serve several commands; `resume` is an error
    instead, because it would replace the command's own branch.  A key that
    is no setting of any command, such as a misspelled one, is an error too.
    """
    command = args.command
    values = load_config_file(args.config) if args.config else {}
    _check_unit_gravity(args.config, values.get("g", 1))
    unknown = sorted(values.keys() - SETTINGS.keys() - {"config", "g"})
    if unknown:
        raise ConfigError(f"{args.config}: no command has the setting {', '.join(unknown).replace('_', '-')}")
    if "resume" in values and command not in SETTINGS["resume"].defaults:
        raise ConfigError(f"{args.config}: {command} has no --resume; only branch continues a prior branch")
    merged = {}
    for key, (defaults, _, kind, parse, least) in SETTINGS.items():
        if command not in defaults:
            continue
        for source, value in ((args.config, values.get(key)), ("command line", getattr(args, key))):
            if value is None:
                continue
            try:
                value = kind(value)
                if parse is not None:
                    parse(value)
            except ValueError as exc:
                raise ConfigError(f"{source}: bad value {value!r} for {key}: {exc}") from exc
            if least is not None and value < least:
                raise ConfigError(f"{source}: {key} must be at least {least}, got {value}")
            merged[key] = value
        if key not in merged and defaults[command] is not None:
            merged[key] = defaults[command]
    _check_ranges(command, merged)
    return merged


def _check_unit_gravity(source: str, g) -> None:
    """Reject a gravity g other than 1, which the units of every run fix."""
    try:
        if float(g) == 1.0:
            return
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{source}: gravity is fixed at g = 1, got g = {g}; the problem with gravity g is "
                      "the one at rigidity D/g, with c, q and lambda times sqrt(g) and eta the same")


def _check_ranges(command: str, cfg: dict) -> None:
    """Reject values the commands cannot use, before any computation: the
    rules that `SETTINGS` cannot state for one value alone, those that join
    several settings and those that an overflow of the results would break."""
    # h for every command; D where the command takes a single value,
    # and each value of the D list and grid where it takes several
    params_from(cfg, d_value=None if command in ("collisions", *BRANCH_COMMANDS) else 0.0)
    if command == "dispersion" and 0.0 in setting(cfg, "k_list"):
        raise ConfigError("dispersion is undefined at k = 0")
    if command in ("dispersion", "nls"):
        for key in ("D", "D_grid"):
            for d in setting(cfg, key) if cfg.get(key) else ():
                params = params_from(cfg, d_value=float(d))
                for k in setting(cfg, "k_list") if command == "dispersion" else ():
                    if _overflows(dispersion_derivatives, k, params):
                        raise ConfigError(f"omega, omega' or omega'' overflows at k = {k}, D = {d}")
                if command == "nls" and _overflows(_nls_values, params):
                    raise ConfigError(f"the NLS coefficients overflow at D = {d}")
    if command == "resonance" and not all(2 <= k <= MAX_RESONANT_MODE for k in setting(cfg, "K_list")):
        raise ConfigError(f"K-list modes must lie in [2, {MAX_RESONANT_MODE:.0e}], got {cfg['K_list']!r}")
    if command in BRANCH_COMMANDS:
        solver_config_from(cfg)
        if not 0 < cfg["a1_max"] < math.inf:
            raise ConfigError(f"a1-max must be positive and finite, got {cfg['a1_max']}")
        if _overflows(_nls_values, params_from(cfg)):  # save_branch writes them in deep water
            raise ConfigError(f"the NLS coefficients overflow at D = {cfg['D']}")
    if cfg.get("c") is not None and not math.isfinite(cfg["c"]):
        raise ConfigError(f"c must be finite, got {cfg['c']}")
    if command == "collisions":
        params, edge = params_from(cfg), cfg["m_range"] + 0.5  # the scan's largest |mu + m|
        if _overflows(flat_eigenvalues, edge, 0, _collision_speed(cfg, params), params):
            raise ConfigError(f"the flat-water eigenvalues overflow at |mu + m| = {edge}, D = {cfg['D']}")
    if cfg.get("a1_list") and not all(0 < t <= cfg["a1_max"] for t in setting(cfg, "a1_list")):
        raise ConfigError(f"a1-list values must lie in (0, a1-max = {cfg['a1_max']}], got {cfg['a1_list']!r}")
    if cfg.get("resume"):
        try:
            prior = load_branch(cfg["resume"])
        except (OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"cannot resume from {cfg['resume']}: {exc}") from exc
        if prior.model not in setting(cfg, "model"):
            raise ConfigError(
                f"--model {cfg['model']} does not include the {prior.model.value} model of {cfg['resume']}"
            )
        if not cfg["a1_max"] > prior.points[-1].a1:
            raise ConfigError(f"a1-max {cfg['a1_max']} does not exceed the last a1 of {cfg['resume']}")


def _overflows(compute, *args) -> bool:
    """Whether compute(*args) overflows or gives a number that is not finite;
    a NumericalFailure (a Wilton pole, finite depth) is the command's to report."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return not np.all(np.isfinite(compute(*args)))
    except OverflowError:
        return True
    except NumericalFailure:
        return False


def _nls_values(params: PhysicalParams) -> list[float]:
    return [v for model in IceModel for v in asdict(nls_coefficients(model, params)).values()]


def _collision_speed(cfg: dict, params: PhysicalParams) -> float:
    return float(cfg["c"]) if cfg.get("c") is not None else bifurcation_speed(params)


def params_from(cfg: dict, d_value: float | None = None) -> PhysicalParams:
    try:
        h = setting(cfg, "h")
        if d_value is None:
            d_list = setting(cfg, "D")
            if len(d_list) != 1:
                raise ConfigError("this command needs exactly one value of D")
            d_value = d_list[0]
        return PhysicalParams(h=h, D=d_value)
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
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file stands at the path or on it
        raise ConfigError(f"cannot make output directory {path}: {exc}") from exc
    if not os.access(path, os.W_OK):
        raise ConfigError(f"output directory {path} is not writable")
    return path


# ---------------------------------------------------------------- commands


def cmd_dispersion(cfg: dict, out: Path) -> None:
    ks = setting(cfg, "k_list")
    d_values = setting(cfg, "D")
    rows = []
    for d in d_values:
        params = params_from(cfg, d_value=d)
        for k in ks:
            rows.append((k, d, *dispersion_derivatives(k, params)))
    write_csv(out / "dispersion.csv", ["k", "D", "omega", "omega_p", "omega_pp"], rows)
    write_sidecar(out / "dispersion.meta.json", cfg)


def cmd_nls(cfg: dict, out: Path) -> None:
    d_values = setting(cfg, "D_grid") if cfg.get("D_grid") else setting(cfg, "D")
    rows = []
    for d in d_values:
        params = params_from(cfg, d_value=float(d))
        try:
            lin = nls_coefficients(IceModel.LINEAR_BIHARMONIC, params)
            tol = nls_coefficients(IceModel.NONLINEAR_COSSERAT, params)
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


def cmd_resonance(cfg: dict, out: Path) -> None:
    ks = setting(cfg, "K_list")
    params = params_from(cfg, d_value=0.0)
    rows = []
    for k in ks:
        rows.append((k, params.h, resonant_rigidity(k, params)))
    write_csv(out / "resonance.csv", ["K", "h", "D"], rows)
    write_sidecar(out / "resonance.meta.json", cfg)


def cmd_collisions(cfg: dict, out: Path) -> None:
    params = params_from(cfg)
    c = _collision_speed(cfg, params)
    records = find_collisions(params, c, int(cfg["m_range"]))
    rows = [(r.mu, r.m1, r.s1, r.m2, r.s2, r.lam.real, r.lam.imag) for r in records]
    write_csv(out / "collisions.csv", ["mu", "m1", "s1", "m2", "s2", "re_lambda", "im_lambda"], rows)
    write_sidecar(out / "collisions.meta.json", cfg, {"c": c, "count": len(records)})


def save_branch(out: Path, branch: BifurcationBranch, cfg: dict, solver_cfg: SolverConfig) -> None:
    """The branch CSV, its sidecar with each point's Newton record, and in
    deep water the NLS speed of each point.  Infinite depth is written as
    "inf", so the sidecar is strict JSON."""
    tag = branch.model.value
    n_max = max((w.n_modes for w in branch.points), default=0)
    header = ["c"] + [f"a{j}" for j in range(1, n_max + 1)]
    rows = []
    meta_points = []
    for wave in branch.points:
        coeffs = np.zeros(n_max)
        coeffs[: wave.n_modes] = wave.coeffs
        rows.append((wave.c, *coeffs))
        meta_points.append(
            {"a1": wave.a1, "c": wave.c, "n_modes": wave.n_modes,
             "residual_inf": wave.residual_inf, "newton_steps": wave.newton_steps}
        )
    write_csv(out / f"branch_{tag}.csv", header, rows)
    extra = {
        "params": {"h": "inf" if branch.params.infinite_depth else branch.params.h, "D": branch.params.D},
        "model": branch.model.value,
        "solver": asdict(solver_cfg),
        "points": meta_points,
    }
    if len(branch.points) >= 3:
        extra["direction"] = branch_direction(branch).value
    write_sidecar(out / f"branch_{tag}.meta.json", cfg, extra)

    if branch.params.infinite_depth:
        try:
            coeffs = nls_coefficients(branch.model, branch.params)
            nls_rows = [(wave.a1, c_nls(wave.a1 / 2.0, coeffs)) for wave in branch.points]
            write_csv(out / f"branch_nls_{tag}.csv", ["a1", "c_nls"], nls_rows)
        except WiltonPole:
            pass


def load_branch(csv_path: str | Path) -> BifurcationBranch:
    """Reload a persisted branch; params, model and each point's mode count
    and Newton record come from the sidecar.  A branch with no point, or
    one whose sidecar records a gravity other than 1, raises ValueError."""
    csv_path = Path(csv_path)
    meta_path = csv_path.parent / (csv_path.stem + ".meta.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    _check_unit_gravity(str(meta_path), meta["params"].get("g", 1))  # a ConfigError is a ValueError
    if not meta["points"]:
        raise ValueError(f"{meta_path} records a branch with no point")
    params = PhysicalParams(h=float(meta["params"]["h"]), D=float(meta["params"]["D"]))
    model = IceModel(meta["model"])
    data = np.genfromtxt(csv_path, delimiter=",", skip_header=1, ndmin=2)
    points = []
    for row, record in zip(data, meta["points"], strict=True):
        points.append(
            TravelingWave(coeffs=row[1 : 1 + record["n_modes"]], c=float(row[0]), params=params, model=model,
                          residual_inf=record["residual_inf"], newton_steps=record.get("newton_steps"))
        )
    return BifurcationBranch(params=params, model=model, points=points)


def _saved_branches(cfg: dict, out: Path):
    """Continue, save and yield the branch of each model `--model` selects.

    With `resume` (branch only), whose branch `_check_ranges` has checked,
    only the prior branch's model is continued, and its points head the
    continued branch.  A branch that stalls at a fold is saved as far as it
    got before StepUnderflow propagates.
    """
    models = setting(cfg, "model")
    prior_points, start = [], None
    if cfg.get("resume"):
        prior = load_branch(cfg["resume"])  # checked by _check_ranges
        models, prior_points, start = [prior.model], prior.points, prior.points[-1]
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


def cmd_branch(cfg: dict, out: Path) -> None:
    for _ in _saved_branches(cfg, out):
        pass  # each branch is saved as it is computed


def _select_waves(branch: BifurcationBranch, cfg: dict) -> list[tuple[TravelingWave, list[int]]]:
    """The branch point nearest each `a1-list` target (default: the last
    point), each point once, with the indices of the targets that pick it."""
    if not cfg.get("a1_list"):
        return [(branch.points[-1], [0])]
    picks: dict[int, list[int]] = {}
    for idx, target in enumerate(setting(cfg, "a1_list")):
        nearest = min(range(len(branch.points)), key=lambda i: abs(branch.points[i].a1 - target))
        picks.setdefault(nearest, []).append(idx)
    return [(branch.points[i], indices) for i, indices in picks.items()]


def _floquet_runs(cfg: dict, out: Path, overlay: dict[IceModel, NlsCoefficients] | None) -> None:
    """Per model: compute and save the branch, sweep each selected wave once
    over `mu-count` uniform exponents in [-1/2, 1/2), write its spectrum and
    its report: the fields of `stability.InstabilityReport` and the sweep's.
    Given the NLS coefficients of each model, also write each wave's overlay
    curve under `compare`'s file names, in (mu, Re lambda, Im lambda) rows
    like the spectrum's but at `mu-count` points on its own band [-edge,
    edge], so an overlay point meets the FFH data only by interpolation in
    mu.  A wave that several `a1-list` targets pick has its files and report
    written under each of their indices."""
    mu_count = int(cfg["mu_count"])
    mu_values = np.linspace(-0.5, 0.5, mu_count, endpoint=False)
    spectrum_tag, meta_tag = ("spectrum", "stability") if overlay is None else ("compare_ffh", "compare")
    header = ["mu", "re_lambda", "im_lambda"]
    for branch in _saved_branches(cfg, out):
        model = branch.model
        reports = {}
        for wave, indices in _select_waves(branch, cfg):
            spectrum = sweep_floquet(wave, mu_values, n_modes=cfg.get("floquet_modes"))
            mus, lams = spectrum.flattened()
            rows = np.column_stack([mus, lams.real, lams.imag])
            record = {
                "a1": wave.a1,
                **asdict(classify(spectrum)),
                "failed_mu": [mu for mu, _ in spectrum.failures],
                "max_cond_c": spectrum.max_cond_c,
                "cond_c_mu": spectrum.cond_c_mu,
            }
            if overlay is not None:
                curve = nls_overlay(overlay[model], wave.a1 / 2.0, wave.c, mu_grid=mu_count)
            for idx in indices:
                write_csv(out / f"{spectrum_tag}_{model.value}_{idx}.csv", header, rows)
                reports[idx] = record
                if overlay is not None:
                    write_csv(out / f"compare_nls_{model.value}_{idx}.csv", header, curve)
        ordered = [reports[idx] for idx in sorted(reports)]
        write_sidecar(out / f"{meta_tag}_{model.value}.meta.json", cfg, {"reports": ordered})


def cmd_stability(cfg: dict, out: Path) -> None:
    _floquet_runs(cfg, out, overlay=None)


def cmd_compare(cfg: dict, out: Path) -> None:
    params = params_from(cfg)
    models = setting(cfg, "model")
    _floquet_runs(cfg, out, overlay={model: nls_coefficients(model, params) for model in models})


COMMANDS = {
    "dispersion": cmd_dispersion,
    "nls": cmd_nls,
    "resonance": cmd_resonance,
    "collisions": cmd_collisions,
    "branch": cmd_branch,
    "stability": cmd_stability,
    "compare": cmd_compare,
}


#: The commands that read a setting, with its default in each (None: unset
#: unless given); its flag's help and type; the parser of its text; and its
#: least allowed value.
Setting = namedtuple("Setting", "defaults help type parse least", defaults=(str, None, None))


#: Every setting: `build_parser` makes the flags from it, and `merge_config`
#: takes the defaults and checks each value alone.
SETTINGS = {
    "h": Setting(dict.fromkeys(COMMANDS, "inf"), "fluid depth, or 'inf'", parse=parse_depth),
    "out": Setting(dict.fromkeys(COMMANDS, "flexwave-out"), "output directory"),
    "D": Setting({c: "0" for c in COMMANDS if c != "resonance"} | {"nls": "0 0.12 25"},
                 "flexural rigidity; a list where meaningful", parse=parse_float_list),
    "model": Setting(dict.fromkeys(BRANCH_COMMANDS, "both"), "linear, nonlinear or both", parse=parse_model),
    "modes": Setting(dict.fromkeys(BRANCH_COMMANDS), f"initial mode count N (default {SolverConfig.n_modes})", int),
    "max_modes": Setting(dict.fromkeys(BRANCH_COMMANDS),
                         f"cap for mode doubling (default {SolverConfig.max_modes}, or N if larger)", int),
    "a1_max": Setting(dict.fromkeys(BRANCH_COMMANDS, 0.01), "target first-mode amplitude", float),
    "a1_step": Setting(dict.fromkeys(BRANCH_COMMANDS),
                       f"continuation step in a1 (default {SolverConfig.amplitude_step})", float),
    "mu_count": Setting(dict.fromkeys(FLOQUET_COMMANDS, 401), "Floquet exponents in a sweep", int, least=2),
    "a1_list": Setting(dict.fromkeys(FLOQUET_COMMANDS), "amplitudes to analyze, each in (0, a1-max] "
                       "(default: the branch's last point)", parse=parse_float_list),
    "floquet_modes": Setting(dict.fromkeys(FLOQUET_COMMANDS), "Floquet truncation n, modes -n..n "
                             "(default: the wave's N, at least 16)", int, least=1),
    "k_list": Setting({"dispersion": "1"}, "wavenumbers", parse=parse_float_list),
    "D_grid": Setting({"nls": None}, "min max count; overrides --D (default: none)", parse=parse_d_grid),
    "K_list": Setting({"resonance": "7 10"}, "resonant modes K", parse=parse_int_list),
    "c": Setting({"collisions": None}, "frame speed (default: bifurcation speed)", float),
    "m_range": Setting({"collisions": 10}, "largest Fourier mode |m|", int, least=0),
    "resume": Setting({"branch": None}, "prior branch CSV to continue from; its sidecar sets the model, h and D "
                      "(default: none)"),
}


def write_error_record(out: Path, exc: Exception) -> None:
    try:
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
        cfg = merge_config(args)  # raises only ConfigError, as out_dir does, so out is set below
        out = out_dir(cfg)
        COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"flexwave: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"flexwave: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        write_error_record(out, exc)
        return 3
    return 0


def run_and_exit() -> NoReturn:
    """Entry point of the `flexwave` command and of ``python -m flexwave.cli``:
    runs :func:`main` and exits with its code.  `gc.freeze` first moves every
    tracked object (some 22k with numpy loaded) to the permanent generation,
    which the interpreter's final GC passes skip; atexit handlers still run
    and buffered streams still flush."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run_and_exit()
