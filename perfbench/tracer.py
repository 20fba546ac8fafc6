"""Per-layer trace of one `flexwave` CLI invocation, run in a child process.

    python3 perfbench/tracer.py OUT.json -- <flexwave argv...>

Imports flexwave from the checkout (`PYTHONPATH` is set by `run.py`), wraps
every public function of the layer modules in a `perf_counter` span, calls
`flexwave.cli.main(argv)` in this process and writes the aggregated spans to
OUT.json.  Each wrapper replaces the function under every name that binds it
in any flexwave module, so `cli.sweep_floquet` and the `grid_derivative`
imported into `solver` and `stability` are timed too.

The wrappers sit outside the program: a change that inlines or renames one of
these functions moves its time into the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "solver", "stability", "core", "theory")


class Tracer:
    """Span stack and per-function aggregates (calls, inclusive and self time)."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time]
        self.stats: dict[str, dict] = {}
        self.top_level_s = 0.0
        self.counters: dict[str, float] = {}
        #: Hooks that failed, e.g. because a later commit changed a return type.
        self.hook_errors: dict[str, str] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            self.stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = time.perf_counter() - frame[1]
                self.stack.pop()
                entry = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0})
                entry["calls"] += 1
                entry["total_s"] += elapsed
                entry["self_s"] += elapsed - frame[2]
                entry["failed"] += 0 if ok else 1
                if self.stack:
                    self.stack[-1][2] += elapsed
                else:
                    self.top_level_s += elapsed
                if ok and after is not None:
                    try:
                        after(self, args, kwargs, result)
                    except Exception as exc:  # a counter must never break the traced program
                        self.hook_errors[name] = repr(exc)

        traced.__wrapped_by_tracer__ = True
        return traced


# ----------------------------------------------------------- extra counters
# Each hook runs after its span has closed; its cost lands in the parent's
# self time only.


def _after_residual(tracer, args, kwargs, result):
    if tracer.in_span("solver.newton_solve"):
        tracer.count("residual_in_newton")


def _after_continue_branch(tracer, args, kwargs, result):
    tracer.count("branch_points", len(result.points))


def _after_solve_spectrum(tracer, args, kwargs, result):
    dim = int(args[0].shape[0])
    tracer.counters["qz_dim"] = max(tracer.counters.get("qz_dim", 0), dim)
    tracer.count("qz_computed_bytes", 2 * dim * dim * 16)


def _after_sweep_floquet(tracer, args, kwargs, result):
    tracer.count("sweep_mu", len(result.mu_values))
    tracer.count("sweep_failed_mu", len(result.failures))


def _after_classify(tracer, args, kwargs, result):
    default = getattr(sys.modules["flexwave.stability"], "GROWTH_THRESHOLD", 1e-8)
    threshold = kwargs.get("threshold", args[1] if len(args) > 1 else default)
    spectrum = args[0] if args else kwargs["spectrum"]
    tracer.count("unstable_points", sum(int((lams.real > threshold).sum()) for lams in spectrum.eigenvalues))


def _after_write_csv(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("csv_bytes", os.path.getsize(path))


HOOKS = {
    "solver.residual": _after_residual,
    "solver.continue_branch": _after_continue_branch,
    "stability.solve_spectrum": _after_solve_spectrum,
    "stability.sweep_floquet": _after_sweep_floquet,
    "stability.classify": _after_classify,
    "cli.write_csv": _after_write_csv,
}

#: Entry point; its wall time is the traced wall, so it is not a span.
UNWRAPPED = {"cli.main"}


def install(tracer: Tracer) -> list[str]:
    """Wrap the public functions of every layer module; return their span names."""
    modules = {name: importlib.import_module(f"flexwave.{name}") for name in LAYERS}
    flexwave_modules = [m for key, m in sys.modules.items() if key == "flexwave" or key.startswith("flexwave.")]
    wrapped = []
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in UNWRAPPED:
                continue
            wrapper = tracer.wrap(name, fn, HOOKS.get(name))
            for other in flexwave_modules:
                for other_attr, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, other_attr, wrapper)
            wrapped.append(name)
    return sorted(wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- <flexwave argv...>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    import flexwave.cli

    tracer = Tracer()
    wrapped = install(tracer)
    t1 = time.perf_counter()
    code = flexwave.cli.main(cli_argv)
    main_s = time.perf_counter() - t1
    payload = {
        "main_s": main_s,
        "top_level_s": tracer.top_level_s,
        "wrapped": wrapped,
        "stats": tracer.stats,
        "counters": tracer.counters,
        "hook_errors": tracer.hook_errors,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
