"""flexwave benchmark: the `flexwave` CLI timed end to end, plus a traced
per-layer split.

    python3 perfbench/run.py --workload sweep-toland --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Each invocation is a child process (a closed loop, one invocation at
a time) whose environment has the BLAS/OpenMP thread variables removed, so
the program runs with its own defaults.  The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports
the end-to-end metrics; `--trace 1` alternates untraced invocations with
traced ones (see `tracer.py`) and reports the per-layer metrics.  The full
record, with the machine and environment, is written under
`.perfbench_work/`.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Variables removed from every child's environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FLEXWAVE_THREADS")
PARENT_THREAD_ENV = {k: os.environ[k] for k in THREAD_VARS if k in os.environ}
# The harness itself only reads CSVs; keep its BLAS pool from competing.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

sys.path.insert(0, str(BENCH_DIR))
import gate  # noqa: E402

SETUP_REPEATS = 7
#: Fewest invocations a run makes, untraced and traced (half of them traced).
MIN_INVOCATIONS = 3
MIN_TRACE_INVOCATIONS = 4
#: Seed jitter: D is scaled by 1 +- D_JITTER and every a1 value by 1 +- A1_JITTER.
D_JITTER = 0.03
A1_JITTER = 0.02


@dataclass(frozen=True)
class Workload:
    command: str
    model: str
    D: float
    a1_max: float
    a1_list: tuple[float, ...] = ()
    mu_count: int | None = None
    extra: tuple[str, ...] = ()
    #: Largest Re(lambda) at the nominal inputs (seed 0) on the seed code.
    growth_reference: float | None = None
    needs_modulational: bool = False
    #: Field overrides giving the tiny smoke-mode inputs.
    smoke: dict = field(default_factory=dict)

    @property
    def models(self) -> int:
        return 2 if self.model == "both" else 1

    def argv(self, seed: int, out: Path) -> tuple[list[str], dict]:
        """CLI arguments and the generated inputs; seed 0 gives the nominal inputs."""
        rng = random.Random(seed)
        d_scale = 1.0 + D_JITTER * (2 * rng.random() - 1) if seed else 1.0
        a_scale = 1.0 + A1_JITTER * (2 * rng.random() - 1) if seed else 1.0
        inputs = {"D": float(f"{self.D * d_scale:.6g}"), "a1_max": float(f"{self.a1_max * a_scale:.6g}")}
        argv = [self.command, "--model", self.model, *self.extra,
                "--D", repr(inputs["D"]), "--a1-max", repr(inputs["a1_max"])]
        if self.a1_list:
            inputs["a1_list"] = [float(f"{a * a_scale:.6g}") for a in self.a1_list]
            argv += ["--a1-list", " ".join(repr(a) for a in inputs["a1_list"])]
        if self.mu_count:
            inputs["mu_count"] = self.mu_count
            argv += ["--mu-count", str(self.mu_count)]
        return argv + ["--out", str(out)], inputs


WORKLOADS = {
    "sweep-toland": Workload(
        command="stability",
        model="nonlinear",
        D=0.01,
        a1_max=0.05,
        mu_count=101,
        extra=("--modes", "16"),
        growth_reference=0.001205036130465842,
        needs_modulational=True,
        smoke={"a1_max": 0.01, "mu_count": 5},
    ),
    "branch-climb": Workload(
        command="branch",
        model="both",
        D=0.01,
        a1_max=0.06,
        extra=("--h", "1"),
        smoke={"a1_max": 0.01},
    ),
    "survey-compare": Workload(
        command="compare",
        model="both",
        D=25.0,
        a1_max=0.08,
        a1_list=(0.02, 0.05, 0.08),
        mu_count=21,
        extra=("--modes", "16"),
        growth_reference=0.009974649916398548,
        smoke={"a1_max": 0.01, "a1_list": (0.005, 0.01), "mu_count": 5},
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ops_per_s": "1/s"}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


def require_source() -> None:
    if not (SRC / "flexwave" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no flexwave source under {SRC}; run from the root of a checkout")


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    ops: int
    failed: int
    errors: list[str]
    traced: bool
    max_growth: float | None


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, float, int]:
    """Run one child to completion: (wall s, user+sys s, peak RSS MB, exit code)."""
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def count_ops(workload: Workload, out: Path, inputs: dict) -> int:
    """Operations one invocation attempts: mu solved, or branch points converged."""
    if workload.command == "branch":
        return sum(len(json.loads(p.read_text())["points"]) for p in out.glob("branch_*.meta.json"))
    return workload.models * max(1, len(inputs.get("a1_list", ()))) * inputs["mu_count"]


def invoke(workload: Workload, argv: list[str], inputs: dict, out: Path, trace_json: Path | None) -> Invocation:
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    if trace_json is None:
        cmd = [sys.executable, "-m", "flexwave.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_json), "--", *argv]
    wall, cpu, rss, code = spawn(cmd, WORK, out.with_suffix(".log"))
    ops = max(count_ops(workload, out, inputs), 1)
    growth = gate.max_growth(out) if code == 0 and workload.command != "branch" else None
    if code != 0:
        errors = [f"exit code {code}: {out.with_suffix('.log').read_text()[-500:]}"]
        failed_ops = ops
    else:
        errors, failed_ops = gate.check_outputs(out, workload.growth_reference, workload.needs_modulational)
        if errors:
            failed_ops = ops
    shutil.rmtree(out)
    return Invocation(wall, cpu, rss, code, ops, failed_ops, errors, trace_json is not None, growth)


def measure_setup() -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import flexwave.cli"], cwd=WORK, env=child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return times


PROBE = r"""
import ctypes, json, os, platform, sys
import numpy, scipy, scipy.linalg
import flexwave.cli
def blas(mod):
    info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": info.get("name"), "version": info.get("version"), "config": info.get("openblas configuration")}
threads = {}
for line in open("/proc/self/maps"):
    path = line.split()[-1]
    if "openblas" in path.lower() and path not in threads:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[path] = fn()
                break
print(json.dumps({
    "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
    "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
    "blas_threads": {os.path.basename(k): v for k, v in threads.items()},
    "flexwave_file": flexwave.cli.__file__,
}))
"""


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "flexwave").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def machine_record(seed: int) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=WORK, env=child_env(), capture_output=True, text=True, check=True
    )
    found = json.loads(probe.stdout)
    if not Path(found["flexwave_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: children import flexwave from {found['flexwave_file']}, not {SRC}")
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "child_env_removed": list(THREAD_VARS),
        "parent_thread_env": PARENT_THREAD_ENV,
        **found,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# ------------------------------------------------------------ per-layer


def _stat(payload: dict, name: str, key: str) -> float:
    return payload["stats"].get(name, {}).get(key, 0)


#: (metric, unit, extractor); an extractor reads one tracer payload.
def _layer_metrics() -> list[tuple[str, str, object]]:
    metrics = []

    def calls_self(name):
        metrics.append((f"{name}.calls", "count", lambda p: _stat(p, name, "calls")))
        metrics.append((f"{name}.self_s", "s", lambda p: _stat(p, name, "self_s")))

    def ratio(num, den):
        return num / den if den else 0.0

    calls_self("solver.residual")
    metrics.append(("solver.residual.calls_per_solve", "count",
                    lambda p: ratio(p["counters"].get("residual_in_newton", 0), _stat(p, "solver.newton_solve", "calls"))))
    calls_self("solver.newton_solve")
    metrics.append(("solver.newton_solve.failed", "count", lambda p: _stat(p, "solver.newton_solve", "failed")))
    metrics.append(("solver.newton_solve.ok_ratio", "ratio",
                    lambda p: ratio(_stat(p, "solver.newton_solve", "calls") - _stat(p, "solver.newton_solve", "failed"),
                                    _stat(p, "solver.newton_solve", "calls"))))
    metrics.append(("solver.continue_branch.total_s", "s", lambda p: _stat(p, "solver.continue_branch", "total_s")))
    metrics.append(("solver.continue_branch.points", "count", lambda p: p["counters"].get("branch_points", 0)))
    for name in ("core.p_flex_grid", "core.eval_profile", "core.grid_derivative", "core.qx_on_grid"):
        calls_self(name)
    calls_self("stability.solve_spectrum")
    metrics.append(("stability.solve_spectrum.dim", "rows", lambda p: p["counters"].get("qz_dim", 0)))
    metrics.append(("stability.solve_spectrum.computed_bytes", "B", lambda p: p["counters"].get("qz_computed_bytes", 0)))
    metrics.append(("stability.sweep_floquet.mu", "count", lambda p: p["counters"].get("sweep_mu", 0)))
    metrics.append(("stability.sweep_floquet.total_s", "s", lambda p: _stat(p, "stability.sweep_floquet", "total_s")))
    metrics.append(("stability.sweep_floquet.failed_mu", "count", lambda p: p["counters"].get("sweep_failed_mu", 0)))
    calls_self("stability.assemble_matrices")
    calls_self("stability.linearized_flex")
    metrics.append(("stability.classify.self_s", "s", lambda p: _stat(p, "stability.classify", "self_s")))
    metrics.append(("stability.classify.unstable_points", "count", lambda p: p["counters"].get("unstable_points", 0)))
    metrics.append(("stability.nls_overlay.self_s", "s", lambda p: _stat(p, "stability.nls_overlay", "self_s")))
    metrics.append(("theory.nls_coefficients.self_s", "s", lambda p: _stat(p, "theory.nls_coefficients", "self_s")))
    metrics.append(("cli.write_csv.self_s", "s", lambda p: _stat(p, "cli.write_csv", "self_s")))
    metrics.append(("cli.write_csv.bytes", "B", lambda p: p["counters"].get("csv_bytes", 0)))
    metrics.append(("cli.save_branch.self_s", "s", lambda p: _stat(p, "cli.save_branch", "self_s")))
    metrics.append(("cli.untraced_s", "s", lambda p: p["main_s"] - p["top_level_s"]))
    return metrics


LAYER_METRICS = _layer_metrics()
#: Functions the per-layer metrics name; any not wrapped is reported absent.
NAMED_FUNCTIONS = sorted({m.rsplit(".", 1)[0] for m, _, _ in LAYER_METRICS if m.count(".") == 2})


def layer_metrics(payloads: list[dict], untraced_walls: list[float], traced_walls: list[float]) -> tuple[dict, list[str]]:
    metrics = {}
    for name, unit, extract in LAYER_METRICS:
        metrics[name] = {"value": statistics.median(float(extract(p)) for p in payloads), "unit": unit}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
        "unit": "frac",
    }
    wrapped = set(payloads[0]["wrapped"])
    absent = [name for name in NAMED_FUNCTIONS if name not in wrapped]
    absent += [f"{name} counter ({error})" for name, error in payloads[0]["hook_errors"].items()]
    return metrics, absent


# ------------------------------------------------------------------ main


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    require_source()
    workload = WORKLOADS[workload_name]
    if smoke:
        # Smoke inputs are too small for the nominal-input references.
        workload = replace(workload, growth_reference=None, needs_modulational=False, **workload.smoke)
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{workload_name}-{seed}-{int(trace)}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir()
    argv_out = run_dir / "out"
    argv, inputs = workload.argv(seed, argv_out)
    record = {"workload": workload_name, "argv": argv, "inputs": inputs, "smoke": smoke, "trace": trace, "seconds": seconds,
              "machine": machine_record(seed)}

    setup = [] if trace else measure_setup()
    invocations: list[Invocation] = []
    payloads: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(invocations) % 2 == 1
        trace_json = run_dir / f"trace{len(invocations)}.json" if traced else None
        inv = invoke(workload, argv, inputs, argv_out, trace_json)
        invocations.append(inv)
        if traced and inv.exit_code == 0:
            payloads.append(json.loads(trace_json.read_text()))
        elapsed = time.perf_counter() - start
        typical = statistics.median(i.wall_s for i in invocations)
        enough = len(invocations) >= (MIN_TRACE_INVOCATIONS if trace else MIN_INVOCATIONS)
        if enough and elapsed + typical > seconds:
            break

    plain = [i for i in invocations if not i.traced]
    attempted = sum(i.ops for i in invocations)
    failed = sum(i.failed for i in invocations)
    errors = sorted({e for i in invocations for e in i.errors})
    if trace:
        if not payloads:
            raise SystemExit("perfbench: no traced invocation succeeded: " + "; ".join(errors))
        metrics, absent = layer_metrics(
            payloads, [i.wall_s for i in plain], [i.wall_s for i in invocations if i.traced]
        )
        record["absent_functions"] = absent
    else:
        wall = statistics.median(i.wall_s for i in plain)
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(i.cpu_s for i in plain),
            "peak_rss_mb": statistics.median(i.peak_rss_mb for i in plain),
            "setup_s": statistics.median(setup),
            "ops_per_s": statistics.median(i.ops for i in plain) / wall,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        record["setup_samples_s"] = setup
    record["invocations"] = [vars(i) for i in invocations]
    record["errors"] = errors
    result = {"correct": not errors and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    (WORK / f"result-{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(run_dir)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="input jitter seed; 0 gives the nominal inputs")
    parser.add_argument("--seconds", type=float, default=35.0, help="measurement time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print("inputs: " + json.dumps(record["inputs"], sort_keys=True))
    if record.get("absent_functions"):
        print("absent: " + " ".join(record["absent_functions"]))
    for error in record["errors"]:
        print("check failed: " + error)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
