"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/seeds.py --seeds 1-10 [--workload NAME ...] [--trace 0|1] [--out FILE]

Runs `run.py` once per (workload, seed), one at a time, and reports for each
metric the median, the quartiles (`statistics.quantiles(n=4)`) and the spread
(Q3 - Q1) / median, which for an end-to-end metric should stay below a
third of its bound in BENCHMARK.json.  `--out` writes JSON Lines: a header
(machine record and the summary of every workload), then one line per run
with its inputs, result and per-invocation samples.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    record = json.loads((ROOT / ".perfbench_work" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return record


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": None}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def columns(invocations: list[dict]) -> dict[str, list]:
    """Per-invocation samples as one list per field."""
    return {key: [inv[key] for inv in invocations] for key in invocations[0]}


def write_jsonl(report: dict, path: Path) -> None:
    runs = [run for w in report["workloads"].values() for run in w.pop("runs")]
    lines = [json.dumps(report, sort_keys=True)] + [json.dumps(run, sort_keys=True) for run in runs]
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", help="repeatable; default every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"run_seconds": SPEC["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in workloads:
        records = [run_once(workload, seed, args.trace) for seed in parse_seeds(args.seeds)]
        results = [r["result"] for r in records]
        names = list(results[0]["metrics"])
        summary = {name: summarise([r["metrics"][name]["value"] for r in results]) for name in names}
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "summary": summary,
            "runs": [{"workload": workload, "seed": r["machine"]["seed"], "inputs": r["inputs"],
                      "result": r["result"], "invocations": columns(r["invocations"])} for r in records],
        }
        # The import path names the checkout, which says nothing about the machine.
        report["machine"] = {k: v for k, v in records[0]["machine"].items() if k not in ("seed", "flexwave_file")}
        print(f"{workload}: correct={report['workloads'][workload]['correct']} "
              f"failed={report['workloads'][workload]['failed']}/{report['workloads'][workload]['attempted']}")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] is None else (
                "  ok" if s["spread"] < bound / 3 else "  WIDE" if s["spread"] >= bound else "  >bound/3")
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:45s} median={s['median']:.6g} spread={spread}{flag}")
    if args.out:
        write_jsonl(report, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
