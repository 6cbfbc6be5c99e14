"""charprod benchmark: one workload, gated for correctness, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Every unit of work runs in a fresh ``unit.py`` process, so one unit's
field tables never inflate the next unit's memory figure.

``--trace 0`` measures the end-to-end metrics: a few set-up-only
processes, then as many units as fit ``--seconds`` (at least one; the
eval workload makes at least 40 calls).  ``--trace 1`` runs one plain
unit and one unit with span wrappers, and reports the per-layer metrics
plus the ratio of the two wall times.

Each unit's output goes through the correctness gate (zero mismatches,
row count and row digest equal to ``reference.json``).  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give the environment and the sample counts.  The exit code is
0 only if every unit ran and passed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads as W
from spans import SPAN_NAMES

SETUP_PROBES = 3
RUN_BUDGET_S = 170          # every child is killed before this much time has passed

END_TO_END = {
    "wall_s": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "match_frac": "frac",
    "call_p50_s": "s",
    "call_p75_s": "s",
}
PER_LAYER = {
    **{f"{name}.{stat}": unit for name in SPAN_NAMES
       for stat, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    "ffield.tables.peak_mb": "MB",
    "closedform.prod_T_values.calls_per_check": "ratio",
    "trace_overhead": "ratio",
}


class UnitFailed(RuntimeError):
    pass


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = W.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _unit(deadline: float, *args) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise UnitFailed("run budget exhausted")
    cmd = [sys.executable, str(W.HERE / "unit.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=W.ROOT)
    except subprocess.TimeoutExpired:
        raise UnitFailed(f"{' '.join(map(str, args))}: timed out") from None
    if proc.returncode != 0:
        raise UnitFailed(f"{' '.join(map(str, args))}: exit {proc.returncode}\n"
                         + proc.stderr[-2000:])
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise UnitFailed(f"{' '.join(map(str, args))}: no summary line") from None


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) == 1:
        return xs[0], xs[0]
    _, p50, p75 = statistics.quantiles(xs, n=4, method="inclusive")
    return p50, p75


def _expected_rows(wl: W.Workload, size: str, seconds: int) -> int:
    """Rows one unit should produce: all of them fail if a unit breaks."""
    if wl.is_eval:
        return W.eval_batches(wl, seconds) * W.eval_batch_size(wl)
    return W.load_reference()["verify"][size][wl.name]["rows"]


def measure(wl: W.Workload, size: str, seed: int, seconds: int, trace: bool,
            deadline: float) -> tuple[dict, list[dict], dict]:
    """(metrics, unit summaries, sample counts) for one run."""
    if wl.is_eval:
        batches, units = W.eval_batches(wl, seconds), 1
    else:
        batches, units = 1, max(1, int(seconds // wl.nominal_s))
    if trace:
        base = _unit(deadline, wl.name, size, seed, "run", batches)
        traced = _unit(deadline, wl.name, size, seed, "trace", batches)
        metrics = dict(traced["spans"], trace_overhead=traced["wall_s"] / base["wall_s"])
        return metrics, [base, traced], {"units": 2, "raw_wall_s": [base["raw_wall_s"],
                                                                     traced["raw_wall_s"]]}
    probes = [_unit(deadline, wl.name, size, seed, "setup") for _ in range(SETUP_PROBES)]
    runs = [_unit(deadline, wl.name, size, seed, "run", batches) for _ in range(units)]
    attempted = sum(r["attempted"] for r in runs)
    mismatched = sum(r["mismatched"] for r in runs)
    p50, p75 = _quartiles([x for r in runs for x in r["latencies"]])
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "checks_per_s": statistics.median(r["attempted"] / r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(u["setup_s"] for u in probes + runs),
        "match_frac": 1 - mismatched / attempted,
        "call_p50_s": p50,
        "call_p75_s": p75,
    }
    samples = {"units": units, "setup_samples": len(probes) + len(runs),
               "call_samples": sum(len(r["latencies"]) for r in runs),
               "checks_per_unit": runs[0]["attempted"],
               "mismatch_frac": mismatched / attempted,
               "raw_wall_s": statistics.median(r["raw_wall_s"] for r in runs),
               "raw_setup_s": statistics.median(u["raw_setup_s"] for u in probes + runs)}
    return metrics, runs, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="charprod benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (W.SRC / "charprod" / "__init__.py").is_file():
        print(f"error: charprod sources not found under {W.SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    wl = W.WORKLOADS[args.size][args.workload]
    trace = bool(args.trace)
    try:
        metrics, units, samples = measure(wl, args.size, args.seed, args.seconds,
                                          trace, deadline)
    except UnitFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        rows = _expected_rows(wl, args.size, args.seconds)
        print(json.dumps({"correct": False, "attempted": rows, "failed": rows,
                          "metrics": {}}))
        return 1

    problems = [p for u in units for p in u["problems"]]
    attempted = sum(u["attempted"] for u in units)
    failed = attempted if problems else sum(u["mismatched"] for u in units)
    units_spec = PER_LAYER if trace else END_TO_END
    env = {
        "workload": wl.name, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": units[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)), "commit": _git_commit(),
        "fields": units[0]["fields"], **samples,
    }
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    print("env " + json.dumps(env))
    for name, unit in units_spec.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units_spec.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
