"""One unit of a workload in a fresh process; prints one JSON summary line.

    python3 perfbench/unit.py WORKLOAD SIZE SEED MODE [BATCHES]

MODE is ``setup`` (import charprod and build the inputs, nothing else),
``run`` (set up, then make the timed calls) or ``trace`` (the same with
the span wrappers installed after set-up).  ``run.py`` starts this
script once per unit, so ``peak_rss_mb`` is this process's own
high-water mark, read as soon as the timed calls return (before the gate
parses their output).

The host's speed drifts by tens of percent within a minute, so every
time is reported at a fixed reference speed as well as raw: a speed
probe (a fixed chunk of pure-Python work, REF_PROBE_S long at the
reference speed) runs after set-up, every PROBE_INTERVAL_S during the
timed calls and after them.  Probe time is left out of every measured
interval, and each interval is scaled by the speed the probes around it
saw.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import tracemalloc

REF_PROBE_S = 0.0075        # one probe's duration at the reference speed
PROBE_INTERVAL_S = 0.2      # wall time between probes during the timed calls
PROBES_AROUND = 5           # probes run back to back before and after them
_PROBE_BUF = bytearray(1 << 22)


def probe() -> float:
    """Duration of one fixed chunk: arithmetic, random reads over 4 MiB,
    and small allocations.  It allocates no objects the garbage collector
    tracks (no lists, tuples or dicts holding them), so it never triggers
    a collection and never pays the measured code's collection debt."""
    t0 = time.perf_counter()
    acc, idx = 0, 12345
    for i in range(40_000):
        acc += i * i % 7
    for _ in range(15_000):
        idx = (idx * 1103515245 + 12345) & 0x3FFFFF
        acc += _PROBE_BUF[idx]
    table = {}
    for i in range(2_000):
        table[(i * 7919) % 2003] = str(i)
    max(table)
    return time.perf_counter() - t0


class SpeedSampler:
    """Speed probes on a clock that stops while a probe runs.

    Inside ``with sampler:`` a probe runs on SIGALRM every
    PROBE_INTERVAL_S.  ``marks`` holds (clock position, speed factor)
    per probe, the factor being REF_PROBE_S over the probe's duration.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []
        self._probed = 0.0
        self._busy = False

    def _probe(self, *_):
        # a signal that lands inside a probe is dropped, and so is one that
        # lands while the tracer has tracemalloc on (it would slow the probe)
        if self._busy or tracemalloc.is_tracing():
            return
        self._busy = True
        position = time.perf_counter() - self._probed
        d = probe()
        self.marks.append((position, REF_PROBE_S / d))
        self._probed += d
        self._busy = False

    def around(self) -> None:
        for _ in range(PROBES_AROUND):
            self._probe()

    def clock(self) -> float:
        """``perf_counter`` minus the time spent probing."""
        while True:
            probed = self._probed
            now = time.perf_counter()
            if self._probed == probed:
                return now - probed

    def ref_time(self, a: float, b: float) -> float:
        """Clock interval [a, b] at the reference speed: between two
        probes the speed is the mean of their factors, beyond the first
        or last probe it is that probe's factor."""
        (first, s_first), (last, s_last) = self.marks[0], self.marks[-1]
        total = (max(0.0, min(b, first) - a) * s_first
                 + max(0.0, b - max(a, last)) * s_last)
        for (p0, s0), (p1, s1) in zip(self.marks, self.marks[1:]):
            overlap = min(b, p1) - max(a, p0)
            if overlap > 0:
                total += overlap * (s0 + s1) / 2
        return total

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class _Sink(list):
    """``run_verify`` output stream that keeps the text it is given."""

    write = list.append


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    workload, size, seed, mode = argv[0], argv[1], int(argv[2]), argv[3]
    batches = int(argv[4]) if len(argv) > 4 else 1

    import workloads as W

    sys.path.insert(0, str(W.SRC))
    import charprod  # noqa: F401  (set-up includes the package import)
    from charprod import cli, sweeps

    wl = W.WORKLOADS[size][workload]
    ref = W.load_reference()
    if wl.is_eval:
        pool = ref["eval"][size]
        calls = W.eval_batch(wl, pool, seed, batches)
        fields = list(wl.eval_fields)
    else:
        configs = [sweeps.SweepConfig(q_min=lo, q_max=hi, max_degree=3,
                                      suites=wl.suites, workers=1)
                   for lo, hi in wl.ranges]
        fields = [(p, n) for c in configs
                  for _, p, n in sweeps.prime_powers(c.q_min, c.q_max, c.max_degree)]
    raw_setup_s = time.perf_counter() - t0
    sampler = SpeedSampler()
    sampler.around()
    out = {"raw_setup_s": raw_setup_s,
           "setup_s": raw_setup_s * statistics.mean(s for _, s in sampler.marks)}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer(clock=sampler.clock).install()

    clock = sampler.clock
    if wl.is_eval:
        results, intervals = [], []
        with sampler:
            start = clock()
            for p, n, spec in calls:
                buf = io.StringIO()
                t = clock()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(["eval", spec, "--p", str(p), "--n", str(n), "--json"])
                intervals.append((t, clock()))
                text = buf.getvalue().strip()
                results.append({"key": W.eval_key(p, n, spec), "rc": rc,
                                "row": json.loads(text) if text.startswith("{") else None})
            end = clock()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sampler.around()
        attempted = len(results)
        mismatched = sum(1 for r in results
                         if r["row"] is None or r["row"].get("match") is not True)
        pool_ref = {W.eval_key(e["p"], e["n"], e["spec"]): e["sha256"] for e in pool}
        problems = W.gate_eval(results, pool_ref)
    else:
        sink, codes, intervals = _Sink(), [], []
        with sampler:
            start = clock()
            for config in configs:
                t = clock()
                codes.append(sweeps.run_verify(config, sink))
                intervals.append((t, clock()))
            end = clock()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sampler.around()
        rows = [json.loads(line) for line in "".join(sink).splitlines()]
        checks = W.check_rows(rows)
        attempted = len(checks)
        mismatched = sum(1 for r in checks if r["ok"] is not True)
        problems = W.gate_verify(rows, ref["verify"][size][workload])
        if any(codes):
            problems.append(f"run_verify exit codes {codes}")

    wall_s = sampler.ref_time(start, end)
    out.update(wall_s=wall_s, raw_wall_s=end - start,
               latencies=[sampler.ref_time(a, b) for a, b in intervals],
               probes=len(sampler.marks))
    if tracer is not None:
        tracer.uninstall()
        speed = wall_s / (end - start)
        out["spans"] = {name: value * speed if name.endswith((".s", ".self_s")) else value
                        for name, value in tracer.metrics().items()}

    import numpy
    from charprod.ffield import find_modulus

    out.update(
        attempted=attempted, mismatched=mismatched, problems=problems,
        peak_rss_mb=rss_kb / 1024, numpy=numpy.__version__,
        fields=[{"p": p, "n": n, "modulus": list(find_modulus(p, n))}
                for p, n in fields])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
