"""Regenerate ``reference.json``, the committed outputs the gate compares to.

    python3 perfbench/make_reference.py [--size full|tiny]

For each verify workload it records the number of check rows and their
digest; for the eval workload it draws a fixed pool of random specs per
(field, kind) and records the digest of each spec's ``--json`` row.  It
refuses to record a mismatching row.  Run it only when charprod's output
is meant to change, and review the diff.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys

import workloads as W


def _eval_pool(wl: W.Workload, per_kind: int) -> list[dict]:
    from charprod import cli

    rng = random.Random(f"perfbench-pool:{wl.name}")
    pool = []
    for p, n in wl.eval_fields:
        for kind in W.EVAL_KINDS:
            specs = set()
            while len(specs) < per_kind:
                specs.add(W.random_spec(rng, p, n, kind))
            for spec in sorted(specs):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(["eval", spec, "--p", str(p), "--n", str(n), "--json"])
                row = json.loads(buf.getvalue())
                if rc != 0 or row["match"] is not True:
                    raise SystemExit(f"mismatch for {spec} at {p}^{n}: {row}")
                pool.append({"p": p, "n": n, "spec": spec,
                             "sha256": W.eval_digest(row)})
    return pool


def _verify_ref(wl: W.Workload) -> dict:
    from charprod import sweeps

    class Sink(list):
        write = list.append

    sink = Sink()
    for lo, hi in wl.ranges:
        sweeps.run_verify(sweeps.SweepConfig(q_min=lo, q_max=hi, max_degree=3,
                                             suites=wl.suites, workers=1), sink)
    rows = [json.loads(line) for line in "".join(sink).splitlines()]
    if any(r["ok"] is not True for r in rows):
        raise SystemExit(f"{wl.name}: mismatching rows, not recording a reference")
    return {"rows": len(W.check_rows(rows)), "sha256": W.verify_digest(rows)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), action="append")
    args = parser.parse_args()
    sys.path.insert(0, str(W.SRC))
    ref = W.load_reference() if W.REFERENCE.exists() else {"verify": {}, "eval": {}}
    for size in args.size or ("tiny", "full"):
        ref["verify"][size] = {}
        for name, wl in W.WORKLOADS[size].items():
            if wl.is_eval:
                ref["eval"][size] = _eval_pool(wl, W.POOL_PER_KIND[size])
            else:
                ref["verify"][size][name] = _verify_ref(wl)
            print(f"{size}/{name}: done", file=sys.stderr)
    with open(W.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
