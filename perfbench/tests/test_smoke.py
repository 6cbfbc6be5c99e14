"""Smoke test of the benchmark itself, at tiny sizes (q <= 31).

    python -m pytest perfbench/tests

Checks that every workload reports every metric of BENCHMARK.json with
its unit, that span counts are exact on a known field, that the gate
rejects corrupted output, and that the benchmark refuses to run without
charprod's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402

sys.path.insert(0, str(W.SRC))

from charprod import charsets, cli, reciprocity, sweeps  # noqa: E402
from charprod.ffield import mk_field  # noqa: E402

SPEC = json.loads((W.ROOT / "BENCHMARK.json").read_text())


def _run(*args, root=W.ROOT):
    return subprocess.run([sys.executable, str(root / BENCH.name / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=root)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer" if trace == "1" else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_span_counts_exact_on_tables_suite():
    q = 13
    tracer = Tracer().install()
    try:
        rows = sweeps.run_field(q, 1, ("tables",))
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert len(rows) == 4 * q                      # q ratios tau, four sign pairs
    assert m["charsets.brute_product.calls"] == 4 * q
    assert m["closedform.prod_T_values.calls"] == 8 * q
    assert m["closedform.prod_T_values.calls_per_check"] == 2.0
    assert m["sweeps.suite_tables.calls"] == 1
    assert m["sweeps.run_field.calls"] == 1
    assert m["ffield.mk_field.calls"] == 1
    # the generator is drained inside the suite span, which holds the scans
    assert m["sweeps.suite_tables.s"] >= m["charsets.brute_product.s"] > 0
    assert m["sweeps.run_field.self_s"] < m["sweeps.run_field.s"]


def test_wrappers_reach_from_imports_and_are_removed():
    originals = (charsets.brute_product, reciprocity.brute_product,
                 sweeps.SUITE_FUNCS["reciprocity"], cli.main)
    ctx = mk_field(23)
    tracer = Tracer().install()
    try:
        rows = list(sweeps.SUITE_FUNCS["reciprocity"](ctx))
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert rows and all(r["ok"] for r in rows)
    assert m["reciprocity.prod_T_quadratic_irrational.calls"] > 0
    # reciprocity binds brute_product by a from-import
    assert m["charsets.brute_product.calls"] == m[
        "reciprocity.prod_T_quadratic_irrational.calls"]
    assert (charsets.brute_product, reciprocity.brute_product,
            sweeps.SUITE_FUNCS["reciprocity"], cli.main) == originals


def _tiny_verify_rows(name):
    wl = W.WORKLOADS["tiny"][name]
    out = io.StringIO()
    for lo, hi in wl.ranges:
        sweeps.run_verify(sweeps.SweepConfig(q_min=lo, q_max=hi, max_degree=3,
                                             suites=wl.suites), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


def test_gate_rejects_corrupted_verify_report():
    ref = W.load_reference()["verify"]["tiny"]["large-field"]
    rows = _tiny_verify_rows("large-field")
    assert W.gate_verify(rows, ref) == []
    # extra non-check rows (a header, a summary) leave the gate alone
    assert W.gate_verify([{"header": 1}] + rows + [{"summary": 1}], ref) == []
    wrong_value = [dict(r) for r in rows]
    wrong_value[5]["actual"] = wrong_value[5]["expected"] = "7"
    assert W.gate_verify(wrong_value, ref)
    dropped = rows[:-1]
    assert any("check rows" in p for p in W.gate_verify(dropped, ref))
    failing = [dict(r) for r in rows]
    failing[0]["ok"] = False
    assert any("ok=false" in p for p in W.gate_verify(failing, ref))


def test_gate_rejects_corrupted_eval_row():
    pool = W.load_reference()["eval"]["tiny"]
    entry = pool[0]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["eval", entry["spec"], "--p", str(entry["p"]),
                       "--n", str(entry["n"]), "--json"])
    row = json.loads(buf.getvalue())
    key = W.eval_key(entry["p"], entry["n"], entry["spec"])
    ref = {key: entry["sha256"]}
    assert W.gate_eval([{"key": key, "rc": rc, "row": row}], ref) == []
    bad = dict(row, cardinality=row["cardinality"] + 1)
    assert W.gate_eval([{"key": key, "rc": 0, "row": bad}], ref)
    assert W.gate_eval([{"key": key, "rc": 1, "row": dict(row, match=False)}], ref)


def test_eval_batch_is_seeded_and_stratified():
    wl = W.WORKLOADS["full"]["eval-beyond-tables"]
    pool = W.load_reference()["eval"]["full"]
    a, b = W.eval_batch(wl, pool, 7), W.eval_batch(wl, pool, 8)
    assert a == W.eval_batch(wl, pool, 7) and a != b
    assert len(a) == W.EVAL_MIN_CALLS
    for p, n in wl.eval_fields:
        for kind in W.EVAL_KINDS:
            assert sum(1 for c in a if c[:2] == (p, n)
                       and c[2].split()[0] == kind) == wl.per_kind


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
