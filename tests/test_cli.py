import concurrent.futures
import io
import json

import pytest

from charprod import charsets, ffield, sweeps
from charprod.charsets import SignPair, parse_family
from charprod.cli import main
from charprod.ffield import IdentityFailure, mk_field
from charprod.sweeps import render_table
from helpers import field, prime_power, run_python, sampled_faults


def test_eval_t13(capsys):
    assert main(["eval", "T 1 3 --", "--p", "13"]) == 0
    out = capsys.readouterr().out
    assert "closed: 2" in out and "brute:  2" in out and "match: true" in out


def test_eval_s1(capsys):
    assert main(["eval", "S1 0 +", "--p", "13"]) == 0
    out = capsys.readouterr().out
    assert "closed: 12" in out


def test_eval_t22(capsys):
    assert main(["eval", "T 2 2 -+", "--p", "5"]) == 0
    out = capsys.readouterr().out
    assert "closed: 4" in out and "cardinality: 1" in out


def test_eval_negative_param_and_a_kind(capsys):
    # S_{-4,0}^{--} = 2 when q = 1 mod 4
    assert main(["eval", "S -4 0 --", "--p", "13"]) == 0
    assert "closed: 2" in capsys.readouterr().out
    # A-kind containing zero has product 0
    assert main(["eval", "A 1 -1 ++", "--p", "13"]) == 0
    out = capsys.readouterr().out
    assert "closed: 0" in out and "match: true" in out


def test_eval_extension_field(capsys):
    assert main(["eval", "T 2,1 1 --", "--p", "3", "--n", "2"]) == 0
    assert "match: true" in capsys.readouterr().out


def test_eval_parse_errors(capsys):
    assert main(["eval", "T 1 -1 --", "--p", "13"]) == 2
    assert "j + l != 0" in capsys.readouterr().err
    assert main(["eval", "T x 3 --", "--p", "13"]) == 2
    assert "token 2" in capsys.readouterr().err
    assert main(["eval", "Q 1 3 --", "--p", "13"]) == 2
    assert "token 1" in capsys.readouterr().err
    assert main(["eval", "S 1 1 ++", "--p", "13"]) == 2
    assert "k != l" in capsys.readouterr().err
    assert main(["eval", "T 1 3 --", "--p", "12"]) == 2


def test_eval_refuses_a_scan_above_the_bound(monkeypatch, capsys):
    # near the machine bound the table of squares would take 2 GB: eval
    # exits 2, naming q and the bound, before it allocates anything
    def no_alloc(size):
        raise AssertionError(f"allocated a {size}-byte table")

    monkeypatch.setattr(ffield, "bytearray", no_alloc, raising=False)
    assert main(["eval", "T 5 7 +-", "--p", "2147483629"]) == 2
    err = capsys.readouterr().err
    assert "q=2147483629" in err and f"bound {charsets.SCAN_LIMIT}" in err
    monkeypatch.undo()
    # the bound itself is allowed
    monkeypatch.setattr(charsets, "SCAN_LIMIT", 13)
    assert main(["eval", "T 1 3 --", "--p", "13"]) == 0
    assert main(["eval", "T 1 3 --", "--p", "17"]) == 2
    assert "q=17 is above the scan bound 13" in capsys.readouterr().err


def test_eval_and_table_refuse_before_the_modulus_search(monkeypatch, capsys):
    # q = 3^19 is below the machine bound but above the scan bound: both
    # commands exit 2 before the degree-19 modulus search would start
    def no_search(p, n):
        raise AssertionError(f"searched a modulus of degree {n} over F_{p}")

    monkeypatch.setattr(ffield, "find_modulus", no_search)
    for argv in (["eval", "S1 0 +"], ["table", "1"]):
        assert main([*argv, "--p", "3", "--n", "19"]) == 2
        err = capsys.readouterr().err
        assert f"q={3 ** 19} is above the scan bound {charsets.SCAN_LIMIT}" in err


def test_verify_unwritable_out_is_no_verdict(tmp_path, capsys):
    # an --out that cannot be opened checks nothing, so exit 2, not the
    # mismatch code 1
    out = tmp_path / "missing" / "report.jsonl"
    assert main(["verify", "--qmax", "5", "--suites", "intro", "--out", str(out)]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_parse_family_shapes():
    ctx = field(13)
    fam = parse_family(ctx, "s1 3 -")
    assert fam.kind == "S1" and fam.signs == -1
    fam = parse_family(ctx, "t 1 3 -+")
    assert fam.signs == SignPair(-1, 1)
    with pytest.raises(ValueError):
        parse_family(ctx, "T 1 3")
    with pytest.raises(ValueError):
        parse_family(ctx, "S1 3 -+")
    with pytest.raises(ValueError):
        parse_family(ctx, "")


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3), (5, 2)])
def test_card_spot_rows_replay_through_eval(p, n, capsys):
    # each card-spot row names its family in the grammar eval reads, so the
    # row replays as it stands, and eval counts the members the row counted
    rows = [row for row in sweeps.run_field(p, n, ("cardinality",))
            if row["case"].startswith("card-spot[")]
    assert rows
    for row in rows:
        label = row["case"][len("card-spot["):-1]
        assert main(["eval", label, "--p", str(p), "--n", str(n), "--json"]) == 0, label
        assert json.loads(capsys.readouterr().out)["cardinality"] == int(row["expected"])


def test_verify_empty_range(capsys, tmp_path):
    # a range without a single field would run zero checks and "pass"
    for qmin, qmax in (("50", "40"), ("10", "5"), ("4", "4")):
        assert main(["verify", "--qmin", qmin, "--qmax", qmax]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "no odd prime power" in captured.err
    # the range is refused before --out is opened
    out = tmp_path / "report.jsonl"
    assert main(["verify", "--qmin", "50", "--qmax", "40", "--out", str(out)]) == 2
    assert "no odd prime power" in capsys.readouterr().err
    assert not out.exists()


def test_verify_enumerates_the_range_once(monkeypatch):
    calls = []
    real = sweeps.prime_powers

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sweeps, "prime_powers", counted)
    assert main(["verify", "--qmax", "13", "--suites", "intro"]) == 0
    assert main(["verify", "--qmin", "50", "--qmax", "40"]) == 2
    assert calls == [(3, 13, 3), (50, 40, 3)]


@pytest.mark.parametrize("max_degree", [None, 1, 3])
def test_prime_powers_sieve_matches_factorization(max_degree):
    def reference(q_min, q_max):
        out = []
        for q in range(max(3, q_min), q_max + 1):
            pp = prime_power(q) if q % 2 else None
            if pp is not None and (max_degree is None or pp[1] <= max_degree):
                out.append((q, *pp))
        return out

    assert sweeps.prime_powers(3, 20000, max_degree) == reference(3, 20000)
    for q_min, q_max in [(0, 2), (3, 3), (9, 9), (10, 10), (2187, 2197),
                         (4093, 4093), (19000, 19700)]:
        assert sweeps.prime_powers(q_min, q_max, max_degree) == reference(q_min, q_max)


def test_verify_pool_never_exceeds_the_field_count(monkeypatch, capsys):
    # a fake pool records its size and maps in-process: no process starts
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    assert main(["verify", "--qmax", "13", "--workers", "64", "--suites", "intro"]) == 0
    assert sizes == [6]  # q = 3, 5, 7, 9, 11, 13
    assert main(["verify", "--qmin", "13", "--qmax", "13", "--workers", "64",
                 "--suites", "intro"]) == 0
    assert sizes == [6]  # one field runs without a pool


def test_one_process_verify_writes_each_row_before_the_next_is_made(monkeypatch):
    # every suite counts the rows it yields; the stream records that count at
    # each write, so the k-th write comes before the (k + 1)-th row is made
    made = [0]

    def counted(suite):
        def rows(ctx):
            for row in suite(ctx):
                made[0] += 1
                yield row
        return rows

    class Stream:
        def __init__(self):
            self.lines, self.made = [], []

        def write(self, text):
            self.lines.append(text)
            self.made.append(made[0])

    for name, suite in list(sweeps.SUITE_FUNCS.items()):
        monkeypatch.setitem(sweeps.SUITE_FUNCS, name, counted(suite))
    config = sweeps.SweepConfig(q_min=3, q_max=27)
    stream = Stream()
    assert sweeps.run_verify(config, stream) == 0
    assert stream.made == list(range(1, len(stream.lines) + 1))
    monkeypatch.undo()
    report = "".join(stream.lines)
    rows = [row for _, p, n in sweeps.prime_powers(3, 27, 3)
            for row in sweeps.run_field(p, n, sweeps.ALL_SUITES)]
    assert report == "".join(json.dumps(row) + "\n" for row in rows)
    pooled = io.StringIO()
    assert sweeps.run_verify(config._replace(workers=2), pooled) == 0
    assert pooled.getvalue() == report


def _written(monkeypatch, p, n, emit_rows) -> tuple[list[dict], str]:
    """The rows ``emit_rows(p, n, suites, emit)`` hands run_verify at p^n in
    place of run_field, and the report run_verify writes from them."""
    rows = []

    def recorded(p, n, suites, emit):
        def both(row):
            rows.append(row)
            emit(row)
        emit_rows(p, n, suites, both)

    monkeypatch.setattr(sweeps, "run_field", recorded)
    out = io.StringIO()
    sweeps.run_verify(sweeps.SweepConfig(q_min=p ** n, q_max=p ** n), out)
    return rows, out.getvalue()


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3), (5, 2)])
def test_report_rows_keep_the_schema(monkeypatch, p, n):
    # every row run_field yields, sound and under every sampled fault, has
    # the keys case, expected, actual, ok, q, suite in that order, of types
    # str, str, str, bool, int, str, and verify writes it as json.dumps does
    real = sweeps.run_field
    for name, fault in sampled_faults(p ** n):
        def corrupted(p, n=1):
            ctx = mk_field(p, n)
            fault(ctx)
            return ctx

        monkeypatch.setattr(sweeps, "mk_field", corrupted)
        rows, report = _written(monkeypatch, p, n, real)
        assert rows and all(row["ok"] for row in rows) == (name == "sound"), (p ** n, name)
        for row in rows:
            assert list(row) == ["case", "expected", "actual", "ok", "q", "suite"], row
            assert [type(v) for v in row.values()] == [str, str, str, bool, int, str], row
        assert report == "".join(json.dumps(row) + "\n" for row in rows), (p ** n, name)


def test_written_row_escapes_as_json_dumps(monkeypatch):
    # quotes, backslashes, non-ASCII, astral and control characters are
    # written as json.dumps writes them
    def odd_row(p, n, suites, emit):
        emit(dict(sweeps._row('T["1,2"]\\+-', "é ∞ 𝄞", "\x00\x1f\x7f\n\t "),
                  q=p, suite="tables"))

    rows, report = _written(monkeypatch, 13, 1, odd_row)
    assert len(rows) == 1 and rows[0]["ok"] is False
    assert report == json.dumps(rows[0]) + "\n"


def test_one_process_verify_keeps_the_rows_written_before_a_crash(monkeypatch):
    # an exception outside the check failures ends the sweep, but the rows
    # already made, this field's first ones included, stay in the report
    def crash(ctx):
        yield from sweeps.suite_intro(ctx)
        if ctx.q == 5:
            raise RuntimeError("crash")

    monkeypatch.setitem(sweeps.SUITE_FUNCS, "intro", crash)
    out = io.StringIO()
    with pytest.raises(RuntimeError):
        sweeps.run_verify(sweeps.SweepConfig(q_min=3, q_max=7, suites=("intro",)), out)
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["q"] for r in rows] == [3] * 3 + [5] * 3


def test_main_builds_the_parser_once_per_process(monkeypatch):
    from charprod import cli

    assert run_python("import charprod.cli as cli; print(cli._parser)").stdout == "None\n"
    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    assert main(["eval", "T 1 3 --", "--p", "13"]) == 0
    assert main(["eval", "S1 0 +", "--p", "13"]) == 0
    assert main(["verify", "--qmax", "5", "--suites", "intro"]) == 0
    assert len(built) == 1


def test_verify_small_range_report_roundtrip(tmp_path):
    out = tmp_path / "report.jsonl"
    rc = main(["verify", "--qmax", "9", "--out", str(out),
               "--suites", "tables,intro,dickson"])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows and all(r["ok"] for r in rows)
    keys = {"q", "suite", "case", "expected", "actual", "ok"}
    assert all(keys <= set(r) for r in rows)
    assert {r["q"] for r in rows} == {3, 5, 7, 9}
    # round-trip: re-serializing gives back the same line content
    assert all(json.loads(json.dumps(r)) == r for r in rows)


def test_verify_exit_one_on_mismatch(monkeypatch, capsys):
    # poison one closed form to prove mismatches flip the exit code
    from charprod import closedform, sweeps

    real = closedform.prod_T_values

    def poisoned(ctx, j, l):
        values = real(ctx, j, l)
        if j == 0:
            values[(1, 1)] = ctx.add(values[(1, 1)], ctx.one)
        return values

    monkeypatch.setattr(sweeps.closedform, "prod_T_values", poisoned)
    assert main(["verify", "--qmax", "5", "--suites", "tables"]) == 1


def test_tables_oracle_failures_are_failed_rows(monkeypatch):
    # the oracle's pair (j, l) is worked out once per tau: a pair that fails
    # once fails all four rows of its tau; a failed scan fails its own row
    ctx = mk_field(13)
    ctx.tables()
    real_div, real_brute, poisoned = ctx.div, charsets.brute_product, []
    l9 = ctx.div(4, 10)
    scan = (ctx.mul(9, l9), l9)  # the pair of tau = 9

    def div(a, b):
        if (a, b) == (4, 3) and not poisoned:  # the pair of tau = 2, l = 4/3
            poisoned.append(b)
            raise ZeroDivisionError("poisoned pair")
        return real_div(a, b)

    def brute(ctx, fam):
        if fam.params == scan and fam.signs == (1, -1):
            raise IdentityFailure("poisoned scan")
        return real_brute(ctx, fam)

    ctx.div = div
    monkeypatch.setattr(charsets, "brute_product", brute)
    rows = list(sweeps.suite_tables(ctx))
    assert len(rows) == 4 * 13
    failed = [(r["case"], r["expected"], r["actual"]) for r in rows if not r["ok"]]
    assert failed == [(f"T[2]{s}", "failed: poisoned pair", "unchecked")
                      for s in ("++", "+-", "-+", "--")] + \
        [("T[9]+-", "failed: poisoned scan", "unchecked")]


def test_verify_rejects_bad_suite(capsys):
    assert main(["verify", "--qmax", "9", "--suites", "nope"]) == 2


def test_verify_rejects_duplicate_suites(capsys):
    assert main(["verify", "--qmax", "9", "--suites", "intro,intro"]) == 2
    assert "duplicate suites" in capsys.readouterr().err


def test_verify_refuses_a_range_above_the_scan_bound(monkeypatch, capsys):
    # verify refuses the fields eval refuses, before any field is built
    def no_field(p, n=1):
        raise AssertionError(f"built the field {p}^{n}")

    monkeypatch.setattr(sweeps, "mk_field", no_field)
    assert main(["verify", "--qmin", "2147483647", "--qmax", "2147483647"]) == 2
    assert f"above the scan bound {charsets.SCAN_LIMIT}" in capsys.readouterr().err
    monkeypatch.undo()
    # the bound itself is allowed
    monkeypatch.setattr(charsets, "SCAN_LIMIT", 13)
    assert main(["verify", "--qmin", "13", "--qmax", "13", "--suites", "intro"]) == 0
    assert main(["verify", "--qmin", "13", "--qmax", "17", "--suites", "intro"]) == 2
    assert "q_max=17 is above the scan bound 13" in capsys.readouterr().err


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3)])
def test_cardinality_suite_checks_every_pair(monkeypatch, p, n):
    # the 12 all-pairs rows and the 2 single-condition rows, all clean
    grid = [f"card[{kind}]{s}" for s in ("++", "+-", "-+", "--") for kind in "AST"]
    cases = grid + ["card[S1]+", "card[S1]-"]
    rows = sweeps.run_field(p, n, ("cardinality",))
    assert [r["case"] for r in rows[:14]] == cases
    assert all(r["ok"] for r in rows)

    # m = (q - eps)/4 off by one: every closed count of a pair reads m and
    # fails, first at (0, 1) in row-major order; |S_k^e| reads no m
    def shift_m(p, n=1):
        ctx = real(p, n)
        ctx.tables()
        ctx.m += 1
        return ctx

    real = sweeps.mk_field
    monkeypatch.setattr(sweeps, "mk_field", shift_m)
    rows = sweeps.run_field(p, n, ("cardinality",))
    assert [r["case"] for r in rows[:14] if not r["ok"]] == grid
    ctx, q = real(p, n), p ** n
    first = f"first=({ctx.elem_str(0)},{ctx.elem_str(1)})"
    assert {r["actual"] for r in rows[:12] if r["case"].startswith("card[A]")} == \
        {f"{q * (q - 1)} mismatches {first}"}


def test_verify_workers(tmp_path):
    out = tmp_path / "par.jsonl"
    rc = main(["verify", "--qmax", "13", "--workers", "2",
               "--suites", "intro,dickson", "--out", str(out)])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert {r["q"] for r in rows} == {3, 5, 7, 9, 11, 13}
    # the report does not depend on the worker count
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.jsonl"
        assert main(["verify", "--qmax", "31", "--workers", workers,
                     "--suites", "tables,cardinality", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] and reports[0]


def test_table_command(capsys):
    for tid in ("1", "2", "3", "4"):
        assert main(["table", tid, "--p", "7"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
    assert main(["table", "2", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out  # tau=3 and tau=1/3 rows fold away at p=3


def test_table_rows_against_spec_examples(capsys):
    assert main(["table", "2", "--p", "7"]) == 0
    out = capsys.readouterr().out
    assert "tau=1 [q=+-1 mod 8] [j=2 l=2]  ++: 1/1  +-: 1/1  -+: 6/6  --: 5/5" in out
    assert main(["table", "1", "--p", "13"]) == 0
    out = capsys.readouterr().out
    # quadruple example: S products at tau=0 over F_13 are (3, 12, 6, 11)
    assert "tau=0 [k=0 l=4]  ++: 3/3  +-: 12/12  -+: 6/6  --: 11/11" in out


def test_table_render_extension_field():
    lines, mismatches = render_table(field(3, 2), 4)
    assert mismatches == 0


def test_table_refuses_a_field_above_the_scan_bound(monkeypatch, capsys):
    # table refuses the fields eval and verify refuse, before its O(q)
    # tables are built
    def no_tables(ctx):
        raise AssertionError(f"built the tables of q={ctx.q}")

    monkeypatch.setattr(ffield, "FieldTables", no_tables)
    assert main(["table", "1", "--p", "2147483647"]) == 2
    err = capsys.readouterr().err
    assert "q=2147483647" in err and f"bound {charsets.SCAN_LIMIT}" in err
    monkeypatch.undo()
    # the bound itself is allowed
    monkeypatch.setattr(charsets, "SCAN_LIMIT", 13)
    assert main(["table", "1", "--p", "13"]) == 0
    assert "table 1 at q=13" in capsys.readouterr().out
    assert main(["table", "1", "--p", "17"]) == 2
    assert ("q=17 is above the scan bound 13: a full scan first builds tables "
            "of q entries") in capsys.readouterr().err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["table", "9", "--p", "7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # --qmax is required
    assert exc.value.code == 2


def test_eval_never_imports_numpy():
    # eval scans with scalar arithmetic; numpy stays out of the process
    code = ("import sys; from charprod.cli import main; "
            "rc = main(['eval', 'T 2,1 1 --', '--p', '3', '--n', '2']); "
            "sys.exit(rc or ('numpy' in sys.modules))")
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert "match: true" in proc.stdout


def test_one_process_runs_load_no_pool_and_no_dataclasses():
    # the pool loads only for --workers > 1 and the records are NamedTuples,
    # so a one-process verify and an eval never import either
    code = ("import sys, charprod; from charprod.cli import main; "
            "rc = main(['verify', '--qmax', '13', '--suites', 'intro']) or "
            "main(['eval', 'T 1 3 --', '--p', '13']); "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process', "
            "'dataclasses') if m in sys.modules]); sys.exit(rc)")
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert "match: true" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("field_args", [["--p", "1000000000000000000000007"],
                                        ["--p", "3", "--n", "100000000"]])
def test_eval_rejects_oversized_fields_at_once(field_args):
    # p and q are held against the machine bound before the trial division
    # of p and without building p ** n; in a subprocess, so that a hang
    # fails the test instead of stalling the suite
    code = ("import sys; from charprod.cli import main; "
            f"sys.exit(main(['eval', 'S1 0 +', *{field_args!r}]))")
    proc = run_python(code)
    assert proc.returncode == 2, proc.stderr
    assert "exceeds the machine bound 2^31" in proc.stderr
