"""Fault injection: corrupted field arithmetic gives failed rows.

Each fault is applied to a fresh context that ``sweeps.run_field`` then
sweeps, one suite at a time.  No suite may raise on a fault, and every
fault must show as at least one failed row in some suite.
"""

import pytest

from charprod import sweeps
from charprod.ffield import IdentityFailure, mk_field


def _suite_rows(monkeypatch, p, n, fault, suite):
    """Rows of one suite, run by ``sweeps.run_field`` on a freshly faulted field."""
    def corrupted(p, n=1):
        ctx = mk_field(p, n)
        fault(ctx)
        return ctx

    monkeypatch.setattr(sweeps, "mk_field", corrupted)
    return sweeps.run_field(p, n, (suite,))


def _failed_rows(monkeypatch, p, n, fault):
    """Failed-row count per suite, each suite run on a freshly faulted field."""
    return {suite: sum(not r["ok"] for r in _suite_rows(monkeypatch, p, n, fault, suite))
            for suite in sweeps.ALL_SUITES}


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3)])
def test_flipped_character_fails_rows_never_raises(monkeypatch, p, n):
    # chi flipped at index k after delta is cached, for every k in 1..q-1
    for k in range(1, p ** n):
        def flip(ctx):
            ctx.delta
            ctx.tables().chi[k] *= -1

        failed = _failed_rows(monkeypatch, p, n, flip)
        assert sum(failed.values()) > 0, (p ** n, k, failed)


def test_no_nonsquare_fails_rows_never_raises(monkeypatch):
    # chi(2) flipped at q = 3 before delta is first read leaves F_3 with no
    # nonsquare: delta raises IdentityFailure naming q, which every suite
    # turns into failed rows
    def flip(ctx):
        ctx.tables().chi[2] *= -1

    ctx = mk_field(3)
    flip(ctx)
    with pytest.raises(IdentityFailure, match="F_3 has no nonsquare"):
        ctx.delta
    failed = _failed_rows(monkeypatch, 3, 1, flip)
    assert sum(failed.values()) > 0, failed
    rows = sweeps.run_field(3, 1, sweeps.ALL_SUITES)  # one context, every suite
    assert any(not r["ok"] for r in rows)


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3)])
def test_square_delta_fails_rows_never_raises(monkeypatch, p, n):
    # delta replaced by the canonically first square other than 0 and 1,
    # after the tables are built: F_q[theta] is then no field
    def square_delta(ctx):
        chi = ctx.tables().chi
        ctx._delta = next(x for x in ctx.elements_canonical()
                          if x not in (0, 1) and chi[x] == 1)

    failed = _failed_rows(monkeypatch, p, n, square_delta)
    caught = {suite for suite, count in failed.items() if count}
    assert {"correspondence", "reciprocity"} <= caught, failed


def test_swapped_exp_entries_fail_rows_never_raise(monkeypatch):
    # gen^1 and gen^2 swapped in the first period of exp, log fixed to
    # match, at q = 27 (prime fields multiply without the tables)
    def swap_exp(ctx):
        tb = ctx.tables()
        tb.exp[1], tb.exp[2] = tb.exp[2], tb.exp[1]
        tb.log[tb.exp[1]], tb.log[tb.exp[2]] = 1, 2

    failed = _failed_rows(monkeypatch, 3, 3, swap_exp)
    caught = {suite for suite, count in failed.items() if count}
    assert {"tables", "correspondence", "rescaling"} <= caught, failed


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3)])
def test_swapped_exp_matrix_fails_rows_never_raises(monkeypatch, p, n):
    # gen^i and gen^k swapped for several (i, k) and extension fields; the
    # arithmetic is then no field, so suites meet non-units and foreign
    # elements, and each must end in failed rows, not an exception
    for i, k in ((1, 2), (1, 3), (2, 5), (3, 4)):
        def swap_exp(ctx):
            tb = ctx.tables()
            tb.exp[i], tb.exp[k] = tb.exp[k], tb.exp[i]
            tb.log[tb.exp[i]], tb.log[tb.exp[k]] = i, k

        failed = _failed_rows(monkeypatch, p, n, swap_exp)
        assert sum(failed.values()) > 0, (p ** n, (i, k), failed)


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3)])
def test_swapped_exp_matrix_tables_suite_gives_every_row(monkeypatch, p, n):
    # a failure on the oracle's side is a failed row, so every tau still
    # gives its four rows: 4 q in all (inf and the q - 1 others than -1)
    for i, k in ((1, 2), (1, 3), (2, 5), (3, 4)):
        def swap_exp(ctx):
            tb = ctx.tables()
            tb.exp[i], tb.exp[k] = tb.exp[k], tb.exp[i]
            tb.log[tb.exp[i]], tb.log[tb.exp[k]] = i, k

        rows = _suite_rows(monkeypatch, p, n, swap_exp, "tables")
        assert len(rows) == 4 * p ** n, (p ** n, (i, k))
        assert not any(r["case"].endswith("-aborted") for r in rows), (p ** n, (i, k))


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3)])
def test_shifted_m_fails_rows_never_raises(monkeypatch, p, n):
    # m = (q - eps)/4 off by one after the tables are built; reciprocity and
    # intro read no m, every other suite must report it
    def shift_m(ctx):
        ctx.tables()
        ctx.m += 1

    failed = _failed_rows(monkeypatch, p, n, shift_m)
    caught = {suite for suite, count in failed.items() if count}
    assert caught == {"tables", "dickson", "cardinality", "correspondence",
                      "rescaling"}, failed
