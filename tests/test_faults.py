"""Fault injection: an inconsistent quadratic character gives failed rows.

Each fault is applied to a fresh context that ``sweeps.run_field`` then
sweeps, one suite at a time.  No suite may raise on a fault, and every
fault must show as at least one failed row in some suite.
"""

import pytest

from charprod import sweeps
from charprod.ffield import mk_field


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3)])
def test_flipped_character_fails_rows_never_raises(monkeypatch, p, n):
    # chi flipped at index k after delta is cached, for every k in 1..q-1
    q = p ** n
    for k in range(1, q):
        def corrupted(p, n=1):
            ctx = mk_field(p, n)
            ctx.delta
            ctx.tables().chi[k] *= -1
            return ctx

        monkeypatch.setattr(sweeps, "mk_field", corrupted)
        failed = {}
        for suite in sweeps.ALL_SUITES:
            rows = sweeps.run_field(p, n, (suite,))
            failed[suite] = sum(not r["ok"] for r in rows)
        assert sum(failed.values()) > 0, (q, k, failed)
