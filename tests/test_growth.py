"""Each suite's library calls grow with q as its rows do: counted, not timed.

Per suite, the calls into ``charprod`` (profile "call" events whose code
lies in the package, counted by ``cProfile`` on the hook that
``sys.setprofile`` sets) are counted at q and at about 4q, on a context
whose tables, square bytes and delta are built first.  ``tables`` writes
four rows per element, so its calls may grow by 1.1 times the q ratio;
every other suite writes a bounded number of rows per field, and its calls
may grow by 1.5.  Each pair has one v_2(q - 1), 2 for the primes and 3 for
the squares: ``reciprocity``'s calls follow the Tonelli-Shanks steps,
which v_2(q - 1) sets, not q.  Both pairs run sound, and the primes also
under one chi flip of ``helpers.field_faults``, where every ``tables`` row
is built as a scalar.  The counts do not depend on the machine.
"""

import cProfile
from pathlib import Path

import pytest

import charprod
from charprod import sweeps
from charprod.ffield import CHECK_FAILURES, mk_field
from helpers import field_faults

PACKAGE = str(Path(charprod.__file__).resolve().parent)

PRIMES, SQUARES = ((1021, 1), (4093, 1)), ((43, 2), (83, 2))


def suite_calls(p, n, fault):
    """{suite: calls into the package} over every suite, in ``run_field``'s order."""
    ctx = mk_field(p, n)
    ctx.tables()
    ctx.square_bytes()
    ctx.delta
    dict(field_faults(ctx.q))[fault](ctx)
    calls = {}
    for name in sweeps.ALL_SUITES:
        profile = cProfile.Profile(builtins=False)
        profile.enable()
        try:
            for _ in sweeps.SUITE_FUNCS[name](ctx):
                pass
        except CHECK_FAILURES:  # run_field's <suite>-aborted row
            pass
        finally:
            profile.disable()
        calls[name] = sum(entry.callcount for entry in profile.getstats()
                          if not isinstance(entry.code, str)
                          and str(Path(entry.code.co_filename).resolve()).startswith(PACKAGE))
    return calls


@pytest.mark.parametrize("pair, fault", [(PRIMES, "sound"), (SQUARES, "sound"), (PRIMES, "flip 5")],
                         ids=["1021-4093-sound", "43^2-83^2-sound", "1021-4093-flip-5"])
def test_calls_grow_as_the_rows(pair, fault):
    small, large = pair
    before, after = suite_calls(*small, fault), suite_calls(*large, fault)
    q_ratio = large[0] ** large[1] / small[0] ** small[1]
    bound = {name: 1.5 for name in sweeps.ALL_SUITES}
    bound["tables"] = 1.1 * q_ratio
    assert all(before.values())
    ratios = {name: after[name] / before[name] for name in sweeps.ALL_SUITES}
    assert {name: r for name, r in ratios.items() if r > bound[name]} == {}, (before, after)
