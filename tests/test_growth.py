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

Each suite's peak of traced memory (``tracemalloc``) per element is taken on
the same fields, sound, with the same set-up built first: at the larger
field of a pair it may be at most 1.25 times that at the smaller one, and
it must stay below ``PEAK_BYTES``, a constant per suite.  The suites with a
bounded number of rows per field peak at a few dozen bytes an element, so
one q-long list of ints (36 bytes an element) held by any of them crosses
its constant on at least one of the four fields.
"""

import cProfile
import tracemalloc
from pathlib import Path

import pytest

import charprod
from charprod import sweeps
from charprod.ffield import CHECK_FAILURES, mk_field
from helpers import field_faults

PACKAGE = str(Path(charprod.__file__).resolve().parent)

PRIMES, SQUARES = ((1021, 1), (4093, 1)), ((43, 2), (83, 2))

# bytes per element that each suite's traced peak stays below; measured on
# the four fields: tables 420-625, correspondence 480-550, cardinality
# 290-420, dickson and rescaling below 35, reciprocity and intro below 4
PEAK_BYTES = {"tables": 800, "correspondence": 700, "cardinality": 550,
              "dickson": 64, "rescaling": 64, "reciprocity": 16, "intro": 16}


def _set_up(p, n):
    """A context with its tables, square bytes and delta built."""
    ctx = mk_field(p, n)
    ctx.tables()
    ctx.square_bytes()
    ctx.delta
    return ctx


def suite_calls(p, n, fault):
    """{suite: calls into the package} over every suite, in ``run_field``'s order."""
    ctx = _set_up(p, n)
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


def suite_peaks(p, n):
    """{suite: traced peak bytes per element} over every suite, sound."""
    ctx = _set_up(p, n)
    peaks = {}
    for name in sweeps.ALL_SUITES:
        tracemalloc.start()
        try:
            for _ in sweeps.SUITE_FUNCS[name](ctx):
                pass
            peaks[name] = tracemalloc.get_traced_memory()[1] / ctx.q
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("pair", [PRIMES, SQUARES], ids=["1021-4093", "43^2-83^2"])
def test_peak_bytes_per_element_stay_flat(pair):
    small, large = suite_peaks(*pair[0]), suite_peaks(*pair[1])
    peaks = {name: (small[name], large[name]) for name in sweeps.ALL_SUITES}
    assert {name: ab for name, ab in peaks.items() if ab[1] > 1.25 * ab[0]} == {}
    assert {name: ab for name, ab in peaks.items() if max(ab) >= PEAK_BYTES[name]} == {}
