import random

import numpy as np
import pytest

from charprod import charsets, sweeps
from charprod.dickson import (dickson_first, dickson_second, dickson_values,
                              poly_str)
from charprod.ffield import Ext2Elem, mk_field
from helpers import (SMALL_FIELDS, dickson_explicit, dickson_rows_reference, e2_div,
                     e2_inv, e2_pow, e2_project, field, poly_eval, poly_eval_ext2,
                     sampled_faults, small_ctxs, unit_of_order)


def test_dickson_first_examples():
    c13, c23 = field(13), field(23)
    assert dickson_first(c13, 3) == [0, c13.neg(3), 0, 1]           # x^3 - 3x
    assert dickson_first(c23, 6) == [c23.neg(2), 0, 9, 0, c23.neg(6), 0, 1]
    assert dickson_first(c13, 0) == [2]


def test_dickson_second_examples():
    c13, c23 = field(13), field(23)
    assert dickson_second(c13, 2) == [c13.minus_one, 0, 1]          # x^2 - 1
    assert dickson_second(c23, 5) == [0, 3, 0, c23.neg(4), 0, 1]    # x^5 - 4x^3 + 3x
    assert dickson_second(c13, 0) == [1]


def test_degree_and_monic():
    for ctx in small_ctxs()[:6]:
        for k in range(1, 25):
            for f in (dickson_first(ctx, k), dickson_second(ctx, k)):
                assert len(f) == k + 1
                assert f[-1] == ctx.one


def test_recursion_matches_explicit_sums():
    for ctx in small_ctxs():
        for k in range(41):
            assert dickson_first(ctx, k) == dickson_explicit(ctx, k, True), (ctx, k)
            assert dickson_second(ctx, k) == dickson_explicit(ctx, k, False), (ctx, k)


def test_rejects_negative_degree():
    with pytest.raises(ValueError):
        dickson_first(field(7), -1)
    with pytest.raises(ValueError):
        dickson_second(field(7), -2)


def test_dickson_values_ladder_matches_horner():
    # (D_k(x), D_{k+1}(x)) from the doubling ladder equals Horner evaluation
    # of the coefficient vectors, for k = 0..40 and k = m at every x
    for ctx in small_ctxs():
        two = ctx.from_int(2)
        for k in sorted(set(range(41)) | {ctx.m}):
            dk, dk1 = dickson_first(ctx, k), dickson_first(ctx, k + 1)
            for x in range(ctx.q):
                assert dickson_values(k, x, ctx.sub, ctx.mul, two) == \
                    (poly_eval(ctx, dk, x), poly_eval(ctx, dk1, x)), (ctx.q, k, x)
    with pytest.raises(ValueError):
        dickson_values(-1, 3, field(7).sub, field(7).mul, 2)


def test_dickson_values_on_arrays_match_the_scalar_ladder():
    # one call on the int64 array of all codes gives, at every x, the scalar
    # ladder's (D_k(x), D_{k+1}(x)) for k = m and m + 1, the suite's degrees
    for ctx in small_ctxs() + [field(13, 3)]:
        two, codes = ctx.from_int(2), np.arange(ctx.q, dtype=np.int64)
        for k in (ctx.m, ctx.m + 1):
            lo, hi = dickson_values(k, codes, ctx.sub, ctx.mul, two)
            want = [dickson_values(k, x, ctx.sub, ctx.mul, two) for x in range(ctx.q)]
            assert list(zip(lo.tolist(), hi.tolist())) == want, (ctx.q, k)


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3)])
def test_dickson_suite_matches_the_coefficient_reference(p, n):
    # the root check gives the ok flags of the coefficient comparison, on a
    # sound field and under every fault (a seeded sample of the chi flips
    # above 100 elements); sound rows keep their text
    for name, fault in sampled_faults(p ** n):
        ctx = mk_field(p, n)
        fault(ctx)
        rows = list(sweeps.suite_dickson(ctx))
        assert [(r["case"], r["ok"]) for r in rows] == dickson_rows_reference(ctx), \
            (ctx.q, name)
        if name == "sound":
            assert {r["actual"] for r in rows} == {"identical-coefficients"}


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3), (4099, 1)])
def test_dickson_suite_names_the_count_under_shifted_m(p, n):
    # with m off by one, D_{m+1} and E_m have one more degree than roots
    ctx = mk_field(p, n)
    m = ctx.m
    ctx.m += 1
    assert [r["actual"] for r in sweeps.suite_dickson(ctx)] == \
        [f"{m}-roots-for-degree-{m + 1}", f"{m - 1}-roots-for-degree-{m}"]


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3), (4099, 1)])
def test_dickson_suite_checks_every_root(monkeypatch, p, n):
    # one root of each set swapped for 2, which neither set holds: D_m(2) =
    # 2 is no zero, and at b = 2 the E_{m-1} expression 2 D_{m+1} - b D_m
    # vanishes whatever E_{m-1}(2) = m is, so only the b^2 != 4 check fails it
    enumerate_family = charsets.enumerate_family

    def one_swapped(ctx, fam):
        roots = enumerate_family(ctx, fam)
        return roots[:-1] + [ctx.from_int(2)]

    monkeypatch.setattr(charsets, "enumerate_family", one_swapped)
    ctx = mk_field(p, n)
    assert [r["actual"] for r in sweeps.suite_dickson(ctx)] == \
        [f"not-a-root-at-1-of-{ctx.m}", f"not-a-root-at-1-of-{ctx.m - 1}"]


def test_poly_eval_examples():
    c13 = field(13)
    assert poly_eval(c13, dickson_first(c13, 3), 4) == 0
    assert poly_eval(c13, [2], 11) == 2
    assert poly_eval(c13, dickson_second(c13, 2), 1) == 0
    assert poly_eval(c13, [], 5) == 0


def test_functional_equations_random_units():
    # D_k(<u>) = <u^k> and E_{k-1}(<u>) = (u^k - u^-k)/(u - 1/u), checked
    # in F_{q^2} for random units u, by Horner and (D_k) by the ladder
    rng = random.Random(99)
    for ctx in small_ctxs():
        two2 = ctx.e2_embed(ctx.from_int(2))
        for _ in range(6):
            u = Ext2Elem(rng.randrange(ctx.q), rng.randrange(ctx.q))
            try:
                ui = e2_inv(ctx, u)
            except ZeroDivisionError:
                continue
            br = ctx.e2_add(u, ui)
            for k in range(0, 51, 7):
                uk = e2_pow(ctx, u, k)
                uki = e2_inv(ctx, uk)
                assert poly_eval_ext2(ctx, dickson_first(ctx, k), br) == \
                    ctx.e2_add(uk, uki)
                assert dickson_values(k, br, ctx.e2_sub, ctx.e2_mul, two2)[0] == \
                    ctx.e2_add(uk, uki)
                if k >= 1 and ctx.e2_mul(u, u) != ctx.e2_embed(ctx.one):
                    want = e2_div(ctx, ctx.e2_sub(uk, uki), ctx.e2_sub(u, ui))
                    assert poly_eval_ext2(ctx, dickson_second(ctx, k - 1), br) == want


def test_functional_equation_in_base_field():
    # brackets of roots of unity in mu_{q-1} and mu_{q+1} land in F_q,
    # where plain poly_eval applies
    for ctx in small_ctxs()[:6]:
        for d in (ctx.q - 1, ctx.q + 1):
            u = unit_of_order(ctx, d)
            br = ctx.e2_add(u, e2_inv(ctx, u))
            x = e2_project(ctx, br)
            for k in (2, 3, 5, 11):
                want = ctx.e2_add(e2_pow(ctx, u, k), e2_pow(ctx, u, -k))
                assert ctx.e2_embed(poly_eval(ctx, dickson_first(ctx, k), x)) == want


def test_poly_str():
    c13 = field(13)
    assert poly_str(c13, dickson_first(c13, 3)) == "0 10 0 1"
    c9 = field(3, 2)
    assert poly_str(c9, [c9.encode((2, 1)), c9.one]) == "2,1 1,0"
