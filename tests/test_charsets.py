import functools
import itertools
import json
import random
import traceback
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charprod import sweeps
from charprod.charsets import (SIGN_PAIRS, SetFamily, SignPair, a_family,
                               brute_product, card_closed, enumerate_family,
                               parse_family, report_row, s1_family, s_family,
                               sign_str, t_family, vanishing_poly)
from charprod.dickson import dickson_first, dickson_second
from charprod.ffield import IdentityFailure, mk_field
from helpers import (SMALL_FIELDS, all_families, card_count_blocks,
                     card_counts_reference, card_grid, card_rows_reference,
                     card_tally_grid, card_tally_reference, field, field_faults,
                     members_reference, pair_chars, product_reference, sampled_faults,
                     small_ctxs)


def test_enumerate_examples():
    c13 = field(13)
    assert enumerate_family(c13, a_family(c13.neg(2), 2, (-1, -1))) == [0, 4, 9]
    assert enumerate_family(field(5), t_family(2, 2, (-1, 1))) == [4]
    assert enumerate_family(field(7), s1_family(0, 1)) == [1, 2, 4]


def test_brute_product_examples():
    # Wilson: the product over all of F_q^* (squares times nonsquares) is -1
    for ctx in small_ctxs():
        v = ctx.mul(brute_product(ctx, s1_family(0, 1)).value,
                    brute_product(ctx, s1_family(0, -1)).value)
        assert v == ctx.minus_one
    rep = brute_product(field(5), t_family(1, 3, (-1, -1)))
    assert (rep.value, rep.cardinality) == (4, 1)
    rep = brute_product(field(3), t_family(1, 1, (1, -1)))
    assert (rep.value, rep.cardinality) == (1, 0)


def test_family_validation():
    c7 = field(7)
    with pytest.raises(ValueError, match="k != l"):
        enumerate_family(c7, s_family(2, 2, (1, 1)))
    with pytest.raises(ValueError, match="j \\+ l != 0"):
        enumerate_family(c7, t_family(3, 4, (1, 1)))
    with pytest.raises(ValueError, match="kind"):
        enumerate_family(c7, SetFamily("B", (1, 2), SignPair(1, 1)))
    with pytest.raises(ValueError):
        enumerate_family(c7, SetFamily("S", (1, 2), (1, 0)))


def test_sign_parsing():
    ctx = field(13)
    assert parse_family(ctx, "T 1 3 -+").signs == SignPair(-1, 1)
    assert parse_family(ctx, "S1 3 +").signs == 1
    assert sign_str(SignPair(-1, 1)) == "-+"
    assert sign_str(-1) == "-"
    with pytest.raises(ValueError, match=r"^token 4 \('\+x'\): bad sign character 'x'$"):
        parse_family(ctx, "T 1 3 +x")
    with pytest.raises(ValueError, match=r"^token 3 \('\+-\+'\): expected one or two "
                                         r"signs, got '\+-\+'$"):
        parse_family(ctx, "S1 3 +-+")


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3), (5, 2)])
def test_family_labels_parse_back(p, n):
    # parse_family reads the grammar SetFamily.label writes: every kind and
    # sign pair, at seeded parameters
    ctx = field(p, n)
    rng = random.Random(f"labels:{ctx.q}")
    pairs = []
    while len(pairs) < 5:
        k, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
        if k != l and ctx.add(k, l) != 0:  # a family of every kind
            pairs.append((k, l))
    fams = [s1_family(k, sign) for k, _ in pairs for sign in (1, -1)]
    fams += [make(k, l, sp) for make in (a_family, s_family, t_family)
             for sp in SIGN_PAIRS for k, l in pairs]
    for fam in fams:
        assert parse_family(ctx, fam.label(ctx)) == fam, fam.label(ctx)


def test_card_examples():
    assert card_closed(field(13), a_family(0, 1, (1, 1))) == 2
    assert enumerate_family(field(13), a_family(0, 1, (1, 1))) == [3, 9]
    assert card_closed(field(7), s1_family(1, 1)) == 2
    assert card_closed(field(13), a_family(0, 1, (1, -1))) == 3


def test_card_closed_matches_enumeration_exhaustive():
    for ctx in [field(3), field(5), field(7), field(11), field(13),
                field(3, 2), field(5, 2)]:
        for k in range(ctx.q):
            for e in (1, -1):
                fam = s1_family(k, e)
                assert card_closed(ctx, fam) == len(enumerate_family(ctx, fam))
            for l in range(ctx.q):
                for sp in SIGN_PAIRS:
                    if k != l:
                        for mk in (a_family, s_family):
                            fam = mk(k, l, sp)
                            assert card_closed(ctx, fam) == \
                                len(enumerate_family(ctx, fam)), (ctx.q, fam)
                    if ctx.add(k, l) != 0:
                        fam = t_family(k, l, sp)
                        assert card_closed(ctx, fam) == \
                            len(enumerate_family(ctx, fam)), (ctx.q, fam)


def test_card_grid_matches_card_closed():
    # the array form of the closed cardinality in the grid reference equals
    # the scalar form at every pair where the family is defined
    makers = {"A": a_family, "S": s_family, "T": t_family}
    for ctx in small_ctxs():
        chi = np.array(ctx.tables().chi, dtype=np.int8)
        for kind, mk in makers.items():
            for k0 in range(0, ctx.q, 4):
                rows = slice(k0, min(ctx.q, k0 + 4))
                chars = pair_chars(ctx, chi, kind, rows)
                for sp in SIGN_PAIRS:
                    grid = card_grid(ctx, kind, sp, chars)
                    assert grid.shape == (len(range(ctx.q)[rows]), ctx.q)
                    for i, k in enumerate(range(ctx.q)[rows]):
                        for l in range(ctx.q):
                            undefined = ctx.add(k, l) == 0 if kind == "T" else k == l
                            if not undefined:
                                assert grid[i, l] == card_closed(ctx, mk(k, l, sp)), \
                                    (ctx.q, kind, sp, k, l)


def _tally_counts_grid(ctx):
    """The oracle's counts c(d) of ``sweeps.card_tally`` moved onto every
    (k, l) pair, less the a = 0 terms: (4, q, q) per kind."""
    c = card_tally_grid(ctx)[0].sum(axis=(2, 3, 5))  # [d, e1 + 1, e2 + 1]
    chi = ctx.tables().shifted(0)
    codes = np.arange(ctx.q)
    diff = ctx.sub(codes, codes[:, None])  # [k, l] = l - k
    total = ctx.add(codes[:, None], codes)  # [j, l] = j + l
    out = {"A": [], "S": [], "T": []}
    for e1, e2 in SIGN_PAIRS:
        f1 = ctx.eps * e1
        out["A"].append(c[diff, e1 + 1, e2 + 1])
        out["S"].append(out["A"][-1] - ((chi[:, None] == e1) & (chi == e2)))
        out["T"].append(c[total, f1 + 1, e2 + 1]
                        - ((chi[ctx.neg(codes)][:, None] == f1) & (chi == e2)))
    return {kind: np.stack(grids) for kind, grids in out.items()}


@pytest.mark.parametrize("block", [32, 1, 5])
def test_card_counts_match_the_matmul_reference(block):
    # the tally's per-difference counts, moved onto the pairs, give the
    # stacked-grid matrix products entry for entry; so do the row blocks of
    # card_count_blocks, joined, at every block size
    for ctx in small_ctxs():
        want = card_counts_reference(ctx)
        blocks = [counts for _, counts in card_count_blocks(ctx, block)]
        joined = {kind: np.concatenate([c[kind] for c in blocks], axis=1) for kind in "AST"}
        for got in (_tally_counts_grid(ctx), joined):
            for kind in "AST":
                assert got[kind].shape == (4, ctx.q, ctx.q), (ctx.q, kind)
                assert (got[kind] == want[kind]).all(), (ctx.q, kind)


def test_card_counts_are_a_reindexing_of_any_vector():
    # with the shifted vectors read from a seeded random {-1, 0, 1} vector,
    # which is no character, the tally's counts still equal the reference:
    # the translation is pure re-indexing of the additive group
    rng = np.random.default_rng(0x5EED)
    for p, n in SMALL_FIELDS:
        ctx = mk_field(p, n)
        tb = ctx.tables()
        tb._grid = rng.integers(-1, 2, ctx.q).astype(np.int8).reshape((p,) * n)
        got, want = _tally_counts_grid(ctx), card_counts_reference(ctx)
        for kind in "AST":
            assert (got[kind] == want[kind]).all(), (ctx.q, kind)


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3), (4099, 1)])
def test_tally_counts_are_jacobi_sums(p, n):
    # sum_b chi(b) chi(b + d) = -1 for every d != 0, from the oracle's
    # counts alone: c++(d) + c--(d) - c+-(d) - c-+(d) = -1
    c = card_tally_grid(field(p, n))[0].sum(axis=(2, 3, 5))[1:]
    assert (c[:, 2, 2] + c[:, 0, 0] - c[:, 2, 0] - c[:, 0, 2] == -1).all()


def test_card_tally_peak_stays_near_its_tally():
    # card_tally keeps one int32 count row per realized class pair (9 on a
    # sound field) and one spectrum per class, about 190 bytes per element
    # at 3^7: the bound, 1.5 times a dense q x 243 int32 tally, fails if
    # such a tally of every class pair comes back
    ctx = field(3, 7)
    tracemalloc.start()
    try:
        sweeps.card_tally(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ctx.q * 243 * 4, peak


def test_cardinality_suite_peak_stays_below_a_dense_tally():
    # the suite keeps one count row per realized class pair, so at 3^7 its
    # traced peak stays below what a q x 243 int32 tally alone would take
    ctx = field(3, 7)
    tracemalloc.start()
    try:
        list(sweeps.suite_cardinality(ctx))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ctx.q * 243 * 4, peak


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3), (4099, 1)])
def test_card_tally_matches_the_bincount_reference(p, n):
    # the correlations give the per-difference bincount tally array for
    # array, the class vectors too, on a sound field and under every fault
    # (a seeded sample of the chi flips above 100 elements)
    for name, fault in sampled_faults(p ** n):
        ctx = mk_field(p, n)
        fault(ctx)
        got, want = card_tally_grid(ctx), card_tally_reference(ctx)
        assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (ctx.q, name)


@pytest.mark.parametrize("off, at", [(0.3, None), (1.0, 5)])
@pytest.mark.parametrize("p, n", [(13, 1), (3, 3)])
def test_card_tally_guard_aborts_the_suite(monkeypatch, p, n, off, at):
    # an inverse transform off by 0.3 everywhere is no count, and one off by
    # a whole count at one difference misses its pair's sum |U| |V|: either
    # way card_tally raises, and run_field gives one failed aborted row
    inverse = np.fft.irfftn

    def perturbed(*args, **kwargs):
        h = inverse(*args, **kwargs)
        h.reshape(-1)[slice(None) if at is None else at] += off
        return h

    monkeypatch.setattr(np.fft, "irfftn", perturbed)
    with pytest.raises(IdentityFailure, match="no count"):
        sweeps.card_tally(mk_field(p, n))
    rows = sweeps.run_field(p, n, ("cardinality",))
    assert [(r["case"], r["ok"]) for r in rows] == [("cardinality-aborted", False)]
    assert "no count" in rows[0]["actual"]


@pytest.mark.parametrize("p, n", SMALL_FIELDS)
def test_cardinality_rows_match_the_grid_reference(p, n):
    # the tally gives the all-pairs rows of the pair-by-pair grid, byte for
    # byte, on a sound field and under every fault: mismatch counts and the
    # first mismatching pair in row-major order; the card[S1] rows, one array
    # expression of the closed chi, equal a per-k loop of scalar card_closed
    failed = 0
    for name, fault in field_faults(p ** n):
        ctx = mk_field(p, n)
        fault(ctx)
        rows = itertools.islice(sweeps.suite_cardinality(ctx), 14)
        got = [(r["case"], r["actual"]) for r in rows]
        assert got == card_rows_reference(ctx), (ctx.q, name)
        failed += got != [(case, "0 mismatches") for case, _ in got]
    assert failed, (p, n)


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3)])
def test_single_condition_rows_read_chi_at_zero(p, n):
    # chi(0) = 0 matches no sign, so |S_0^e| needs no branch; chi(0) set to
    # a sign e after delta is cached fails exactly the k = 0 count of e
    for e in (1, -1):
        ctx = mk_field(p, n)
        ctx.delta
        ctx.tables().chi[0] = e
        rows = itertools.islice(sweeps.suite_cardinality(ctx), 12, 14)
        assert [r["actual"] for r in rows] == \
            [f"{int(s == e)} mismatches" for s in (1, -1)], (ctx.q, e)


@pytest.mark.parametrize("p, n, flip, want", [
    (13, 1, 3, ["13 mismatches first=(0,3)", "0 mismatches", "0 mismatches",
                "13 mismatches first=(0,3)"]),
    (3, 3, 5, ["0 mismatches", "27 mismatches first=(0,0,0,2,1,0)",
               "27 mismatches first=(0,0,0,2,1,0)", "0 mismatches"]),
])
def test_cardinality_suite_closed_side_reads_chi(p, n, flip, want):
    # one chi entry flipped after the tables are built: the enumerated counts
    # (from the shifted grid) keep the true character, the closed side must
    # not, so the card[A] rows report mismatches
    ctx = mk_field(p, n)
    ctx.tables().chi[flip] *= -1
    rows = [r for r in sweeps.suite_cardinality(ctx) if r["case"].startswith("card[A]")]
    assert [r["case"] for r in rows] == [f"card[A]{sign_str(sp)}" for sp in SIGN_PAIRS]
    assert [r["actual"] for r in rows] == want


def test_disjoint_decomposition():
    # F_q = {0} | {-1} | A01++ | A01+- | A01-+ | A01--
    for ctx in small_ctxs():
        parts = [{0}, {ctx.minus_one}]
        parts += [set(enumerate_family(ctx, a_family(0, 1, sp)))
                  for sp in SIGN_PAIRS]
        assert sum(len(s) for s in parts) == ctx.q
        assert set().union(*parts) == set(range(ctx.q))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_a_vs_s_relation(pn, data):
    ctx = field(*pn)
    k = data.draw(st.integers(0, ctx.q - 1))
    l = data.draw(st.integers(0, ctx.q - 1))
    if k == l:
        return
    sp = data.draw(st.sampled_from(SIGN_PAIRS))
    a_set = set(enumerate_family(ctx, a_family(k, l, sp)))
    s_set = set(enumerate_family(ctx, s_family(k, l, sp)))
    if ctx.legendre(k) == sp.e1 and ctx.legendre(l) == sp.e2:
        assert a_set == s_set | {0} and 0 not in s_set
    else:
        assert a_set == s_set


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_t_vs_s_relation(pn, data):
    ctx = field(*pn)
    j = data.draw(st.integers(0, ctx.q - 1))
    l = data.draw(st.integers(0, ctx.q - 1))
    if ctx.add(j, l) == 0:
        return
    sp = data.draw(st.sampled_from(SIGN_PAIRS))
    t_set = enumerate_family(ctx, t_family(j, l, sp))
    s_set = enumerate_family(ctx, s_family(ctx.neg(j), l,
                                           (ctx.eps * sp.e1, sp.e2)))
    assert t_set == s_set


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_scaling_relation(pn, data):
    # lam * S_{k,l}^{nu e1, nu e2} = S_{lam k, lam l}^{e1, e2}
    ctx = field(*pn)
    k = data.draw(st.integers(0, ctx.q - 1))
    l = data.draw(st.integers(0, ctx.q - 1))
    lam = data.draw(st.integers(1, ctx.q - 1))
    if k == l:
        return
    sp = data.draw(st.sampled_from(SIGN_PAIRS))
    nu = ctx.legendre(lam)
    scaled = sorted(ctx.mul(lam, a) for a in
                    enumerate_family(ctx, s_family(k, l, (nu * sp.e1, nu * sp.e2))))
    direct = enumerate_family(ctx, s_family(ctx.mul(lam, k), ctx.mul(lam, l), sp))
    assert scaled == direct


def test_single_condition_decomposition():
    # S_k^+ = S_{k,l}^{++} | S_{k,l}^{+-} (| {-l} iff chi(k-l)=1 and l!=0)
    rng = random.Random(4)
    for ctx in small_ctxs():
        for _ in range(15):
            k, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
            if k == l:
                continue
            plus = set(enumerate_family(ctx, s1_family(k, 1)))
            pp = set(enumerate_family(ctx, s_family(k, l, (1, 1))))
            pm = set(enumerate_family(ctx, s_family(k, l, (1, -1))))
            expect = pp | pm
            if ctx.legendre(ctx.sub(k, l)) == 1 and l != 0:
                extra = ctx.neg(l)
                assert extra not in expect
                expect = expect | {extra}
            assert plus == expect


def test_vanishing_poly_examples():
    c13, c23 = field(13), field(23)
    assert vanishing_poly(c13, 1, 1) == dickson_second(c13, 2)      # x^2 - 1
    assert vanishing_poly(c23, 1, -1) == dickson_first(c23, 6)
    assert vanishing_poly(c23, -1, 1) == dickson_second(c23, 5)


def test_report_row_json():
    ctx = field(3, 2)
    fam = t_family(ctx.encode((2, 1)), ctx.one, (1, -1))
    rep = brute_product(ctx, fam)
    row = report_row(ctx, fam, rep)
    back = json.loads(json.dumps(row))
    assert back == row
    assert back["family"] == "T" and back["signs"] == "+-"
    assert back["params"] == ["2,1", "1,0"]


def test_scalar_and_vector_scans_agree():
    # the tallied oracle and the byte scan of a table-free twin context must
    # give the same value and cardinality for every kind
    rng = random.Random(11)
    # 4099 and 17^3 = 4913: a large prime field and a large extension field
    for p, n in [(13, 1), (3, 2), (5, 2), (4099, 1), (17, 3)]:
        ctx, twin = field(p, n), mk_field(p, n)
        # a = 0 is a member of A_{k,l} when (chi(k), chi(l)) are its signs
        k, l = 1, ctx.delta
        zero_in = a_family(k, l, (ctx.legendre(k), ctx.legendre(l)))
        assert 0 in enumerate_family(twin, zero_in)
        fams = [zero_in]
        for _ in range(25):
            k, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
            sp = SIGN_PAIRS[rng.randrange(4)]
            fams.append(s1_family(k, sp.e1))
            if k != l:
                fams += [a_family(k, l, sp), s_family(k, l, sp)]
            if ctx.add(k, l) != 0:
                fams.append(t_family(k, l, sp))
        for fam in fams:
            assert brute_product(ctx, fam) == brute_product(twin, fam), (ctx.q, fam)
        assert twin._tables is None


@pytest.mark.parametrize("p, n", [(13, 1), (31, 1), (3, 3), (5, 2), (7, 2)])
def test_kept_tally_gives_the_results_of_fresh_contexts(p, n):
    # calls alternate between pairs of shifts and their sign pairs: (k, l),
    # (k, k), (l, k), (l, l), each sharing one shift with the last, T(-k, l),
    # which shares the tally of (k, l), and another T pair; each call must
    # give what a fresh context gives, so no stale tally is ever read
    def fresh(fam):
        new = mk_field(p, n)
        new.tables()
        return brute_product(new, fam)

    ctx = mk_field(p, n)
    ctx.tables()
    rng = random.Random(5 * p + n)
    k, l, j2, l2 = rng.sample(range(1, ctx.q), 4)
    if ctx.add(j2, l2) == 0:
        l2 = l
    fams = []
    for sp in SIGN_PAIRS:
        fams += [s_family(k, l, sp), s1_family(k, sp.e1), a_family(l, k, sp),
                 s1_family(l, sp.e2), t_family(ctx.neg(k), l, sp), t_family(j2, l2, sp)]
    assert [brute_product(ctx, fam) for fam in fams] == [fresh(fam) for fam in fams]


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3), (4099, 1)])
def test_tally_float_log_sums_equal_int64_sums(p, n):
    # each class's size and product off the float64 log sums equal those of
    # int64 sums over a walk of gen built by mul_poly
    ctx = field(p, n)
    tb, q, u = ctx.tables(), ctx.q, ctx.q - 1
    g = ctx.primitive_element()
    walk = list(itertools.accumulate(range(u - 1), lambda x, _: ctx.mul_poly(x, g), initial=1))
    logs = np.zeros(q, dtype=np.int64)
    logs[walk] = np.arange(u)
    rng = random.Random(p * n)
    pairs = [(0, 0)] + [(rng.randrange(q), rng.randrange(q)) for _ in range(40)]
    for s1, s2 in pairs:
        cls = tb.shifted(s1) * 3 + tb.shifted(s2) + 4
        zero, cls[0] = int(cls[0]), 9
        sums = np.zeros(10, dtype=np.int64)
        np.add.at(sums, cls, logs)
        want = (np.bincount(cls, minlength=10).tolist(),
                [walk[s % u] for s in sums.tolist()], zero)
        assert tb.tally(s1, s2) == want, (q, s1, s2)


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3)])
def test_tally_guard_fails_every_tables_row(monkeypatch, p, n):
    # one unit's log off by one breaks Wilson's log sum: brute_product
    # raises, and the tables suite turns that into 4 q failed rows
    ctx = mk_field(p, n)
    tb = ctx.tables()
    logs = tb._logs.copy()
    logs[ctx.minus_one] += 1
    tb._logs = logs
    with pytest.raises(IdentityFailure, match="Wilson"):
        brute_product(ctx, t_family(1, 1, (1, -1)))
    monkeypatch.setattr(sweeps, "mk_field", lambda p, n=1: ctx)
    rows = sweeps.run_field(p, n, ("tables",))
    assert len(rows) == 4 * ctx.q
    assert not any(r["ok"] for r in rows)
    assert {r["actual"] for r in rows} == {"unchecked"}


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3), (4099, 1), (65521, 1)])
def test_difference_vectors_equal_the_scan(p, n):
    # once a difference d is named, its first pair (s1, s1 + d) builds its
    # vectors and every pair reads them; each tally must equal the scan's,
    # at d = 0, 4 and a random d on the sound field, and at one of them in
    # turn under each fault, which the oracle must not see: every s1 up to
    # 4099, 300 sampled s1 at 65521
    q = p ** n
    rng = random.Random(q)
    ds = (0, 4 % p, rng.randrange(q))
    s1s = range(q) if q < 10 ** 4 else rng.sample(range(q), 300)
    faults = field_faults(q) if q < 100 else sampled_faults(q)
    for i, (name, fault) in enumerate(faults):
        ctx = mk_field(p, n)
        fault(ctx)
        tb = ctx.tables()
        for d in ds if name == "sound" else ds[i % 3:i % 3 + 1]:
            tb.name_difference(d)
            assert tb._diff[0] == d
            for s1 in s1s:
                s2 = ctx.add(s1, d)
                assert tb.tally(s1, s2) == tb._scan(s1, s2), (q, name, d, s1)
            assert tb._diff[0] == d and len(tb._diff) == 4


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3)])
def test_perturbed_inverse_transform_fails_tables_rows_never_raises(monkeypatch, p, n):
    # an inverse transform off by 0.3 gives no integer log sums: the build
    # of d = 4, which the tables suite names, raises at every pair, and the
    # suite turns that into failed rows: on a fresh context every one of
    # the 4 q rows fails
    inverse = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn", lambda *args, **kw: inverse(*args, **kw) + 0.3)
    q = p ** n
    rows = sweeps.run_field(p, n, ("tables",))
    assert len(rows) == 4 * q
    assert not any(r["ok"] for r in rows)
    assert {r["actual"] for r in rows} == {"unchecked"}
    assert all("are no integers" in r["expected"] for r in rows)


@pytest.mark.parametrize("p, n", [(13, 1), (4093, 1)])
def test_failed_build_of_the_named_difference_is_kept(monkeypatch, p, n):
    # under the same perturbed transform the failed build of d = 4 is kept
    # and raised again, with no traceback of its own, at every later pair:
    # one build per tables run, where each of the 4 q rows would build it
    from charprod.ffield import FieldTables

    inverse = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn", lambda *args, **kw: inverse(*args, **kw) + 0.3)
    builds = []
    build = FieldTables._difference_vectors

    def counted(self, d):
        builds.append(d)
        return build(self, d)

    monkeypatch.setattr(FieldTables, "_difference_vectors", counted)
    ctx = mk_field(p, n)
    monkeypatch.setattr(sweeps, "mk_field", lambda p, n=1: ctx)
    rows = sweeps.run_field(p, n, ("tables",))
    assert builds == [ctx.from_int(4)]
    assert len(rows) == 4 * ctx.q
    assert not any(r["ok"] for r in rows)
    assert all("are no integers" in r["expected"] for r in rows)
    d, failure = ctx.tables()._diff
    assert d == ctx.from_int(4) and isinstance(failure, IdentityFailure)
    with pytest.raises(IdentityFailure, match="are no integers") as info:
        ctx.tables().tally(0, d)
    assert info.value is failure and len(builds) == 1
    frames = [frame.name for frame in traceback.extract_tb(failure.__traceback__)]
    assert "tally" in frames and "_difference_vectors" not in frames


def test_tables_suite_builds_its_one_difference():
    # the q pairs of tables, all at d = 4, which the suite names, make one
    # build of two shifted vectors and no scan: 2 calls at 4093, not 2 q
    from charprod.ffield import FieldTables

    ctx = mk_field(4093)
    ctx.tables()
    calls = []
    shifted = FieldTables.shifted

    def counted(self, k):
        calls.append(k)
        return shifted(self, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FieldTables, "shifted", counted)
        rows = list(sweeps.suite_tables(ctx))
    assert all(r["ok"] for r in rows) and len(rows) == 4 * ctx.q
    assert calls == [0, ctx.from_int(4)]


def _count_transforms(monkeypatch):
    """The names of the np.fft calls made from now on, in order."""
    calls = []
    for name in ("rfftn", "irfftn"):
        def counted(*args, op=getattr(np.fft, name), **kwargs):
            calls.append(name)
            return op(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("p, n", SMALL_FIELDS[1:] + [(13, 3), (4093, 1)])
@pytest.mark.parametrize("suite", ["rescaling", "intro", "reciprocity"])
def test_one_off_pairs_make_no_transform(monkeypatch, p, n, suite):
    # suites whose pairs of shifts come alone or a few at one difference
    # name none and scan them: no FFT call on a fresh context
    calls = _count_transforms(monkeypatch)
    rows = sweeps.run_field(p, n, (suite,))
    assert rows and all(r["ok"] for r in rows)
    assert calls == []


@pytest.mark.parametrize("p, n", [(3, 1), (13, 1), (3, 3), (4093, 1)])
def test_many_pairs_at_an_unnamed_difference_only_scan(monkeypatch, p, n):
    # more than ceil(log2 q) pairs in a row at d = 4, which no one named,
    # are each scanned: no transform, no build, and the scan's tallies
    calls = _count_transforms(monkeypatch)
    ctx = mk_field(p, n)
    tb = ctx.tables()
    d = ctx.from_int(4)
    for s1 in range(min(ctx.q, (ctx.q - 1).bit_length() + 4)):
        s2 = ctx.add(s1, d)
        assert tb.tally(s1, s2) == tb._scan(s1, s2), (ctx.q, s1)
    assert calls == [] and tb._diff == (None,)


@functools.lru_cache(maxsize=None)
def every_family_reference(p, n):
    """(family, product_reference) for every family of F_{p^n}: one reference
    pass per field, shared by the two every-family oracle tests."""
    ref = field(p, n)
    return [(fam, product_reference(ref, fam)) for fam in all_families(ref)]


@pytest.mark.parametrize("p, n", SMALL_FIELDS)
def test_brute_product_matches_reference_on_every_small_family(p, n):
    ctx = field(p, n)
    for fam, want in every_family_reference(p, n):
        assert brute_product(ctx, fam) == want, (ctx.q, fam)


@pytest.mark.parametrize("p, n", SMALL_FIELDS)
def test_table_free_brute_product_matches_reference_on_every_small_family(p, n):
    # the byte-vector scan against the reference of the tallied scan: a = 0 in A,
    # the zero of each shifted condition and the T reflection
    ctx = mk_field(p, n)
    for fam, want in every_family_reference(p, n):
        assert brute_product(ctx, fam) == want, (ctx.q, fam)
    assert ctx._tables is None


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3)])
def test_byte_scan_negates_only_the_t_reflection(monkeypatch, p, n):
    # each condition translates the table of its sign, so a -1 condition
    # calls no neg; a T family's one call is _conditions' shift -j
    ctx = mk_field(p, n)
    neg, calls = ctx.neg, []
    monkeypatch.setattr(ctx, "neg", lambda a: calls.append(a) or neg(a))
    k, l = 1, 4  # k != l and k + l != 0 in F_13 and F_27
    fams = [s1_family(k, e) for e in (1, -1)]
    for sp in SIGN_PAIRS:
        fams += [a_family(k, l, sp), s_family(k, l, sp), t_family(k, l, sp)]
    for fam in fams:
        for scan in (enumerate_family, brute_product):
            calls.clear()
            scan(ctx, fam)
            assert len(calls) == (fam.kind == "T"), (fam, scan.__name__, calls)
    assert ctx._tables is None


def test_brute_product_matches_reference_on_sampled_families():
    # member counts around q/4 (A, S, T) and q/2 (S1), from a few dozen to
    # over a thousand members per product
    rng = random.Random(41)
    counts = []
    for ctx in [field(131), field(257), field(4093), field(13, 3)]:
        for _ in range(24):
            k, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
            sp = SIGN_PAIRS[rng.randrange(4)]
            fam = rng.choice([s1_family(k, sp.e1), a_family(k, l, sp),
                              s_family(k, l, sp), t_family(k, l, sp)])
            try:
                fam.validate(ctx)
            except ValueError:
                continue
            want = product_reference(ctx, fam)
            assert brute_product(ctx, fam) == want, (ctx.q, fam)
            counts.append((ctx.n, want.cardinality))
    assert {c > 64 for n, c in counts if n == 1} == {False, True}
    assert any(n == 3 for n, c in counts)


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(4099, 1), (17, 3)])
def test_square_table_is_euler_criterion(p, n):
    # the oracle's character (squares found by squaring every unit) equals
    # a^((q-1)/2) on every element of a table-free field
    ctx = mk_field(p, n)
    sq = ctx.square_bytes()
    assert ctx._tables is None
    assert len(sq) == ctx.q and sq[0] == 0
    for x in range(1, ctx.q):
        assert (1 if sq[x] else -1) == ctx.legendre(x), (ctx.q, x)


def test_square_table_is_built_once_per_context(monkeypatch):
    # a second enumerate_family (or byte scan) on one context reads the kept,
    # read-only table: no further half_unit_squares call
    from charprod.ffield import FieldCtx

    calls = []
    squares = FieldCtx.half_unit_squares

    def counted(self):
        calls.append(self.q)
        return squares(self)

    monkeypatch.setattr(FieldCtx, "half_unit_squares", counted)
    for p, n in [(13, 1), (3, 3)]:
        ctx = mk_field(p, n)
        first = enumerate_family(ctx, a_family(1, 2, (1, -1)))
        second = enumerate_family(ctx, t_family(1, 3, (-1, -1)))
        brute_product(ctx, s1_family(0, 1))
        assert calls == [ctx.q]
        assert isinstance(ctx.square_bytes(), bytes)
        assert first == members_reference(ctx, a_family(1, 2, (1, -1)))
        assert second == members_reference(ctx, t_family(1, 3, (-1, -1)))
        calls.clear()


def test_squares_are_listed_once_per_context_with_tables(monkeypatch):
    # tables and the byte scan both read ctx.square_bytes, in either order,
    # so the squares are listed once per context; a verify field's dickson
    # suite, whose enumerate_family scans bytes after the tables, too
    from charprod.ffield import FieldCtx

    calls = []
    squares = FieldCtx.half_unit_squares

    def counted(self):
        calls.append(self.q)
        return squares(self)

    monkeypatch.setattr(FieldCtx, "half_unit_squares", counted)
    for p, n in [(13, 1), (3, 3), (5, 2)]:
        alone = mk_field(p, n).square_bytes()
        grid = mk_field(p, n).tables().shifted(0)
        calls.clear()
        ctx = mk_field(p, n)
        ctx.tables()
        assert ctx.square_bytes() == alone
        assert enumerate_family(ctx, a_family(1, 2, (1, -1))) == members_reference(
            ctx, a_family(1, 2, (1, -1)))
        ctx = mk_field(p, n)
        ctx.square_bytes()
        assert np.array_equal(ctx.tables().shifted(0), grid)
        assert calls == [ctx.q] * 2, (p, n, calls)
        calls.clear()
        rows = sweeps.run_field(p, n, ("dickson",))
        assert rows and all(r["ok"] for r in rows)
        assert calls == [ctx.q], (p, n, calls)
        calls.clear()


def test_scans_check_the_bound_before_the_squares(monkeypatch):
    # the library's own bound, which cli and SweepConfig.validate reach
    # first: above SCAN_LIMIT a table-free scan raises before square_bytes
    # makes its q bytes, and at the bound both scans run
    from charprod import charsets

    monkeypatch.setattr(charsets, "SCAN_LIMIT", 13)
    fam = t_family(1, 3, (-1, -1))
    ctx = mk_field(17)
    for scan in (enumerate_family, brute_product):
        with pytest.raises(ValueError, match="q=17 is above the scan bound 13"):
            scan(ctx, fam)
    assert ctx._squares is None and ctx._tables is None
    ctx = mk_field(13)
    assert enumerate_family(ctx, fam) == members_reference(ctx, fam)
    assert brute_product(ctx, fam) == product_reference(ctx, fam)
    assert ctx._tables is None


def test_scan_never_reads_the_field_character(monkeypatch):
    # brute_product on a table-free field is right with legendre and pow
    # gone: the oracle shares no chi arithmetic with the closed side
    def broken(*args):
        raise RuntimeError("the scan must not call this")

    rng = random.Random(9)
    for p, n in [(13, 1), (3, 3), (5, 2), (31, 1)]:
        want = field(p, n)  # tables built: tallied scan, chi from the squares
        ctx = mk_field(p, n)
        monkeypatch.setattr(ctx, "legendre", broken)
        monkeypatch.setattr(ctx, "pow", broken)
        for _ in range(10):
            k, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
            sp = SIGN_PAIRS[rng.randrange(4)]
            fams = [s1_family(k, sp.e1)]
            if k != l:
                fams += [a_family(k, l, sp), s_family(k, l, sp)]
            if want.add(k, l) != 0:
                fams.append(t_family(k, l, sp))
            for fam in fams:
                assert brute_product(ctx, fam) == brute_product(want, fam), (p, n, fam)


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3)])
def test_enumerate_family_never_reads_the_log_parity(monkeypatch, p, n):
    # with tables built, member lists still come from the table of squares,
    # never from the log parity that legendre reads for the closed side
    from charprod import ffield

    def broken(*args):
        raise RuntimeError("enumerate_family must not call this")

    ctx = mk_field(p, n)
    ctx.tables()
    rng = random.Random(13 * p + n)
    fams = []
    for _ in range(30):
        k, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
        sp = SIGN_PAIRS[rng.randrange(4)]
        fams.append(s1_family(k, sp.e1))
        if k != l:
            fams += [a_family(k, l, sp), s_family(k, l, sp)]
        if ctx.add(k, l) != 0:
            fams.append(t_family(k, l, sp))
    want = [members_reference(ctx, fam) for fam in fams]
    monkeypatch.setattr(ffield.FieldTables, "shifted", broken)
    monkeypatch.setattr(ctx, "legendre", broken)
    monkeypatch.setattr(ctx, "pow", broken)
    assert [enumerate_family(ctx, fam) for fam in fams] == want


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3)])
def test_verify_oracle_never_reads_the_log_parity(monkeypatch, p, n):
    # after the tables are built, exp and log are overwritten by the units in
    # code order, so their log parity is no character, chi is overwritten
    # and legendre and pow raise.  The oracle's products and per-difference
    # counts stay right: its chi is the table of squares, its logs its own
    # walk of the units.  card_tally's closed classes come from legendre,
    # which then reads the overwritten chi; the oracle's counts sum them out
    def broken(*args):
        raise RuntimeError("the oracle must not call this")

    ref = field(p, n)
    rng = random.Random(7 * p + n)
    fams = []
    for _ in range(20):
        k, l = rng.randrange(ref.q), rng.randrange(ref.q)
        sp = SIGN_PAIRS[rng.randrange(4)]
        fams.append(s1_family(k, sp.e1))
        if k != l:
            fams += [a_family(k, l, sp), s_family(k, l, sp)]
        if ref.add(k, l) != 0:
            fams.append(t_family(k, l, sp))
    want = [product_reference(ref, fam) for fam in fams]
    # c(d) = |A_{0,d}|, d != 0, from the closed form on the sound field
    want_counts = [[card_closed(ref, a_family(0, d, sp)) for sp in SIGN_PAIRS]
                   for d in range(1, ref.q)]
    ctx = mk_field(p, n)
    tb, u = ctx.tables(), ctx.q - 1
    tb.exp = list(range(1, ctx.q)) * 2 + [0] * (2 * u + 1)  # exp[i] = i + 1
    tb.log = [2 * u] + list(range(u))
    tb.chi[:] = [-c for c in ref.tables().chi]
    monkeypatch.setattr(ctx, "legendre", broken)
    monkeypatch.setattr(ctx, "pow", broken)
    assert [brute_product(ctx, fam) for fam in fams] == want
    monkeypatch.delattr(ctx, "legendre")
    c = card_tally_grid(ctx)[0].sum(axis=(2, 3, 5))[1:]
    assert c[:, [e1 + 1 for e1, _ in SIGN_PAIRS], [e2 + 1 for _, e2 in SIGN_PAIRS]].tolist() \
        == want_counts
