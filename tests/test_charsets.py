import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charprod import sweeps
from charprod.charsets import (SIGN_PAIRS, SetFamily, SignPair, a_family,
                               brute_product, card_closed, enumerate_family,
                               parse_signs, report_row, s1_family, s_family,
                               sign_str, square_table, t_family, vanishing_poly)
from charprod.dickson import dickson_first, dickson_second
from charprod.ffield import mk_field
from helpers import (SMALL_FIELDS, all_families, card_count_blocks,
                     card_counts_reference, card_grid,
                     card_rows_reference, field, field_faults, pair_chars,
                     product_reference, small_ctxs)


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
    assert parse_signs("-+") == SignPair(-1, 1)
    assert parse_signs("+") == 1
    assert sign_str(SignPair(-1, 1)) == "-+"
    assert sign_str(-1) == "-"
    with pytest.raises(ValueError):
        parse_signs("+x")


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
    c = sweeps.card_tally(ctx)[0].sum(axis=(2, 3, 5))  # [d, e1 + 1, e2 + 1]
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
        tb._wrap = tb.tile(rng.integers(-1, 2, ctx.q).astype(np.int8))
        got, want = _tally_counts_grid(ctx), card_counts_reference(ctx)
        for kind in "AST":
            assert (got[kind] == want[kind]).all(), (ctx.q, kind)


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3), (4099, 1)])
def test_tally_counts_are_jacobi_sums(p, n):
    # sum_b chi(b) chi(b + d) = -1 for every d != 0, from the oracle's
    # counts alone: c++(d) + c--(d) - c+-(d) - c-+(d) = -1
    c = sweeps.card_tally(field(p, n))[0].sum(axis=(2, 3, 5))[1:]
    assert (c[:, 2, 2] + c[:, 0, 0] - c[:, 2, 0] - c[:, 0, 2] == -1).all()


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
    scaled = sorted((ctx.mul(lam, a) for a in
                     enumerate_family(ctx, s_family(k, l, (nu * sp.e1, nu * sp.e2)))),
                    key=ctx.elem_key)
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
    # the numpy mask and the byte mask must mark identical members
    from charprod import charsets

    rng = random.Random(11)
    # 4099 and 17^3 = 4913: a large prime field and a large extension field
    for ctx in [field(13), field(3, 2), field(5, 2), field(4099), field(17, 3)]:
        for _ in range(25):
            k, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
            sp = SIGN_PAIRS[rng.randrange(4)]
            fams = [s1_family(k, sp.e1)]
            if k != l:
                fams += [a_family(k, l, sp), s_family(k, l, sp)]
            if ctx.add(k, l) != 0:
                fams.append(t_family(k, l, sp))
            for fam in fams:
                vec = np.flatnonzero(charsets._mask(ctx, fam)).tolist()
                byt = list(itertools.compress(range(ctx.q), charsets._byte_mask(ctx, fam)))
                assert vec == byt, (ctx.q, fam)


@pytest.mark.parametrize("p, n", SMALL_FIELDS)
def test_brute_product_matches_reference_on_every_small_family(p, n):
    ctx = field(p, n)
    for fam in all_families(ctx):
        assert brute_product(ctx, fam) == product_reference(ctx, fam), (ctx.q, fam)


@pytest.mark.parametrize("p, n", SMALL_FIELDS)
def test_table_free_brute_product_matches_reference_on_every_small_family(p, n):
    # the byte-vector scan against the table-backed numpy scan: a = 0 in A,
    # the zero of each shifted condition and the T reflection
    ctx, ref = mk_field(p, n), field(p, n)
    for fam in all_families(ref):
        assert brute_product(ctx, fam) == product_reference(ref, fam), (ctx.q, fam)
    assert ctx._tables is None


def test_brute_product_matches_reference_on_sampled_families():
    # member counts around q/4 (A, S, T) and q/2 (S1) fall on both sides of
    # the 64 members that int64 halving leaves to ctx.prod at n = 1
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
    sq = square_table(ctx)
    assert ctx._tables is None
    assert len(sq) == ctx.q and sq[0] == 0
    for x in range(1, ctx.q):
        assert (1 if sq[x] else -1) == ctx.legendre(x), (ctx.q, x)


def test_scan_never_reads_the_field_character(monkeypatch):
    # brute_product on a table-free field is right with legendre and pow
    # gone: the oracle shares no chi arithmetic with the closed side
    def broken(*args):
        raise RuntimeError("the scan must not call this")

    rng = random.Random(9)
    for p, n in [(13, 1), (3, 3), (5, 2), (31, 1)]:
        want = field(p, n)  # tables built: vector scan, chi from the squares
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
    from charprod import charsets, ffield

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
    want = [sorted(np.flatnonzero(charsets._mask(ctx, fam)).tolist(), key=ctx.elem_key)
            for fam in fams]
    monkeypatch.setattr(ffield.FieldTables, "shifted", broken)
    monkeypatch.setattr(ctx, "legendre", broken)
    monkeypatch.setattr(ctx, "pow", broken)
    assert [enumerate_family(ctx, fam) for fam in fams] == want


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3)])
def test_verify_oracle_never_reads_the_log_parity(monkeypatch, p, n):
    # the tables are built while multiplication walks the units in code
    # order, so their log parity is no character; then the true exp and log
    # come back, chi is overwritten and legendre and pow raise.  The
    # oracle's products and per-difference counts stay right: its chi is
    # the table of squares.  card_tally's closed classes come from legendre,
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
    gen = ctx.primitive_element()
    with monkeypatch.context() as m:
        m.setattr(ctx, "primitive_element", lambda: gen)
        m.setattr(ctx, "mul", lambda a, b: a % (ctx.q - 1) + 1)  # 1, 2, ..., q - 1
        tb = ctx.tables()
    tb.exp, tb.log = ref.tables().exp, ref.tables().log
    tb.chi[:] = [-c for c in ref.tables().chi]
    monkeypatch.setattr(ctx, "legendre", broken)
    monkeypatch.setattr(ctx, "pow", broken)
    assert [brute_product(ctx, fam) for fam in fams] == want
    monkeypatch.delattr(ctx, "legendre")
    c = sweeps.card_tally(ctx)[0].sum(axis=(2, 3, 5))[1:]
    assert c[:, [e1 + 1 for e1, _ in SIGN_PAIRS], [e2 + 1 for _, e2 in SIGN_PAIRS]].tolist() \
        == want_counts
