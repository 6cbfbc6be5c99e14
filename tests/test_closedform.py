import random

import pytest

from charprod.charsets import (SIGN_PAIRS, SignPair, a_family, brute_product,
                               s1_family, s_family, t_family)
from charprod.closedform import (INF, all_square_class, closed_product,
                                 det_sqrt, mixed_class_root, normalized_frame,
                                 prod_S_single, prod_T_values,
                                 quadruple_from_one, rescale_T, swap_T)
from charprod.ffield import IdentityFailure, mk_field
from helpers import (det_root_ext2, e2_div, e2_inv, e2_pow, ext2_solve_unit,
                     field, named_ratio_row, small_ctxs)


# ---------------------------------------------------------------------------
# single-condition products
# ---------------------------------------------------------------------------

def test_prod_S_single_examples():
    assert prod_S_single(field(13), 0, 1) == 12
    assert prod_S_single(field(7), 1, 1) == 3
    assert prod_S_single(field(13), 1, 1) == 7


def test_prod_S_single_all_small():
    for ctx in small_ctxs():
        for k in range(ctx.q):
            for s in (1, -1):
                assert prod_S_single(ctx, k, s) == \
                    brute_product(ctx, s1_family(k, s)).value


# ---------------------------------------------------------------------------
# relation solver
# ---------------------------------------------------------------------------

def test_quadruple_example_q13():
    quad = quadruple_from_one(field(13), 0, 4, (SignPair(1, 1), 3))
    assert quad == {SignPair(1, 1): 3, SignPair(1, -1): 12,
                    SignPair(-1, 1): 6, SignPair(-1, -1): 11}


def test_quadruple_degenerate_l_zero():
    c7 = field(7)
    seed = brute_product(c7, s_family(c7.neg(4), 0, (-1, -1))).value
    quad = quadruple_from_one(c7, c7.neg(4), 0, (SignPair(-1, -1), seed))
    for sp in SIGN_PAIRS:
        assert quad[sp] == brute_product(c7, s_family(c7.neg(4), 0, sp)).value


def test_quadruple_random_seeds():
    rng = random.Random(12)
    for ctx in small_ctxs():
        for _ in range(8):
            k, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
            if k == l:
                continue
            want = {sp: brute_product(ctx, s_family(k, l, sp)).value
                    for sp in SIGN_PAIRS}
            for seed_sp in SIGN_PAIRS:
                assert quadruple_from_one(ctx, k, l, (seed_sp, want[seed_sp])) == want


def test_quadruple_rejects_equal_params():
    with pytest.raises(ValueError):
        quadruple_from_one(field(7), 3, 3, (SignPair(1, 1), 1))


# ---------------------------------------------------------------------------
# normalization frames
# ---------------------------------------------------------------------------

def test_frame_examples():
    f = normalized_frame(field(13), 0)
    assert (f.j, f.l, f.r) == (0, 4, 2)
    f = normalized_frame(field(7), INF)
    c7 = field(7)
    assert (f.j, f.l, f.r) == (4, 0, c7.from_int(-2))
    f = normalized_frame(c7, 5)
    assert (f.j, f.l, f.r) == (1, 3, 1)


def test_frame_relations_all_tau():
    for ctx in small_ctxs():
        four = ctx.from_int(4)
        for tau in [INF] + [t for t in range(ctx.q) if t != ctx.minus_one]:
            f = normalized_frame(ctx, tau)
            assert ctx.add(f.j, f.l) == four
            assert f.r == ctx.sub(f.l, ctx.from_int(2))


def test_frame_carries_square_class():
    # cls is (chi(tau), chi(tau+1)); None at inf and (0, 1) at tau = 0
    for ctx in small_ctxs():
        assert normalized_frame(ctx, INF).cls is None
        assert normalized_frame(ctx, 0).cls == (0, 1)
        for tau in range(1, ctx.q):
            if tau != ctx.minus_one:
                assert normalized_frame(ctx, tau).cls == \
                    (ctx.legendre(tau), ctx.legendre(ctx.add(tau, ctx.one)))


def test_frame_rejects_minus_one():
    with pytest.raises(ValueError):
        normalized_frame(field(13), 12)
    with pytest.raises(ValueError):
        prod_T_values(field(13), 5, 5)  # j + l = 10 != 4


# ---------------------------------------------------------------------------
# deterministic square roots
# ---------------------------------------------------------------------------

def test_det_sqrt_examples_q7():
    c7 = field(7)
    r3 = det_sqrt(c7, normalized_frame(c7, 5))
    assert r3 == 6  # <u^2> with u = 3, and 6^2 = 1 = j
    r2 = det_sqrt(c7, normalized_frame(c7, 3))
    assert r2 == 6  # <4> = 4 + 2, and 6^2 = 1 = l
    fr = normalized_frame(c7, 2)
    r1 = det_sqrt(c7, fr)
    assert r1 == 4
    assert mixed_class_root(c7, fr) == 3  # 3^2 = 2 = tau, and chi(2) = 1


def test_det_sqrt_case_mismatch():
    c7 = field(7)
    # tau = 1 is all-square at q = 7; 0 and inf are in no class
    for tau in (1, 0, INF):
        with pytest.raises(ValueError):
            det_sqrt(c7, normalized_frame(c7, tau))
        with pytest.raises(ValueError):
            mixed_class_root(c7, normalized_frame(c7, tau))
    for tau in (2, 0, INF):
        with pytest.raises(ValueError):
            all_square_class(c7, normalized_frame(c7, tau))


def test_det_sqrt_named_roots_square_correctly():
    for ctx in small_ctxs():
        for tau in range(1, ctx.q):
            if tau == ctx.minus_one:
                continue
            cls = (ctx.legendre(tau), ctx.legendre(ctx.add(tau, ctx.one)))
            case = {(1, -1): "a1", (-1, 1): "a2", (-1, -1): "a3"}.get(cls)
            if case is None:
                continue
            frame = normalized_frame(ctx, tau)
            det_sqrt(ctx, frame)  # raises unless it squares correctly
            c = mixed_class_root(ctx, frame)
            if case == "a1":
                assert ctx.mul(c, c) == tau
            elif case == "a2":
                assert ctx.mul(c, c) == ctx.add(tau, ctx.one)
            else:
                assert ctx.mul(c, c) == ctx.div(tau, ctx.add(tau, ctx.one))


def test_det_sqrt_reciprocal_invariance():
    # the F_q ladder value equals the F_{q^2} one for either root u, 1/u
    # of u + 1/u = r, so the choice of u does not matter
    for ctx in small_ctxs():
        for tau in range(1, ctx.q):
            if tau == ctx.minus_one:
                continue
            cls = (ctx.legendre(tau), ctx.legendre(ctx.add(tau, ctx.one)))
            case = {(1, -1): "a1", (-1, 1): "a2", (-1, -1): "a3"}.get(cls)
            if case is None:
                continue
            frame = normalized_frame(ctx, tau)
            u = ext2_solve_unit(ctx, frame.r)
            got = det_sqrt(ctx, frame)
            assert got == det_root_ext2(ctx, case, u), (ctx.q, tau)
            assert got == det_root_ext2(ctx, case, e2_inv(ctx, u)), (ctx.q, tau)


# ---------------------------------------------------------------------------
# the main dispatch
# ---------------------------------------------------------------------------

def test_prod_T_closed_examples():
    c7 = field(7)
    assert prod_T_values(c7, 2, 2)[(-1, -1)] == 5
    assert prod_T_values(c7, 0, 4)[(-1, -1)] == 2
    assert prod_T_values(c7, 1, 3)[(-1, -1)] == 6


def test_prod_T_closed_rejects_unnormalized():
    with pytest.raises(ValueError):
        prod_T_values(field(13), 1, 1)[(1, 1)]


def test_master_small_sweep():
    # every tau, every sign pair, against the oracle
    for ctx in small_ctxs():
        for tau in [INF] + [t for t in range(ctx.q) if t != ctx.minus_one]:
            f = normalized_frame(ctx, tau)
            vals = prod_T_values(ctx, f.j, f.l)
            for sp in SIGN_PAIRS:
                want = brute_product(ctx, t_family(f.j, f.l, sp)).value
                assert vals[sp] == want, (ctx.q, tau, sp)


def test_prod_T_values_reads_the_square_class_once(monkeypatch):
    # one (chi(tau), chi(tau + 1)) read per tau off {0, inf}: the frame
    # carries the class, and the rows and root entry points read it there
    from charprod import closedform

    reads = []

    def counted(ctx, tau):
        reads.append(tau)
        return real(ctx, tau)

    real = closedform.square_classes
    monkeypatch.setattr(closedform, "square_classes", counted)
    for ctx in [field(13), field(3, 3)]:
        taus = [t for t in range(1, ctx.q) if t != ctx.minus_one]
        frames = [normalized_frame(ctx, tau) for tau in taus]
        reads.clear()
        for f in frames:
            prod_T_values(ctx, f.j, f.l)
        assert reads == taus, ctx.q


def test_named_ratio_rows_match_oracle_and_dispatch():
    # the paper's q mod 8 / mod 12 rows at tau = 1, 3, 1/3 are served by
    # the square-class rows; SMALL_FIELDS has every unit residue mod 24
    checked = set()
    for ctx in small_ctxs():
        taus = [ctx.one] if ctx.p == 3 else [ctx.one, ctx.from_int(3),
                                             ctx.inv(ctx.from_int(3))]
        for tau in taus:
            frame = normalized_frame(ctx, tau)
            want = named_ratio_row(ctx, tau)
            assert prod_T_values(ctx, frame.j, frame.l) == want, (ctx.q, tau)
            for sp in SIGN_PAIRS:
                fam = t_family(frame.j, frame.l, sp)
                assert brute_product(ctx, fam).value == want[sp], (ctx.q, tau, sp)
        checked.add(ctx.q % 24)
    assert {1, 5, 7, 11, 13, 17, 19, 23} <= checked


def test_mixed_class_products_square_to_targets():
    # j square / l nonsquare: T^{--} squares to j; j nonsquare / l
    # square: T^{--} squares to l; both nonsquares: T^{+-} squares to j/l
    for ctx in small_ctxs():
        for tau in range(1, ctx.q):
            if tau == ctx.minus_one:
                continue
            frame = normalized_frame(ctx, tau)
            cj, cl = ctx.legendre(frame.j), ctx.legendre(frame.l)
            if (cj, cl) == (1, -1):
                v = prod_T_values(ctx, frame.j, frame.l)[(-1, -1)]
                assert ctx.mul(v, v) == frame.j
            elif (cj, cl) == (-1, 1):
                v = prod_T_values(ctx, frame.j, frame.l)[(-1, -1)]
                assert ctx.mul(v, v) == frame.l
            elif (cj, cl) == (-1, -1):
                v = prod_T_values(ctx, frame.j, frame.l)[(1, -1)]
                assert ctx.mul(v, v) == ctx.div(frame.j, frame.l)


def test_rescale_examples():
    c7 = field(7)
    # lambda = 1 reduces to the normalized dispatch
    assert rescale_T(c7, 0, 4, (-1, -1)) == prod_T_values(c7, 0, 4)[(-1, -1)]
    assert rescale_T(c7, 4, 4, (-1, -1)) == 6
    assert brute_product(c7, t_family(4, 4, (-1, -1))).value == 6


def test_rescale_random_sweep():
    rng = random.Random(13)
    for ctx in small_ctxs():
        for _ in range(20):
            jp, lp = rng.randrange(ctx.q), rng.randrange(ctx.q)
            if ctx.add(jp, lp) == 0:
                continue
            for sp in SIGN_PAIRS:
                assert rescale_T(ctx, jp, lp, sp) == \
                    brute_product(ctx, t_family(jp, lp, sp)).value


def test_rescale_rejects_degenerate():
    with pytest.raises(ValueError):
        rescale_T(field(7), 3, 4, (1, 1))


def test_rescale_q3_negative_exponent_edge():
    # m = 1 at q = 3, so m - beta - gamma can vanish or go negative;
    # field powers handle it, the oracle confirms it
    c3 = field(3)
    for jp in range(3):
        for lp in range(3):
            if c3.add(jp, lp) == 0:
                continue
            for sp in SIGN_PAIRS:
                assert rescale_T(c3, jp, lp, sp) == \
                    brute_product(c3, t_family(jp, lp, sp)).value


def test_closed_product_matches_brute_every_family():
    # every A/S/S1/T family on the small fields with q <= 13, including
    # A families that contain 0 (closed value 0) and S1 with k = 0
    a_with_zero = s1_at_zero = 0
    for ctx in small_ctxs():
        if ctx.q > 13:
            continue
        for k in range(ctx.q):
            for e in (1, -1):
                fam = s1_family(k, e)
                assert closed_product(ctx, fam) == brute_product(ctx, fam).value
                s1_at_zero += k == 0
            for l in range(ctx.q):
                for sp in SIGN_PAIRS:
                    fams = [t_family(k, l, sp)] if ctx.add(k, l) != 0 else []
                    if k != l:
                        fams += [a_family(k, l, sp), s_family(k, l, sp)]
                    for fam in fams:
                        want = brute_product(ctx, fam).value
                        assert closed_product(ctx, fam) == want, (ctx.q, fam)
                        a_with_zero += fam.kind == "A" and want == 0
    assert a_with_zero and s1_at_zero
    # eval and table compare the library dispatch itself, not a copy
    from charprod import cli
    assert cli.closed_product is closed_product
    with pytest.raises(ValueError):
        closed_product(field(7), t_family(3, 4, (1, 1)))  # j + l = 0


def test_prod_S_closed_matches_brute():
    rng = random.Random(14)
    for ctx in small_ctxs():
        for _ in range(15):
            k, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
            if k == l:
                continue
            for sp in SIGN_PAIRS:
                fam = s_family(k, l, sp)
                assert closed_product(ctx, fam) == brute_product(ctx, fam).value


def test_swap_examples():
    assert swap_T(field(5), 1, 3, -1) == 1
    # swapping a symmetric pair is the identity
    c13 = field(13)
    for mu in (1, -1):
        assert swap_T(c13, 2, 2, mu) == rescale_T(c13, 2, 2, (mu, mu))


def test_swap_random():
    rng = random.Random(15)
    for ctx in small_ctxs():
        for _ in range(12):
            j, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
            if ctx.add(j, l) == 0:
                continue
            for mu in (1, -1):
                assert swap_T(ctx, j, l, mu) == \
                    brute_product(ctx, t_family(l, j, (mu, mu))).value


def test_swap_rejects_degenerate():
    with pytest.raises(ValueError):
        swap_T(field(7), 3, 4, 1)
    with pytest.raises(ValueError):
        swap_T(field(7), 1, 1, 0)


# ---------------------------------------------------------------------------
# section-6 style identities
# ---------------------------------------------------------------------------

def test_two_plus_sqrt_classes_on_jl_pairs():
    # j + l = 4 with j, l nonzero squares: chi(2 + sqrt j) = chi(2) chi(2 + sqrt l)
    for ctx in small_ctxs():
        for j in range(1, ctx.q):
            l = ctx.sub(ctx.from_int(4), j)
            if l == 0 or ctx.legendre(j) != 1 or ctx.legendre(l) != 1:
                continue
            a = ctx.sqrt_canonical(j)
            b = ctx.sqrt_canonical(l)
            lhs = ctx.legendre(ctx.add(ctx.from_int(2), a))
            rhs = ctx.legendre(ctx.from_int(2)) * \
                ctx.legendre(ctx.add(ctx.from_int(2), b))
            assert lhs == rhs


def test_all_square_class_inconsistent_character():
    # chi(5) flipped at q = 13 after delta is cached puts tau = 4 in the
    # all-square class while l = 6 still reads as a nonsquare; that must
    # raise IdentityFailure, not multiply a None root
    ctx = mk_field(13)
    ctx.delta
    ctx.tables().chi[5] *= -1
    with pytest.raises(IdentityFailure, match="l is a nonsquare"):
        all_square_class(ctx, normalized_frame(ctx, 4))


def test_all_square_key_branch_independent():
    # the class of 1 + sqrt(l)/2 equals that of 1 - sqrt(l)/2 whenever
    # tau and tau+1 are both nonzero squares
    for ctx in small_ctxs():
        half = ctx.inv(ctx.from_int(2))
        for tau in range(1, ctx.q):
            if tau == ctx.minus_one:
                continue
            if ctx.legendre(tau) != 1 or ctx.legendre(ctx.add(tau, ctx.one)) != 1:
                continue
            frame = normalized_frame(ctx, tau)
            root = ctx.sqrt_canonical(frame.l)
            for s in (root, ctx.neg(root)):
                plus = ctx.legendre(ctx.add(ctx.one, ctx.mul(s, half)))
                minus = ctx.legendre(ctx.sub(ctx.one, ctx.mul(s, half)))
                assert plus == minus != 0
            mu = all_square_class(ctx, frame)
            assert mu in (1, -1)
            assert mu == ctx.legendre(ctx.sub(ctx.one, ctx.mul(root, half)))


def test_sklu_products_via_unit_powers():
    # prod S_{r-2,r+2}^{-eps,-} = <(-u)^m> and the E-shaped form for
    # signs (eps, +), whenever r avoids the exceptional root sets
    for ctx in small_ctxs():
        two = ctx.from_int(2)
        m = ctx.m
        for r in range(ctx.q):
            u = ext2_solve_unit(ctx, r)
            k, l = ctx.sub(r, two), ctx.add(r, two)
            mu = e2_pow(ctx, ctx.e2_neg(u), m)
            mui = e2_inv(ctx, mu)
            want1 = brute_product(ctx, s_family(k, l, (-ctx.eps, -1))).value
            val1 = ctx.e2_add(mu, mui)
            if ctx.legendre(ctx.add(r, ctx.from_int(-2))) != -ctx.eps \
                    or ctx.legendre(ctx.add(r, two)) != -1:
                # r outside A_{-2,2}^{-eps,-}: identity must hold
                assert val1 == ctx.e2_embed(want1), (ctx.q, r)
            if r not in (two, ctx.neg(two)):
                den = ctx.e2_sub(u, e2_inv(ctx, u))
                val2 = ctx.e2_neg(e2_div(ctx, ctx.e2_sub(mu, mui), den))
                want2 = brute_product(ctx, s_family(k, l, (ctx.eps, 1))).value
                if ctx.legendre(ctx.sub(r, two)) != ctx.eps \
                        or ctx.legendre(l) != 1:
                    assert val2 == ctx.e2_embed(want2), (ctx.q, r)
