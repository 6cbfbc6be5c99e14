import functools
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charprod.charsets import (SIGN_PAIRS, a_family, brute_product, enumerate_family,
                               s1_family, s_family, t_family)
from charprod.ffield import (EvenCharacteristicError, Ext2Elem, FieldError,
                             FieldTables, FieldTooLargeError, IdentityFailure,
                             NotPrimeError, PROD_CHUNK, _is_irreducible, is_prime, mk_field,
                             power, tonelli_shanks)
from helpers import (SMALL_FIELDS, decode, e2_inv, e2_pow, e2_project,
                     ext2_solve_unit, field, field_faults, half_units, prime_power,
                     product_reference, small_ctxs, unit_order_test)


def test_mk_field_examples():
    assert (field(13).q, field(13).eps, field(13).m) == (13, 1, 3)
    assert (field(7).q, field(7).eps, field(7).m) == (7, -1, 2)
    c9 = field(3, 2)
    assert (c9.q, c9.eps, c9.m) == (9, 1, 2)


def test_modulus_f9_is_first_rootfree_quadratic():
    # oracle: scan monic quadratics over F_3 in low-degree-first order and
    # take the first without a root (degree 2, so root-free = irreducible)
    expected = None
    for c0, c1 in itertools.product(range(3), repeat=2):
        if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
            expected = (c0, c1, 1)
            break
    assert expected == (1, 0, 1)
    assert field(3, 2).modulus == expected


def test_modulus_low_degree_first_order():
    # for F_27 the low-degree-first choice differs from integer encoding
    # order: the winner is x^3 + 2x^2 + 1, not x^3 + 2x + 1
    assert field(3, 3).modulus == (1, 0, 2, 1)


def test_mk_field_errors():
    with pytest.raises(NotPrimeError):
        mk_field(15)
    with pytest.raises(EvenCharacteristicError):
        mk_field(2, 5)
    with pytest.raises(FieldTooLargeError):
        mk_field(3, 21)
    with pytest.raises(FieldError):
        mk_field(7, 0)


def test_is_prime_and_prime_power():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert prime_power(343) == (7, 3)
    assert prime_power(15) is None
    assert prime_power(13) == (13, 1)
    assert [is_prime(m) for m in (0, 1, 2, 4, 9, 12, -9)] == \
        [False, False, True, False, False, False, False]
    assert [prime_power(m) for m in (0, 1, 2, 4, 9, 12, -9)] == \
        [None, None, (2, 1), (2, 2), (3, 2), None, None]


def test_power_matches_builtin_pow():
    for m in (2, 7, 12, 101, 2**31 - 1):
        for x in (0, 1, 3, m - 1, 12345):
            for e in range(65):
                assert power(x % m, e, lambda a, b: a * b % m, 1 % m) == pow(x, e, m)


def test_primitive_element_pinned():
    # the generator of smallest code, which indexes the log tables; a
    # change in the candidate order of the search shows up here
    want = {(3, 1): 2, (5, 1): 2, (7, 1): 3, (11, 1): 2, (13, 1): 2, (17, 1): 3,
            (19, 1): 2, (23, 1): 5, (29, 1): 2, (31, 1): 3, (3, 2): 4,
            (3, 3): 3, (5, 2): 7, (7, 2): 9}
    assert {pn: mk_field(*pn).primitive_element() for pn in SMALL_FIELDS} == want


def test_arith_examples():
    assert field(17).mul(6, 6) == 2
    assert field(13).inv(4) == 10
    for ctx in small_ctxs():
        for g in range(1, ctx.q):
            assert ctx.pow(g, ctx.q - 1) == ctx.one


def test_field_axioms_random():
    rng = random.Random(20240811)
    for ctx in small_ctxs():
        for _ in range(80):
            a, b, c = (rng.randrange(ctx.q) for _ in range(3))
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.add(a, ctx.neg(a)) == 0
            if a != 0:
                assert ctx.mul(a, ctx.inv(a)) == ctx.one
                assert ctx.div(b, a) == ctx.mul(b, ctx.inv(a))
                assert ctx.pow(a, -1) == ctx.inv(a)


def test_prime_field_inverse_of_every_unit():
    # every unit of the small prime fields, and three at q = 2^31 - 1
    for p in [p for p, n in SMALL_FIELDS if n == 1]:
        ctx = field(p)
        assert all(ctx.mul(a, ctx.inv(a)) == ctx.one for a in range(1, p)), p
    ctx = mk_field(2147483647)
    for a in (2, 3, ctx.q - 1):
        assert ctx.mul(a, ctx.inv(a)) == ctx.one, a


def test_large_prime_scalar_path():
    # near the machine bound everything must still work without tables
    ctx = mk_field(2147483629)
    a = 123456789
    assert ctx.mul(a, ctx.inv(a)) == 1
    r = ctx.sqrt_canonical(ctx.mul(a, a))
    assert r in (a, ctx.neg(a)) and r <= ctx.neg(r)
    assert ctx.legendre(ctx.mul(a, a)) == 1
    assert ctx.legendre(ctx.from_int(2)) == (-1) ** ctx.m
    assert ctx._tables is None  # scalar arithmetic never builds the tables


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        field(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        field(7).div(3, 0)


def test_legendre_examples():
    assert field(13).legendre(3) == 1
    assert field(13).legendre(5) == -1
    for ctx in small_ctxs():
        assert ctx.legendre(0) == 0


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_legendre_multiplicative(pn, data):
    ctx = field(*pn)
    a = data.draw(st.integers(0, ctx.q - 1))
    b = data.draw(st.integers(0, ctx.q - 1))
    assert ctx.legendre(ctx.mul(a, b)) == ctx.legendre(a) * ctx.legendre(b)


def test_legendre_counts_squares():
    for ctx in small_ctxs():
        squares = {ctx.mul(x, x) for x in range(1, ctx.q)}
        for a in range(ctx.q):
            want = 0 if a == 0 else (1 if a in squares else -1)
            assert ctx.legendre(a) == want


def test_legendre_prime_subfield_power():
    for p, n in [(3, 2), (3, 3), (5, 2), (7, 2), (3, 4)]:
        ctx, base = field(p, n), field(p)
        for a in range(p):
            assert ctx.legendre(ctx.from_int(a)) == base.legendre(a) ** n


def test_classical_criteria():
    # chi(2), chi(-1), chi(-3) congruence criteria over many prime powers
    for q in range(3, 400, 2):
        pp = prime_power(q)
        if pp is None:
            continue
        ctx = mk_field(*pp)
        assert (ctx.legendre(ctx.from_int(2)) == 1) == (q % 8 in (1, 7))
        assert (ctx.legendre(ctx.minus_one) == 1) == (q % 4 == 1)
        if ctx.p != 3:
            assert (ctx.legendre(ctx.from_int(-3)) == 1) == (q % 3 == 1)
        assert ctx.legendre(ctx.from_int(2)) == (-1) ** ctx.m


def test_sqrt_examples():
    assert field(13).sqrt_canonical(4) == 2
    # candidates for sqrt(2) mod 17 from the exhaustive square table
    cands = sorted(x for x in range(17) if x * x % 17 == 2)
    assert cands == [6, 11]
    assert field(17).sqrt_canonical(2) == 6
    assert field(13).sqrt_canonical(5) is None


def test_sqrt_roundtrip_and_canonical():
    for ctx in small_ctxs():
        for a in range(ctx.q):
            r = ctx.sqrt_canonical(a)
            if ctx.legendre(a) == -1:
                assert r is None
            else:
                assert ctx.mul(r, r) == a
                assert r <= ctx.neg(r)


def test_sqrt_canonical_f9():
    c9 = field(3, 2)
    theta = c9.encode((0, 1))
    # theta^2 = -1 = 2; the canonical root of 2 is theta, not -theta
    assert c9.mul(theta, theta) == c9.from_int(2)
    assert c9.sqrt_canonical(c9.from_int(2)) == theta


def test_delta_f9():
    assert field(3, 2).delta == field(3, 2).encode((1, 1))


def test_elem_text_roundtrip():
    c27 = field(3, 3)
    assert c27.elem_str(c27.encode((2, 0, 1))) == "2,0,1"
    assert c27.parse_elem("2,0,1") == c27.encode((2, 0, 1))
    assert c27.parse_elem("-1") == c27.from_int(-1)
    assert field(13).elem_str(11) == "11"
    assert field(13).parse_elem("-4") == 9
    with pytest.raises(ValueError):
        field(13).parse_elem("1,2")
    with pytest.raises(ValueError):
        c27.parse_elem("1,2")


@pytest.mark.parametrize("p, n", [(3, 3), (5, 2), (7, 2)])
def test_elem_str_is_the_digits_of_every_code(p, n):
    ctx = field(p, n)
    for a in range(ctx.q):
        text = ctx.elem_str(a)
        assert text == ",".join(map(str, decode(ctx, a)))
        assert ctx.parse_elem(text) == a


def test_canonical_order_vs_index_order():
    c9 = field(3, 2)
    # the canonical order is the order of the codes: (1,0) = 1 comes before
    # (0,1) = 3, the top digit compared first
    assert list(c9.elements_canonical()) == list(range(9))
    assert list(c9.elements_canonical())[:4] == [
        c9.encode(v) for v in ((0, 0), (1, 0), (2, 0), (0, 1))]


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3), (1289, 3)])
def test_elem_rank_is_the_position_in_canonical_order(p, n):
    # an element's rank is its code; at 1289^3 the e2_key of the last pair,
    # q^2 - 1, stays below 2^62
    import numpy as np

    ctx = mk_field(p, n)
    if ctx.q < 10 ** 4:
        assert list(ctx.elements_canonical()) == list(range(ctx.q))
    top = np.array([ctx.q - 1], dtype=np.int64)
    assert ctx.e2_key(Ext2Elem(top, top)).tolist() == [ctx.q ** 2 - 1] < [2 ** 62]


@pytest.mark.parametrize("tables", [False, True])
@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3)])
def test_every_tie_break_is_the_smallest_code(p, n, tables):
    # the square root, delta, the generator and member lists all take the
    # smaller code; squares and orders come from mul_poly walks, with no
    # pow, legendre or tonelli_shanks
    import numpy as np

    ctx = mk_field(p, n)
    if tables:
        ctx.tables()
    q = ctx.q
    roots = {}
    for x in range(q):
        roots.setdefault(ctx.mul_poly(x, x), []).append(x)
    want = [min(roots[a]) if a in roots else None for a in range(q)]
    assert [ctx.sqrt_canonical(a) for a in range(q)] == want
    assert ctx.sqrt_canonical(np.arange(q, dtype=np.int64)).tolist() == \
        [-1 if r is None else r for r in want]
    assert ctx.delta == min(set(range(q)) - roots.keys())

    def order(g):
        x, k = g, 1
        while x != ctx.one:
            x, k = ctx.mul_poly(x, g), k + 1
        return k

    g = ctx.primitive_element()
    assert order(g) == q - 1 and all(order(c) < q - 1 for c in range(1, g))
    rng = random.Random(q)
    for _ in range(12):
        k, l = rng.randrange(q), rng.randrange(q)
        sp = SIGN_PAIRS[rng.randrange(4)]
        fams = [s1_family(k, sp.e1)]
        if k != l:
            fams += [a_family(k, l, sp), s_family(k, l, sp)]
        if ctx.add(k, l) != 0:
            fams.append(t_family(k, l, sp))
        for fam in fams:
            members = enumerate_family(ctx, fam)
            assert all(a < b for a, b in zip(members, members[1:])), fam
    assert (ctx._tables is not None) == tables


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3)])
def test_ext2_operations_serve_code_arrays(p, n):
    # each e2_* operation on int64 (lo, hi) arrays equals its scalar result
    # element by element, and e2_key sorts as the code pairs (lo, hi) do;
    # all of F_{q^2} where q^2 <= 2401, else 2000 random pairs
    import numpy as np

    ctx = field(p, n)
    q = ctx.q
    if q * q <= 2401:
        lo, hi = np.divmod(np.arange(q * q, dtype=np.int64), q)
    else:
        rng = np.random.default_rng(q)
        lo, hi = rng.integers(0, q, size=(2, 2000), dtype=np.int64)
    x = Ext2Elem(lo, hi)
    y = Ext2Elem(np.roll(lo, 1), np.flip(hi))

    def elements(z):
        return [Ext2Elem(*a) for a in zip(z.lo.tolist(), z.hi.tolist())]

    xs, ys = elements(x), elements(y)
    for op in (ctx.e2_add, ctx.e2_sub, ctx.e2_mul):
        assert elements(op(x, y)) == [op(a, b) for a, b in zip(xs, ys)]
    assert elements(ctx.e2_neg(x)) == [ctx.e2_neg(a) for a in xs]
    for op in (ctx.e2_norm, ctx.e2_key):
        assert op(x).tolist() == [op(a) for a in xs]
    order = np.argsort(ctx.e2_key(x), kind="stable").tolist()
    assert [xs[i] for i in order] == sorted(xs)


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3)])
def test_base_operations_serve_code_arrays(p, n):
    # mul, inv, div, legendre, pow, sqrt_canonical and e2_sqrt on int64
    # arrays equal their scalar results element by element (-1 where
    # sqrt_canonical gives None), with and without tables; all of F_q where
    # q <= 343, else 0, g, g^2, their inverses and 500 random elements.
    # e2_sqrt of a two-row stack gives each row's 1-D result, as it serves
    # arrays of any shape (orbit_of_tau makes two 1-D calls).
    # For n > 1, after a swap of exp[1] and exp[2] (g and g^2), array mul,
    # div and pow are mul_poly and miss the swap that the scalar mul still
    # reads, array legendre still agrees with the scalar one, and the array
    # inverse, which reads exp and log, fails its mul_poly check where the
    # scalar one is silently wrong; a prime field keeps no exp or log
    import numpy as np

    q = p ** n
    x = np.arange(q, dtype=np.int64)
    if q > 343:
        exp = field(p, n).tables().exp
        rand = np.random.default_rng(q).integers(1, q, size=500).tolist()
        x = np.array([0] + exp[1:3] + exp[q - 3:q - 1] + rand, dtype=np.int64)
    y, u = np.roll(x, 1), x[x != 0]
    v = np.resize(u[::-1], len(x))  # a unit at every element of x
    xs, ys, us, vs = x.tolist(), y.tolist(), u.tolist(), v.tolist()

    def check(ctx):
        assert ctx.mul(x, y).tolist() == [ctx.mul(a, b) for a, b in zip(xs, ys)]
        assert ctx.div(x, ctx.delta).tolist() == [ctx.div(a, ctx.delta) for a in xs]
        assert ctx.legendre(x).tolist() == [ctx.legendre(a) for a in xs]
        for e in (0, 1, (q - 1) // 2, q - 2):
            assert ctx.pow(x, e).tolist() == [ctx.pow(a, e) for a in xs], e
        assert ctx.inv(u).tolist() == [ctx.inv(a) for a in us]
        assert ctx.pow(u, -1).tolist() == [ctx.pow(a, -1) for a in us]
        assert ctx.div(x, v).tolist() == [ctx.div(a, b) for a, b in zip(xs, vs)]
        with pytest.raises(ZeroDivisionError):
            ctx.inv(x)
        assert ctx.sqrt_canonical(x).tolist() == \
            [-1 if r is None else r for r in map(ctx.sqrt_canonical, xs)]
        roots = ctx.e2_sqrt(x)
        assert list(map(Ext2Elem, roots.lo.tolist(), roots.hi.tolist())) == \
            [ctx.e2_sqrt(a) for a in xs]
        stacked, first = ctx.e2_sqrt(np.stack([y, x])), ctx.e2_sqrt(y)
        assert stacked.lo.tolist() == [first.lo.tolist(), roots.lo.tolist()]
        assert stacked.hi.tolist() == [first.hi.tolist(), roots.hi.tolist()]

    bare = mk_field(p, n)
    check(bare)
    assert bare._tables is None  # the array paths build no tables either
    check(field(p, n))
    ctx = mk_field(p, n)
    tb = ctx.tables()
    if n == 1:
        assert tb.exp is None and tb.log is None
        return
    tb.exp[1], tb.exp[2] = tb.exp[2], tb.exp[1]
    tb.log[tb.exp[1]], tb.log[tb.exp[2]] = 1, 2
    mul_poly, one = field(p, n).mul_poly, 0 * x + 1
    products = mul_poly(x, y).tolist()
    assert ctx.mul(x, y).tolist() == products
    assert ctx.div(x, ctx.delta).tolist() == mul_poly(x, ctx.inv(ctx.delta)).tolist()
    for e in (0, 1, (q - 1) // 2, q - 2):
        assert ctx.pow(x, e).tolist() == power(x, e, mul_poly, one).tolist(), e
    assert [ctx.mul(a, b) for a, b in zip(xs, ys)] != products
    assert ctx.legendre(x).tolist() == [ctx.legendre(a) for a in xs]
    with pytest.raises(IdentityFailure, match="wrong inverse"):
        ctx.inv(u)


@pytest.mark.parametrize("p, n", [(3, 3), (5, 2)])
def test_array_inverse_is_made_once_per_context(p, n):
    # the first array inv reads exp and log and keeps the inverse of every
    # unit, so a second call reads neither: with both gone it gives the same
    # codes, the scalar inverses
    import numpy as np

    ctx = mk_field(p, n)
    tb = ctx.tables()
    units = np.arange(1, ctx.q, dtype=np.int64)
    first = ctx.inv(units)
    assert first.tolist() == [ctx.inv(a) for a in units.tolist()]
    tb.exp = tb.log = None
    assert ctx.inv(units).tolist() == first.tolist()


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3), (5, 2), (4093, 1)])
def test_one_root_table_per_context(monkeypatch, p, n):
    # tables and correspondence take their array roots from one table, made
    # at the first array sqrt_canonical: one mul_poly over the (q + 1)/2
    # canonical codes per run_field
    import numpy as np

    from charprod import sweeps
    from charprod.ffield import FieldCtx

    ctx = mk_field(p, n)
    x = np.arange(ctx.q, dtype=np.int64)
    canon = x[x <= ctx.neg(x)]
    assert len(canon) == (ctx.q + 1) // 2
    squarings = []
    mul_poly = FieldCtx.mul_poly

    def counted(self, a, b):
        if a is b and np.array_equal(a, canon):
            squarings.append(len(a))
        return mul_poly(self, a, b)

    monkeypatch.setattr(FieldCtx, "mul_poly", counted)
    rows = sweeps.run_field(p, n, ("tables", "correspondence"))
    assert rows and all(r["ok"] for r in rows)
    assert squarings == [len(canon)]


def test_ext2_conjugation_is_frobenius():
    rng = random.Random(7)
    for ctx in small_ctxs():
        for _ in range(20):
            x = Ext2Elem(rng.randrange(ctx.q), rng.randrange(ctx.q))
            assert e2_pow(ctx, x, ctx.q) == Ext2Elem(x.lo, ctx.neg(x.hi))


def test_ext2_norm_is_x_times_conjugate():
    # N(x) = x*conj(x) = x^(q+1), and the norm is multiplicative
    rng = random.Random(9)
    for ctx in small_ctxs():
        for _ in range(20):
            x = Ext2Elem(rng.randrange(ctx.q), rng.randrange(ctx.q))
            y = Ext2Elem(rng.randrange(ctx.q), rng.randrange(ctx.q))
            nx = ctx.e2_embed(ctx.e2_norm(x))
            assert nx == ctx.e2_mul(x, Ext2Elem(x.lo, ctx.neg(x.hi)))
            assert nx == e2_pow(ctx, x, ctx.q + 1)
            assert ctx.e2_norm(ctx.e2_mul(x, y)) == \
                ctx.mul(ctx.e2_norm(x), ctx.e2_norm(y))


def test_ext2_field_behaviour():
    rng = random.Random(8)
    for ctx in small_ctxs()[:8]:
        one = ctx.e2_embed(ctx.one)
        for _ in range(20):
            x = Ext2Elem(rng.randrange(ctx.q), rng.randrange(ctx.q))
            if x == (0, 0):
                continue
            assert ctx.e2_mul(x, e2_inv(ctx, x)) == one
            assert e2_pow(ctx, x, ctx.q * ctx.q - 1) == one


def test_ext2_sqrt():
    for ctx in small_ctxs():
        for a in range(ctx.q):
            r = ctx.e2_sqrt(a)
            assert ctx.e2_mul(r, r) == ctx.e2_embed(a)


def test_ext2_sqrt_of_a_stack_names_its_first_failure():
    # chi(2) flipped at q = 17 after delta is cached: neither 2 nor 2/delta
    # reads as a square, and a stack names 2 as the 1-D call does, whether
    # its first failure lies in the first row or in the second
    import numpy as np

    ctx = mk_field(17)
    ctx.delta
    ctx.tables().chi[2] *= -1
    x = np.arange(17, dtype=np.int64)
    for stack in (x, np.stack([x, x]), np.stack([0 * x + 1, x])):
        with pytest.raises(IdentityFailure) as failure:
            ctx.e2_sqrt(stack)
        assert str(failure.value) == "neither 2 nor 2/delta is a square at q=17"


def test_ext2_solve_unit_examples():
    c7 = field(7)
    assert ext2_solve_unit(c7, c7.from_int(2)) == (1, 0)
    u = ext2_solve_unit(c7, 0)
    assert ctx_bracket(c7, u) == 0
    assert c7.e2_mul(u, u) == (c7.minus_one, 0)
    u = ext2_solve_unit(c7, 1)
    assert u == (3, 0)
    assert unit_order_test(c7, u, 6, 1) and not unit_order_test(c7, u, 3, 1)


def ctx_bracket(ctx, u):
    b = ctx.e2_add(u, e2_inv(ctx, u))
    return e2_project(ctx, b)


def test_ext2_solve_unit_bracket_all():
    for ctx in small_ctxs():
        for r in range(ctx.q):
            u = ext2_solve_unit(ctx, r)
            assert ctx_bracket(ctx, u) == r
            assert ctx_bracket(ctx, e2_inv(ctx, u)) == r


def test_ext2_solve_unit_inconsistent_character():
    # with every character reading -1 neither d = r^2 - 4 nor d/delta is a
    # square; that must raise IdentityFailure, not multiply a None root
    ctx = mk_field(13)
    ctx.delta
    ctx.legendre = lambda a: -1
    with pytest.raises(IdentityFailure,
                       match="neither 9 nor 9/delta is a square at q=13"):
        ext2_solve_unit(ctx, 0)


def test_tonelli_shanks_rejects_nonsquares():
    # prime fields with 2-adic orders s = 1, 2, 3, 4 of q - 1: squares get a
    # root, nonsquares raise IdentityFailure (q = 13, a = 2 once failed
    # with a negative shift count), and a square passed as the nonsquare
    # gives a true root or IdentityFailure, never a wrong value
    for p in (7, 13, 41, 17):
        ctx = mk_field(p)
        squares = {a * a % p for a in range(1, p)}
        z = ctx.delta
        assert z == min(set(range(1, p)) - squares)
        for a in range(1, p):
            if a in squares:
                ctx._delta = z
                r = tonelli_shanks(ctx, a)
                assert r * r % p == a
                for bad_z in squares:
                    ctx._delta = bad_z
                    try:
                        r = tonelli_shanks(ctx, a)
                    except IdentityFailure:
                        continue
                    assert r * r % p == a
            else:
                ctx._delta = z
                with pytest.raises(IdentityFailure, match="no square root"):
                    tonelli_shanks(ctx, a)


def test_unit_order_examples():
    c7 = field(7)
    assert unit_order_test(c7, c7.e2_embed(c7.one), c7.q - 1, 1)
    i = ext2_solve_unit(c7, 0)  # a primitive fourth root
    assert unit_order_test(c7, i, 2, -1)
    u = ext2_solve_unit(c7, 1)
    assert unit_order_test(c7, u, (c7.q + c7.eps) // 2, -1)


def _assert_arrays_match_ints(ctx, a, b):
    # int64 arrays of codes against Python ints, which never overflow, so an
    # overflow in the array path shows up as a mismatch
    import numpy as np

    xs, ys = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    for op in (ctx.add, ctx.sub, ctx.mul_poly):
        want = [op(x, y) for x, y in zip(a, b)]
        assert op(xs, ys).tolist() == want, (ctx, op.__name__)
        assert op(xs, b[0]).tolist() == [op(x, b[0]) for x in a], (ctx, op.__name__)


def test_array_arithmetic_matches_ints_on_every_pair():
    for ctx in small_ctxs():
        a, b = zip(*itertools.product(range(ctx.q), repeat=2))
        _assert_arrays_match_ints(ctx, a, b)
        assert [ctx.mul_poly(x, y) for x, y in zip(a, b)] == \
            [ctx.mul(x, y) for x, y in zip(a, b)]


@pytest.mark.parametrize("p, n", [(46337, 2), (1289, 3)])
def test_array_arithmetic_matches_ints_at_the_largest_p(p, n):
    # the largest p of each degree with q = p^n < 2^31, where the digit
    # products are largest; q - 1 has every digit p - 1
    ctx = mk_field(p, n)
    rng = random.Random(p * 10 + n)
    a = [ctx.q - 1] + [rng.randrange(ctx.q) for _ in range(2000)]
    b = [ctx.q - 1] + [rng.randrange(ctx.q) for _ in range(2000)]
    _assert_arrays_match_ints(ctx, a, b)


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(17, 3)])
def test_half_units_hold_one_of_each_pair(p, n):
    ctx = mk_field(p, n)
    half = list(half_units(ctx))
    assert len(half) == (ctx.q - 1) // 2
    assert sorted(half + [ctx.neg(x) for x in half]) == list(range(1, ctx.q))


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(17, 3), (127, 2), (3, 5), (4099, 1)])
def test_half_unit_squares_match_mul_over_half_units(p, n):
    # running sums along lines against one multiplication per half unit
    ctx = mk_field(p, n)
    want = sorted(ctx.mul(x, x) for x in half_units(ctx))
    assert sorted(ctx.half_unit_squares()) == want
    assert ctx._tables is None


@pytest.mark.parametrize("p, n", [(3, 1), (4099, 1), (2147483647, 1), (5, 2), (17, 3)])
def test_prod_matches_a_fold_of_mul(p, n):
    # chunk boundaries on both sides of one and two chunks; q - 1 repeated
    # gives the largest chunk products and the sign (-1)^len; a zero stays
    # zero in the running product, whichever chunk holds it
    ctx = mk_field(p, n)
    rng = random.Random(p * 10 + n)
    sizes = [0, 1, PROD_CHUNK - 1, PROD_CHUNK, PROD_CHUNK + 1,
             2 * PROD_CHUNK - 1, 2 * PROD_CHUNK + 1, 10 ** 4]
    inputs = [[rng.randrange(1, ctx.q) for _ in range(size)] for size in sizes]
    inputs += [[ctx.q - 1] * size for size in sizes]
    inputs.append([ctx.q - 1] * PROD_CHUNK + [0])  # a zero in the second chunk
    inputs.append([ctx.q - 1] * 3 + [0] + [ctx.q - 1] * (3 * PROD_CHUNK))  # then more chunks
    for codes in inputs:
        want = functools.reduce(ctx.mul, codes, ctx.one)
        assert ctx.prod(iter(codes)) == want, (ctx.q, len(codes))


@pytest.mark.parametrize("tabled", [False, True])
@pytest.mark.parametrize("p, n", [(3, 2), (7, 2), (3, 3), (17, 3), (3, 5)])
def test_extension_prod_calls_no_field_multiplication(monkeypatch, p, n, tabled):
    # with tables or without, the product is a Kronecker substitution: it
    # calls neither mul nor mul_poly for any member and reads no table, so
    # it stays right where the tables' exp and log swap g and g^2
    ctx = mk_field(p, n)
    rng = random.Random(p * 10 + n)
    codes = [rng.randrange(1, ctx.q) for _ in range(500)]
    want = functools.reduce(ctx.mul_poly, codes, ctx.one)
    if tabled:
        tb = ctx.tables()
        tb.exp[1], tb.exp[2] = tb.exp[2], tb.exp[1]
        tb.log[tb.exp[1]], tb.log[tb.exp[2]] = 1, 2
    calls = []
    for name in ("mul", "mul_poly"):
        def counted(a, b, op=getattr(ctx, name), name=name):
            calls.append(name)
            return op(a, b)

        monkeypatch.setattr(ctx, name, counted)
    assert ctx.prod(iter(codes)) == want
    assert calls == []


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(3, 4), (5, 3), (13, 3)])
def test_tabled_brute_product_equals_the_reference_under_faults(p, n):
    # with tables the oracle multiplies in the exponent over its own walk of
    # the units, so no fault of helpers.field_faults (chi, delta, m, exp and
    # log) moves a product off a mul_poly fold of the scanned members; the A
    # families of (1, 2) under all four signs hold 0 once.  Each fault costs
    # a table build, so 13^3 takes 24 of its 2196 chi flips
    q, ref = p ** n, mk_field(p, n)
    rng = random.Random(q)
    fams = [a_family(1, 2, sp) for sp in SIGN_PAIRS]
    for _ in range(8):
        k, l = rng.randrange(q), rng.randrange(q)
        sp = SIGN_PAIRS[rng.randrange(4)]
        fams.append(s1_family(k, sp.e1))
        if k != l:
            fams += [a_family(k, l, sp), s_family(k, l, sp)]
        if ref.add(k, l) != 0:
            fams.append(t_family(k, l, sp))
    want = [product_reference(ref, fam) for fam in fams]
    assert [w.value for w in want[:4]].count(0) == 1
    faults = list(field_faults(q))
    if q > 343:
        flips = [f for f in faults if f[0].startswith("flip ")]
        faults = [f for f in faults if f not in flips] + rng.sample(flips, 24)
    for name, fault in faults:
        ctx = mk_field(p, n)
        fault(ctx)
        assert [brute_product(ctx, fam) for fam in fams] == want, (q, name)


@pytest.mark.parametrize("p, n", [(3, 3), (5, 2)])
def test_tabled_int_pow_is_the_ladder_over_mul(p, n):
    # on an int of F_{p^n} with tables, each result of pow is
    # square-and-multiply over ctx.mul, sound and with two exp
    # entries swapped, negative exponents through ctx.inv
    q = p ** n
    rng = random.Random(q)
    exponents = [0, 1, 2, q - 2, q - 1, q, -1] + [rng.randrange(-3 * q, 3 * q) for _ in range(8)]
    faults = [(name, fault) for name, fault in field_faults(q)
              if name == "sound" or name.startswith("swap exp")]
    assert len(faults) == 5
    for name, fault in faults:
        ctx = mk_field(p, n)
        fault(ctx)
        for a in range(q):
            for e in exponents:
                if e < 0 and a == 0:
                    with pytest.raises(ZeroDivisionError):
                        ctx.pow(a, e)
                    continue
                x = ctx.inv(a) if e < 0 else a
                assert ctx.pow(a, e) == power(x, abs(e), ctx.mul, ctx.one), (q, name, a, e)


@pytest.mark.parametrize("p, n", [(3, 2), (7, 2), (3, 4), (3, 5), (5, 3), (17, 3), (4093, 2)])
def test_table_free_prod_equals_a_mul_poly_fold(p, n):
    # k factors go into each math.prod, k the largest with
    # n^(k-1) (p-1)^k < 2^64 (4093^2 is within 1% of the bound); lengths
    # around k, codes of all digits p - 1 (the largest slot sums) and zeros
    k = max(k for k in range(1, 65) if n ** (k - 1) * (p - 1) ** k < 1 << 64)
    ctx = mk_field(p, n)
    assert ctx._kronecker[0] == k
    rng = random.Random(p * 10 + n)
    sizes = [0, 1, k - 1, k, k + 1, 3 * k + 2]
    inputs = [[rng.randrange(1, ctx.q) for _ in range(size)] for size in sizes]
    inputs += [[ctx.q - 1] * size for size in sizes]
    inputs += [[0], [ctx.q - 1] * k + [0], [rng.randrange(ctx.q) for _ in range(3 * k)] + [0]]
    for codes in inputs:
        want = functools.reduce(ctx.mul_poly, codes, ctx.one)
        assert ctx.prod(iter(codes)) == want, (ctx.q, codes)
    assert ctx._tables is None


@pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (5, 3), (3, 5), (13, 3), (127, 2), (1009, 2)])
def test_x_powers_are_powers_of_x(p, n):
    # one table of x^j mod the modulus serves mul_poly's reduction rows and
    # the Kronecker columns; each row is x^j by repeated mul_poly (1009^2
    # has k = 5, the shortest Kronecker table)
    ctx = mk_field(p, n)
    k = ctx._kronecker[0]
    rows = ctx._x_powers(k * (n - 1))
    assert len(rows) == k * (n - 1) + 1
    xj = ctx.one
    for row in rows:
        assert row == decode(ctx, xj)
        xj = ctx.mul_poly(xj, p)  # the code p is x
    assert ctx._red == tuple(rows[n:2 * n - 1])
    assert ctx._kronecker[1] == tuple(zip(*rows))
    assert mk_field(p)._x_powers(0) == [(1,)]


@pytest.mark.parametrize("p, n, count, bound", [(1009, 2, 5 * 10 ** 4, 1 << 20),
                                                (2 ** 31 - 1, 1, 2 * 10 ** 5, 64 << 10)],
                         ids=["1009-2", "2147483647-1"])
def test_table_free_prod_streams_its_codes(p, n, count, bound):
    # count codes as a generator: listing them peaks above 1 MiB, the
    # product holds one chunk (k - 1 codes of 1009^2, PROD_CHUNK of
    # 2^31 - 1) and the running product at a time, and no list of partial
    # products, which at 2^31 - 1 would be 3,125 ints
    ctx = mk_field(p, n)

    def codes():
        return (i * 7919 % (ctx.q - 1) + 1 for i in range(count))

    def traced_peak(consume):
        tracemalloc.start()
        try:
            out = consume(codes())
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    listed = traced_peak(list)[1]
    assert listed > 1 << 20, listed
    want = functools.reduce(ctx.mul_poly, codes(), ctx.one)
    got, peak = traced_peak(ctx.prod)
    assert got == want
    assert peak < bound, peak


@pytest.mark.parametrize("p, n, ks", [(p, n, None) for p, n in SMALL_FIELDS]
                         + [(3, 4, 200), (3, 5, 200), (5, 4, 200), (3, 8, 200), (7, 5, 200)])
def test_shifted_is_the_character_at_a_plus_k(p, n, ks):
    # the roll of the digit grid against the field's own addition: every k
    # of the small fields, 200 seeded k above n = 3, where the order of the
    # digit axes matters most
    import numpy as np

    ctx = field(p, n)
    tb, codes = ctx.tables(), np.arange(ctx.q)
    chi = tb.shifted(0)
    if ks is None:
        ks = range(ctx.q)
    else:
        ks = np.random.default_rng(ctx.q).integers(0, ctx.q, ks).tolist()
    for k in ks:
        got = tb.shifted(k)
        assert got.dtype == np.int8 and not np.shares_memory(got, tb._grid)
        assert (got == chi[ctx.add(codes, k)]).all(), (ctx.q, k)


def test_tables_stay_linear_in_q():
    # every table is O(q), the oracle's character grid q bytes: about 142
    # bytes per element at 3^8, where a grid doubled along its 8 digit axes
    # would take 256 bytes per element alone; numpy is imported first, so
    # that its own allocations are not traced
    import numpy  # noqa: F401

    ctx = mk_field(3, 8)
    tracemalloc.start()
    try:
        ctx.tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * ctx.q, peak


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3)])
def test_correlate_equals_the_double_sum(p, n):
    # c[t] = sum_x f(x) g(x + t), for random integer f and g of both signs,
    # against the O(q^2) sum over the field's own addition
    import numpy as np

    ctx = field(p, n)
    tb, codes = ctx.tables(), np.arange(ctx.q)
    rng = np.random.default_rng(ctx.q)
    f, g = rng.integers(-1000, 1000, (2, ctx.q))
    want = [int(f @ g[ctx.add(codes, t)]) for t in range(ctx.q)]
    got = tb.correlate(tb.spectrum(f), tb.spectrum(g), "no correlation")
    assert got.dtype == np.int64 and got.tolist() == want


def _assert_translation_matches_add(ctx, ks):
    # two byte planes of the codes, so q > 256 is checked exactly
    planes = [bytes(a % 256 for a in range(ctx.q)),
              bytes(a // 256 % 256 for a in range(ctx.q))]
    for k in ks:
        shifted = [ctx.add(a, k) for a in range(ctx.q)]
        for vec in planes:
            got = ctx.translate_bytes(vec, k)
            assert len(got) == ctx.q
            assert list(got) == [vec[b] for b in shifted], (ctx.q, k)


def test_translate_bytes_matches_add_on_every_shift():
    for ctx in small_ctxs():
        _assert_translation_matches_add(ctx, range(ctx.q))


@pytest.mark.parametrize("p, n", [(4099, 1), (17, 3)])
def test_translate_bytes_matches_add_at_large_q(p, n):
    ctx = mk_field(p, n)
    rng = random.Random(p * 10 + n)
    _assert_translation_matches_add(ctx, [rng.randrange(ctx.q) for _ in range(200)])


def _to_gf(ctx, a):
    """Element as a sympy dense polynomial (high degree first, stripped)."""
    coeffs = list(reversed(decode(ctx, a)))
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    return coeffs


def _from_gf(ctx, f):
    return ctx.encode([int(c) for c in reversed(f)])


@pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (5, 2), (13, 3), (17, 3)])
def test_extension_arithmetic_matches_sympy(p, n):
    # differential check against an independent implementation of F_p[x]
    from sympy import factorint
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import (gf_irreducible_p, gf_mul, gf_pow_mod,
                                         gf_rem)

    ctx = mk_field(p, n)
    modulus = list(reversed(ctx.modulus))
    assert gf_irreducible_p(modulus, p, ZZ)
    # every monic candidate before it in the search order is reducible
    for low in itertools.product(range(p), repeat=n):
        if low == ctx.modulus[:n]:
            break
        assert not gf_irreducible_p([1] + list(reversed(low)), p, ZZ)
    rng = random.Random(p * 100 + n)
    pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(200)]
    want = [_from_gf(ctx, gf_rem(gf_mul(_to_gf(ctx, a), _to_gf(ctx, b), p, ZZ),
                                 modulus, p, ZZ)) for a, b in pairs]
    assert [ctx.mul(a, b) for a, b in pairs] == want
    tb = ctx.tables()
    assert [ctx.mul(a, b) for a, b in pairs] == want
    gen = _to_gf(ctx, tb.exp[1])
    assert gf_pow_mod(gen, ctx.q - 1, modulus, p, ZZ) == [1]
    for r in factorint(ctx.q - 1):
        assert gf_pow_mod(gen, (ctx.q - 1) // r, modulus, p, ZZ) != [1]


def test_irreducibility_test_matches_sympy_on_every_small_polynomial():
    # every monic polynomial of degree 2..6 over F_3, 2..5 over F_5, 2..4
    # over F_7 and 2..3 over F_11 (9,234 in all), reducible ones without a
    # root such as (x^2 + 1)^2 over F_3 included
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    count = 0
    for p, top in ((3, 6), (5, 5), (7, 4), (11, 3)):
        for n in range(2, top + 1):
            for low in itertools.product(range(p), repeat=n):
                f = list(low) + [1]
                assert _is_irreducible(f, p) == gf_irreducible_p(f[::-1], p, ZZ), (p, f)
                count += 1
    assert count == 9234


def test_tables_reject_non_generator(monkeypatch):
    # 2 = -1 has order 2 in F_9
    ctx = mk_field(3, 2)
    monkeypatch.setattr(ctx, "primitive_element", lambda: 2)
    with pytest.raises(FieldError, match="does not generate"):
        FieldTables(ctx)


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3), (4093, 1)])
def test_tables_chi_is_table_free_legendre(monkeypatch, p, n):
    # chi equals Euler's criterion on a fresh context, element by element.
    # Given its generator, tables() walks the units by doubling and reads
    # chi off the walk's parity: its array products, the walk's, are
    # O(log q) calls, and its scalar ones are the walk's squarings and one
    # mul_poly per line of half_unit_squares, never a scalar mul per element
    import numpy as np

    fresh = mk_field(p, n)
    want = [fresh.legendre(a) for a in range(fresh.q)]
    assert fresh._tables is None
    ctx = mk_field(p, n)
    gen = fresh.primitive_element()
    calls = []
    for name in ("mul", "mul_poly"):
        def counted(a, b, op=getattr(ctx, name), name=name):
            calls.append((name, isinstance(a, np.ndarray) or isinstance(b, np.ndarray)))
            return op(a, b)

        monkeypatch.setattr(ctx, name, counted)
    monkeypatch.setattr(ctx, "primitive_element", lambda: gen)
    tb = ctx.tables()
    assert tb.chi == want
    assert (tb.exp is None and tb.log is None) == (n == 1)
    bits = ctx.q.bit_length()
    assert sum(array for _, array in calls) <= 6 * bits, calls
    assert ("mul", False) not in calls
    assert calls.count(("mul_poly", False)) <= bits + ctx.q // p
