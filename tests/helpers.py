"""Shared helpers for the test suite."""

import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

from charprod import charsets
from charprod.charsets import (SIGN_PAIRS, ProductReport, SignPair, a_family,
                               enumerate_family, s1_family, s_family, sign_str,
                               t_family)
from charprod.ffield import (Ext2Elem, IdentityFailure, factorize, first_of_order,
                            is_prime, mk_field, power)

# small fields exercised by most unit tests; mixes residue classes mod 4/8/12
SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1),
                (23, 1), (29, 1), (31, 1), (3, 2), (3, 3), (5, 2), (7, 2)]


@functools.lru_cache(maxsize=None)
def field(p, n=1):
    ctx = mk_field(p, n)
    ctx.tables()
    return ctx


def small_ctxs():
    return [field(p, n) for p, n in SMALL_FIELDS]


def decode(ctx, a):
    """Coefficient vector of element a, little-endian, length n: the digits
    of the code, the reference for ``encode`` and ``elem_str``."""
    return tuple(a // ctx.p ** i % ctx.p for i in range(ctx.n))


def half_units(ctx):
    """One unit of each pair +-x: the codes whose top nonzero digit is below
    p/2, the reference for ``FieldCtx.half_unit_squares``."""
    half = (ctx.p + 1) // 2
    return itertools.chain.from_iterable(range(ctx.p ** i, half * ctx.p ** i)
                                         for i in range(ctx.n))


def prime_power(q):
    """Write q as p^n with p prime, or return None: the sieve's reference."""
    f = factorize(q)
    return f[0] if len(f) == 1 else None


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's charprod.

    The timeout makes a hang fail the calling test instead of stalling it.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)


def members_reference(ctx, fam):
    """Members of fam in code order, each a decided by ``ctx.legendre`` on the
    family's own definition, not on ``charsets._conditions``."""
    chi = ctx.legendre
    if fam.kind == "S1":
        (k,), e = fam.params, fam.signs
        conds = lambda a: [(chi(ctx.add(a, k)), e)]
    elif fam.kind == "T":
        (j, l), (e1, e2) = fam.params, fam.signs
        conds = lambda a: [(chi(ctx.sub(j, a)), e1), (chi(ctx.add(l, a)), e2)]
    else:
        (k, l), (e1, e2) = fam.params, fam.signs
        conds = lambda a: [(chi(ctx.add(a, k)), e1), (chi(ctx.add(a, l)), e2)]
    return [a for a in range(ctx.q)
            if (a != 0 or fam.kind == "A") and all(c == e for c, e in conds(a))]


def product_reference(ctx, fam):
    """brute_product by the sorted members of enumerate_family, one at a
    time with ctx.mul_poly, so the multiplication reads no table."""
    members = enumerate_family(ctx, fam)
    value = ctx.one
    for a in members:
        value = ctx.mul_poly(value, a)
    return ProductReport(value=value, cardinality=len(members))


def all_families(ctx):
    """Every valid A/S/S1/T family of a field."""
    q = ctx.q
    for k in range(q):
        for e in (1, -1):
            yield s1_family(k, e)
        for l in range(q):
            for sp in SIGN_PAIRS:
                if k != l:
                    yield a_family(k, l, sp)
                    yield s_family(k, l, sp)
                if ctx.add(k, l) != 0:
                    yield t_family(k, l, sp)


def card_counts_reference(ctx):
    """|A_{k,l}|, |S_{k,l}| and |T_{k,l}| of every pair as (4, q, q) arrays,
    [s, k, l] for SIGN_PAIRS[s]: matrix products of the stacked shifted
    character vectors, the reference for the counts of ``sweeps.card_tally``."""
    import numpy as np

    tb, q = ctx.tables(), ctx.q
    shifted = np.stack([tb.shifted(k) for k in range(q)])  # [k, a] = chi(k + a)
    if ctx.n == 1:  # integer negation; a prime field keeps no exp or log
        neg = (q - np.arange(q)) % q
    else:  # -a = gen^(log a + (q - 1)/2); log[0] points into exp's run of zeros
        neg = np.array(tb.exp)[np.array(tb.log) + (q - 1) // 2]
    reflect = shifted[neg] * np.int8(ctx.eps)  # [j, a] = chi(j - a)
    out = {"A": [], "S": [], "T": []}
    for sp in SIGN_PAIRS:
        # float32 products are exact: every count is at most q < 2^24
        x1 = (shifted == sp.e1).astype(np.float32)
        x2 = (shifted == sp.e2).astype(np.float32)
        y1 = (reflect == sp.e1).astype(np.float32)
        out["A"].append(x1 @ x2.T)
        x1[:, 0] = x2[:, 0] = y1[:, 0] = 0  # S and T range over F_q^*
        out["S"].append(x1 @ x2.T)
        out["T"].append(y1 @ x2.T)
    return {kind: np.stack(grids).astype(np.int64) for kind, grids in out.items()}


def pair_chars(ctx, chi, kind, rows):
    """int8 arrays (nu, chi(k), chi(l)) over the A/S/T pairs (k, l), k in ``rows``.

    ``chi`` is the int8 array ``tables().chi``.  nu is chi(l - k), or
    chi(k + l) for T, at the codes that ``ctx.sub`` (or ``ctx.add``)
    computes on arrays.
    """
    import numpy as np

    a = np.arange(ctx.q, dtype=np.int64)
    ks = a[rows]
    code = ctx.add(ks[:, None], a) if kind == "T" else ctx.sub(a, ks[:, None])
    return chi[code], chi[ks][:, None], chi[None, :]


def card_grid(ctx, kind, signs, chars):
    """Closed cardinalities of a block of (k, l) families of one kind.

    ``chars`` is ``pair_chars(ctx, chi, kind, rows)``; entry [i, l] is
    ``card_closed`` of the family (rows[i], l), and meaningless where that
    family is undefined (k == l for A and S, k + l == 0 for T).
    """
    return charsets._pair_card(ctx, kind, signs, *chars)


def card_count_blocks(ctx, block=32):
    """Enumerated |A_{k,l}|, |S_{k,l}|, |T_{k,l}| of all pairs, by blocks of ``block`` rows k.

    Yields (rows, counts), counts[kind][s, i, l] for (rows[i], l) and
    SIGN_PAIRS[s]: the counts c(d) once per difference, each moved onto the
    grid by a ``ctx.add`` gather, less a = 0 for S and T.
    """
    import numpy as np

    tb, q, codes = ctx.tables(), ctx.q, np.arange(ctx.q)
    chi = tb.shifted(0)  # chi(a), as the scans read it
    e1s, e2s = (np.array(e)[:, None] for e in zip(*SIGN_PAIRS))
    first, second = chi == e1s, chi == e2s  # [s, a]
    c = np.array([np.count_nonzero(first & (tb.shifted(d) == e2s), axis=1)
                  for d in range(q)], dtype=np.int32).T
    t_signs = [SIGN_PAIRS.index((ctx.eps * e1, e2)) for e1, e2 in SIGN_PAIRS]
    neg = ctx.neg(codes)
    for k0 in range(0, q, block):
        rows = slice(k0, min(q, k0 + block))
        a = c[:, ctx.add(codes, neg[rows, None])]  # c(l - k)
        t = c[t_signs][:, ctx.add(codes, codes[rows, None])]  # c(l + k)
        s_zero = first[:, rows, None] & second[:, None]  # a = 0 in S: chi(k) = e1
        t -= (chi[neg[rows]] == ctx.eps * e1s)[:, :, None] & second[:, None]  # a = 0 in T
        yield rows, {"A": a, "S": a - s_zero, "T": t}


def card_tally_reference(ctx):
    """``sweeps.card_tally`` by one ``np.bincount`` per difference d: the
    class vector of l, moved by a ``ctx.add`` gather, read against the
    classes of k; the reference for the correlations."""
    import numpy as np

    tb, q, codes = ctx.tables(), ctx.q, np.arange(ctx.q)
    closed = ctx.legendre(codes) + 1
    l_class = ((tb.shifted(0) + 1) * 3 + closed).astype(np.int8)
    k_class = l_class * 3 + closed[ctx.neg(codes)]
    k9 = k_class * 9
    tally = np.empty((q, 243), dtype=np.int32)
    for d in range(q):
        tally[d] = np.bincount(k9 + l_class[ctx.add(codes, d)], minlength=243)
    return tally.reshape((q,) + (3,) * 5), k_class, l_class


def card_tally_grid(ctx):
    """``sweeps.card_tally``'s rows scattered onto the (q, 3, 3, 3, 3, 3)
    grid [d, ok, ck, cn, ol, cl], zero at unrealized class pairs, with the
    class vectors of k and l: the layout of ``card_tally_reference``."""
    import numpy as np
    from charprod.sweeps import card_tally

    u, v, counts, k_class, l_class = card_tally(ctx)
    grid = np.zeros((ctx.q, 27, 9), dtype=np.int32)
    grid[:, u, v] = counts.T
    return grid.reshape((ctx.q,) + (3,) * 5), k_class, l_class


def card_rows_reference(ctx):
    """The 12 all-pairs rows and the 2 ``card[S1]`` rows of the
    ``cardinality`` suite, as (case, actual): the reference
    ``sweeps.suite_cardinality`` must equal.  The pair rows compare the
    closed and the enumerated count of every (k, l) pair, one block of rows
    at a time; the S1 rows call the scalar ``card_closed`` once per k."""
    import numpy as np

    q = ctx.q
    codes = np.arange(q)
    neg = ctx.neg(codes)
    closed_chi = ctx.tables().chi
    tally = {(kind, s): [0, ""] for s in range(4) for kind in "AST"}  # mismatches, first
    for rows, counts in card_count_blocks(ctx):
        a_chars = pair_chars(ctx, closed_chi, "A", rows)
        chars = {"A": a_chars, "S": a_chars, "T": pair_chars(ctx, closed_chi, "T", rows)}
        valid = {kind: codes != (neg if kind == "T" else codes)[rows, None]
                 for kind in "AST"}  # k != l for A and S, j + l != 0 for T
        for (kind, s), entry in tally.items():
            bad = card_grid(ctx, kind, SIGN_PAIRS[s], chars[kind]) != counts[kind][s]
            bad &= valid[kind]
            if bad.any() and not entry[0]:
                i, l = divmod(int(bad.argmax()), q)  # first hit in row-major order
                entry[1] = f" first=({ctx.elem_str(rows.start + i)},{ctx.elem_str(l)})"
            entry[0] += int(bad.sum())
    rows = [(f"card[{kind}]{sign_str(SIGN_PAIRS[s])}", f"{n_bad} mismatches{first}")
            for (kind, s), (n_bad, first) in tally.items()]
    chi = ctx.tables().shifted(0)
    for e in (1, -1):
        sums = np.count_nonzero(chi == e) - (chi == e)
        n_bad = sum(charsets.card_closed(ctx, s1_family(k, e)) != sums[k] for k in range(q))
        rows.append((f"card[S1]{sign_str(e)}", f"{n_bad} mismatches"))
    return rows


# ---------------------------------------------------------------------------
# the rescaling lemma in full, the reference for closedform.rescale_T
# ---------------------------------------------------------------------------

def rescale_T_reference(ctx, j_prime, l_prime, signs):
    """lambda^|T_{j',l'}^{e1,e2}| times the entry of T_{j,l}^{nu e1,nu e2},
    lambda = (j'+l')/4, nu = chi(j'+l'), (j, l) = (j', l')/lambda: the
    power taken and multiplied in at lambda = 1 too, with the raises of
    ``rescale_T`` in its order."""
    from charprod.closedform import prod_T_values

    e1, e2 = signs
    s = ctx.add(j_prime, l_prime)
    if s == 0:
        raise ValueError("j' + l' must be nonzero")
    lam = ctx.div(s, ctx.from_int(4))
    nu = ctx.legendre(s)
    over_lam = ctx.inv(lam)
    j = ctx.mul(j_prime, over_lam)
    l = ctx.mul(l_prime, over_lam)
    if ctx.add(j, l) != ctx.from_int(4):
        raise IdentityFailure(f"(j' + l')/lambda != 4 at q={ctx.q}")
    card = charsets._pair_card(ctx, "T", (e1, e2), nu,
                               ctx.legendre(j_prime), ctx.legendre(l_prime))
    base = prod_T_values(ctx, j, l)[SignPair(nu * e1, nu * e2)]
    return ctx.mul(ctx.pow(lam, card), base)


# ---------------------------------------------------------------------------
# F_{q^2} reference for the det roots, which the library computes in F_q
# ---------------------------------------------------------------------------

def e2_inv(ctx, x):
    """1/x = conj(x)/N(x) in F_{q^2}."""
    nrm = ctx.e2_norm(x)
    if nrm == 0:
        raise ZeroDivisionError("inverse of zero in F_{q^2}")
    ninv = ctx.inv(nrm)
    return Ext2Elem(ctx.mul(x.lo, ninv), ctx.mul(ctx.neg(x.hi), ninv))


def e2_project(ctx, x):
    """x as an element of F_q; ValueError unless x lies there."""
    if x.hi != 0:
        raise ValueError(f"{x} does not lie in the base field")
    return x.lo


def e2_div(ctx, x, y):
    return ctx.e2_mul(x, e2_inv(ctx, y))


def ext2_solve_unit(ctx, r):
    """The unit u in F_{q^2} with u + 1/u = r, canonical branch.

    The two solutions are u and 1/u; the one with the smaller codes is
    returned.  Raises IdentityFailure (from e2_sqrt)
    when neither d = r^2 - 4 nor d/delta is a square, which only an
    inconsistent quadratic character can cause.
    """
    d = ctx.sub(ctx.mul(r, r), ctx.from_int(4))
    half = ctx.inv(ctx.from_int(2))
    root = ctx.e2_sqrt(d)
    if root.hi == 0:
        u1 = ctx.mul(ctx.add(r, root.lo), half)
        u2 = ctx.mul(ctx.sub(r, root.lo), half)
        return Ext2Elem(min(u1, u2), 0)
    hi = ctx.mul(root.hi, half)
    hi = min(hi, ctx.neg(hi))
    return Ext2Elem(ctx.mul(r, half), hi)


def det_root_ext2(ctx, case, u):
    """a1 = (u^m - u^-m)/(u - 1/u), a2 = <u^m> or a3 = <(-u)^m>, in F_{q^2}.

    The value must lie in F_q; it is returned as a base-field element.
    """
    um = e2_pow(ctx, u, ctx.m)
    umi = e2_inv(ctx, um)
    if case == "a1":
        return e2_project(ctx, e2_div(ctx, ctx.e2_sub(um, umi),
                                      ctx.e2_sub(u, e2_inv(ctx, u))))
    bracket = e2_project(ctx, ctx.e2_add(um, umi))
    if case == "a3" and ctx.m % 2:
        return ctx.neg(bracket)
    return bracket


# ---------------------------------------------------------------------------
# F_{q^2} powers and a generator of F_{q^2}^*: the reference for the unit
# orders, which the library reads off norms and conjugates
# ---------------------------------------------------------------------------

def e2_pow(ctx, x, e):
    """x^e in F_{q^2} for any integer e, by square-and-multiply."""
    if e < 0:
        x = e2_inv(ctx, x)
        e = -e
    one = Ext2Elem(ctx.one, 0)
    if x == (0, 0):
        return x if e else one
    return power(x, e % (ctx.q * ctx.q - 1), ctx.e2_mul, one)


def unit_order_test(ctx, u, e, target):
    """True iff u^e equals target, with target in {+1, -1}."""
    want = Ext2Elem(ctx.one if target == 1 else ctx.minus_one, 0)
    return e2_pow(ctx, u, e) == want


@functools.lru_cache(maxsize=None)
def ext2_generator(ctx):
    """A deterministic generator of F_{q^2}^* (first in (lo, hi) code order)."""
    # base-field elements (hi = 0) never generate
    cands = (Ext2Elem(lo, hi) for lo in ctx.elements_canonical()
             for hi in ctx.elements_canonical() if hi)
    return first_of_order(cands, ctx.q * ctx.q - 1,
                          lambda x, e: e2_pow(ctx, x, e), ctx.e2_embed(ctx.one))


def unit_of_order(ctx, d):
    """g^((q^2 - 1)/d) for the generator g: an element of exact order d."""
    assert (ctx.q * ctx.q - 1) % d == 0
    return e2_pow(ctx, ext2_generator(ctx), (ctx.q * ctx.q - 1) // d)


def stepped_roots_of_unity_union(ctx):
    """mu_{2(q-1)} united with mu_{2(q+1)}, by stepping a generator."""
    seen = set()
    for d in (2 * (ctx.q - 1), 2 * (ctx.q + 1)):
        z = unit_of_order(ctx, d)
        w = ctx.e2_embed(ctx.one)
        for _ in range(d):
            seen.add(w)
            w = ctx.e2_mul(w, z)
    return sorted(seen, key=ctx.e2_key)


# ---------------------------------------------------------------------------
# the explicit sums, the reference for the recursion of dickson_first and
# dickson_second; the coefficient comparison, the reference for the root
# check of the dickson suite; Horner evaluation, the reference for
# dickson.dickson_values
# ---------------------------------------------------------------------------

def dickson_explicit(ctx, k, first):
    """D_k (first) or E_k from the explicit sums, not the recursion.

    D_k = sum k/(k-i) C(k-i, i) (-1)^i x^(k-2i) and E_k = sum C(k-i, i)
    (-1)^i x^(k-2i) over 0 <= i <= k/2, with D_0 = 2 (Lidl, Mullen and
    Turnwald, *Dickson Polynomials*, 1993).  The integer coefficients embed
    in F_q by from_int.
    """
    if first and k == 0:
        return [ctx.from_int(2)]
    f = [0] * (k + 1)
    for i in range(k // 2 + 1):
        c = math.comb(k - i, i)
        if first:
            c = k * c // (k - i)  # k/(k-i) C(k-i, i) = C(k-i, i) + C(k-i-1, i-1)
        f[k - 2 * i] = ctx.from_int((-1) ** i * c)
    return f


def dickson_rows_reference(ctx):
    """(case, ok) of the two rows of ``sweeps.suite_dickson``, by comparing
    the coefficient lists of ``sweeps.dickson_identities``: the Dickson
    recursion against the multiplied-out vanishing polynomial."""
    from charprod.sweeps import dickson_identities

    return [(f"dickson[{name}=f{sign_str(signs)}]", poly == target)
            for name, (poly, signs, target) in zip(("D_m", "E_m-1"), dickson_identities(ctx))]


def poly_eval(ctx, f, x):
    """Horner evaluation of f at x in F_q."""
    acc = 0
    for c in reversed(f):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def poly_eval_ext2(ctx, f, x):
    """Horner evaluation of f at x in F_{q^2}."""
    acc = Ext2Elem(0, 0)
    for c in reversed(f):
        acc = ctx.e2_add(ctx.e2_mul(acc, x), ctx.e2_embed(c))
    return acc


# ---------------------------------------------------------------------------
# the paper's named ratios tau = 1, 3, 1/3 by q mod 8 and mod 12: the
# reference for the square-class rows, which serve these tau in the library
# ---------------------------------------------------------------------------

def named_ratio_row(ctx, tau):
    """All four T-products at tau in {1, 3, 1/3}, by q mod 8 or q mod 12."""
    q = ctx.q
    e = ctx.eps
    chi2 = ctx.legendre(ctx.from_int(2))
    el = ctx.from_int

    def sign(s):
        return ctx.one if s == 1 else ctx.minus_one

    def row(pp, pm, mp, mm):
        return {SignPair(1, 1): pp, SignPair(1, -1): pm,
                SignPair(-1, 1): mp, SignPair(-1, -1): mm}

    if tau == ctx.one:
        s_lo = sign((-1) ** (q // 8))
        s_hi = sign((-1) ** ((q + 3) // 8))
        if q % 8 in (1, 7):
            return row(ctx.div(s_lo, el(8)), s_lo, s_hi, ctx.mul(s_hi, el(2)))
        return row(s_lo, s_lo, s_hi, ctx.div(s_hi, el(4)))
    if ctx.p == 3:
        raise ValueError("tau = 3 and 1/3 need p != 3")
    if tau == el(3):
        cm2 = sign(e * chi2)
        c2 = sign(chi2)
        if q % 12 in (1, 11):
            return row(ctx.div(cm2, el(6)), cm2, c2, ctx.mul(c2, el(2)))
        return row(ctx.neg(cm2), ctx.neg(ctx.mul(cm2, el(2))),
                   ctx.neg(ctx.div(c2, el(6))), ctx.neg(c2))
    if tau == ctx.inv(el(3)):
        ce = sign(e)
        if q % 12 in (1, 11):
            return row(ctx.div(ce, el(6)), ce, ctx.one, el(2))
        return row(ce, ctx.div(ce, el(6)), ctx.neg(el(2)), ctx.minus_one)
    raise ValueError("tau must be 1, 3 or 1/3")


# ---------------------------------------------------------------------------
# the scalar orbit walk, one Ext2Elem and one field call at a time: the
# reference for the array forms of correspondence and for its suite's rows
# ---------------------------------------------------------------------------

def orbit_members(ctx, v):
    vi = e2_inv(ctx, v)
    return tuple({v, vi, ctx.e2_neg(v), ctx.e2_neg(vi)})


def unit_power_is_reference(ctx, v, e, b):
    """v^e == b for a unit v of F_{q^2}, e = q +- 1 and b = +-1, in O(1)."""
    if e == ctx.q + 1:
        return ctx.e2_norm(v) == ctx.from_int(b)
    if e == ctx.q - 1:
        return (v.hi if b == 1 else v.lo) == 0
    raise ValueError(f"exponent {e} is neither q-1 nor q+1")


def in_unit_groups_reference(ctx, v):
    """v lies in mu_{2(q-1)} or mu_{2(q+1)}: v^(q-1) or v^(q+1) is +-1."""
    return v != (0, 0) and (v.lo == 0 or v.hi == 0
                            or ctx.e2_norm(v) in (ctx.one, ctx.minus_one))


def tau_of_orbit_reference(ctx, v):
    """tau = (v - 1/v)^2 / 4, divided in F_q; v must lie in mu_{2q-2} or mu_{2q+2}."""
    if not in_unit_groups_reference(ctx, v):
        raise ValueError("v is not a 2(q-1)-st or 2(q+1)-st root of unity")
    d = ctx.e2_sub(v, e2_inv(ctx, v))
    return ctx.div(e2_project(ctx, ctx.e2_mul(d, d)), ctx.from_int(4))


def orbit_of_tau_reference(ctx, tau):
    """The orbit of sqrt(tau+1) + sqrt(tau), roots taken in F_{q^2}."""
    v = ctx.e2_add(ctx.e2_sqrt(ctx.add(tau, ctx.one)), ctx.e2_sqrt(tau))
    rep = min(orbit_members(ctx, v), key=ctx.e2_key)
    if tau_of_orbit_reference(ctx, rep) != tau:
        raise IdentityFailure(f"orbit round-trip failed at q={ctx.q}")
    return rep


def classify_tau_reference(ctx, tau, v):
    """Square classes (chi(tau), chi(tau+1)) of tau = tau_of_orbit(v), checked
    on v; None for the degenerate tau in {0, -1}."""
    if tau == 0 or tau == ctx.minus_one:
        return None
    a = ctx.legendre(tau)
    b = ctx.legendre(ctx.add(tau, ctx.one))
    if not unit_power_is_reference(ctx, v, ctx.q - a * b, b):
        raise IdentityFailure(f"square classes disagree with the unit order at q={ctx.q}")
    return SignPair(a, b)


def roots_of_unity_union_reference(ctx):
    """mu_{2(q-1)} = F_q^* u theta*F_q^* united with mu_{2(q+1)} = {v : N(v) = +-1}."""
    seen = {u for x in range(1, ctx.q) for u in (Ext2Elem(x, 0), Ext2Elem(0, x))}
    root = {ctx.mul(x, x): x for x in range(ctx.q)}
    for hi in range(ctx.q):
        dh = ctx.mul(ctx.mul(hi, hi), ctx.delta)  # N(lo + hi*theta) = lo^2 - dh
        for s in (ctx.one, ctx.minus_one):
            lo = root.get(ctx.add(s, dh))
            if lo is not None:
                seen.update((Ext2Elem(lo, hi), Ext2Elem(ctx.neg(lo), hi)))
    return sorted(seen, key=ctx.e2_key)


def all_orbits_reference(ctx):
    """Orbit representatives: the first member of each orbit in the key-ordered union."""
    union, reps, seen = roots_of_unity_union_reference(ctx), [], set()
    for v in union:
        if v not in seen:
            reps.append(v)
            seen.update(orbit_members(ctx, v))
    if seen != set(union):
        raise IdentityFailure(f"an orbit leaves the groups of roots of unity at q={ctx.q}")
    return reps


def correspondence_rows_reference(ctx):
    """The rows of ``sweeps.suite_correspondence`` from the scalar walk above."""
    from charprod import correspondence
    from charprod.sweeps import _CHECK_FAILURES, _check, _row

    orbits, by_tau, rows = [], {}, []

    def count():
        orbits.extend(all_orbits_reference(ctx))
        return str(len(orbits))

    def image():
        taus = [tau_of_orbit_reference(ctx, v) for v in orbits]
        by_tau.update(zip(taus, orbits))
        return "all-of-F_q" if sorted(taus) == list(range(ctx.q)) else "not-injective"

    rows.append(_check("orbit-count", str(ctx.q), count))
    rows.append(_check("orbit-image", "all-of-F_q", image))
    rows.append(_check("orbit-roundtrip", "0 mismatches", lambda: "{} mismatches".format(
        sum(orbit_of_tau_reference(ctx, t) != by_tau.get(t) for t in range(ctx.q)))))
    bad = ctx.q - len(by_tau)
    for tau, v in by_tau.items():
        try:
            classify_tau_reference(ctx, tau, v)
        except _CHECK_FAILURES:
            bad += 1
    rows.append(_row("v-correspondence", "0 mismatches", f"{bad} mismatches"))
    for sp in SIGN_PAIRS:
        want = charsets.card_closed(ctx, a_family(0, 1, sp))
        got = correspondence.orbit_count_card(ctx, sp.e1, sp.e2)
        rows.append(_row(f"orbit-card{sign_str(sp)}", str(want), str(got)))
    return rows


def e2_pairs(v):
    """The elements of an Ext2Elem of code arrays, as a list of scalar Ext2Elem."""
    return list(map(Ext2Elem, v.lo.tolist(), v.hi.tolist()))


def e2_array(elems):
    """Scalar Ext2Elem as one Ext2Elem of int64 code arrays."""
    import numpy as np

    elems = list(elems)
    return Ext2Elem(np.array([v.lo for v in elems], dtype=np.int64),
                    np.array([v.hi for v in elems], dtype=np.int64))


# ---------------------------------------------------------------------------
# faults of the field arithmetic, each applied to a fresh context
# ---------------------------------------------------------------------------

def field_faults(q):
    """(name, fault) for each fault of ``tests/test_faults.py`` on a field of q
    elements, plus chi set at 0 and flipped at 1 and -1 at once; the exp
    swaps only where q is no prime, as a prime field keeps no exp or log."""
    def flip(k):
        def fault(ctx):
            ctx.delta
            ctx.tables().chi[k] *= -1
        return fault

    def square_delta(ctx):
        chi = ctx.tables().chi
        ctx._delta = next(x for x in ctx.elements_canonical()
                          if x not in (0, 1) and chi[x] == 1)

    def swap_exp(i, k):
        def fault(ctx):
            tb = ctx.tables()
            tb.exp[i], tb.exp[k] = tb.exp[k], tb.exp[i]
            tb.log[tb.exp[i]], tb.log[tb.exp[k]] = i, k
        return fault

    def shift_m(ctx):
        ctx.tables()
        ctx.m += 1

    def zero_one_minus_one(ctx):
        chi = ctx.tables().chi
        chi[0] = 1
        chi[1] *= -1
        chi[ctx.minus_one] *= -1

    yield "sound", lambda ctx: ctx.tables()
    for k in range(1, q):
        yield f"flip {k}", flip(k)
    if q > 3:  # F_3 has no square but 0 and 1
        yield "square delta", square_delta
    if not is_prime(q):
        for i, k in ((1, 2), (1, 3), (2, 5), (3, 4)):
            yield f"swap exp {i} {k}", swap_exp(i, k)
    yield "m + 1", shift_m
    yield "chi 0, 1, -1", zero_one_minus_one


def sampled_faults(q):
    """``field_faults(q)``, every one up to q = 100; above that every fault
    but the chi flips, of which six, seeded and the first and last among
    them, stand for the q - 1 of them."""
    import random

    keep = set(range(1, q))
    if q > 100:
        keep = {1, q - 1} | set(random.Random(q).sample(range(2, q - 1), 4))
    for name, fault in field_faults(q):
        if not name.startswith("flip ") or int(name.split()[1]) in keep:
            yield name, fault
