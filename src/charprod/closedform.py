"""Closed-form product formulas for the character-cut set families.

Everything here produces exact field values that the brute-force scans
in ``charsets`` must reproduce.  The normalization fixes j + l = 4 for
T-families (equivalently l - k = 4 for S-families, with j = -k), which
reduces all products to a single parameter tau = j/l in F_q plus a point
at infinity (l = 0).  The linked quantities

    j = 4*tau/(tau+1)     l = 4/(tau+1)     r = l - 2 = 2 - j
    tau = j/l = (2-r)/(2+r)

are carried in a NormalizedFrame, together with the square class
cls = (chi(tau), chi(tau+1)), read once when the frame is built.  The
frame is the only input of the normalized side: ``prod_T_values(ctx, j,
l)`` checks j + l = 4, builds the frame and makes one decision on cls,
where only tau = 0 and tau = inf, at which chi(tau) or l vanishes, are
special.  Each root below reads the class it needs off cls.  The
all-square class reads its sign off 1 +/- sqrt(l)/2, and the three mixed
classes use the deterministic square roots a1, a2, a3 (det_sqrt, which
picks its root by cls): Dickson values of r computed in F_q, so no
choice of a unit u with u + 1/u = r, and no element of F_{q^2}, enters.
The paper's named corollaries (tau = 1, 3, 1/3, by q mod 8 and mod 12)
are rows of these classes, not separate cases.

A row depends only on (ctx, j, l), so ``prod_T_values`` keeps the last
row built on each context, weakly keyed, and a call on the same pair
returns a copy of it: the ``tables`` suite asks for each tau's row eight
times and builds it once.  This holds as long as a context is not changed
between calls; faults are applied to a fresh context before any suite
runs.  Before a row is kept it must pass the Wilson check: the four
T-sets partition F_q^* minus {j, -l}, so their products multiply to
1/(jl), to 1/l at tau = 0 and to -1/j at tau = inf.

S-products are served exclusively through T-products: S_{k,l}^{s1,s2}
equals T_{-k,l}^{eps*s1, s2} as a set, eps the character of -1, and
``rescale_T`` takes any T-pair to a normalized one.
``closed_product(ctx, fam)`` is the one entry point for any A/S/S1/T
family, the closed-form counterpart of ``charsets.brute_product``.
"""

from __future__ import annotations

import functools
import weakref
from typing import NamedTuple, Optional, Union

from .charsets import SIGN_PAIRS, SetFamily, SignPair, _pair_card
from .dickson import dickson_values
from .ffield import FieldCtx, IdentityFailure


class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "inf"


INF = _Infinity()

ProjTau = Union[int, _Infinity]


def tau_str(tau: ProjTau, ctx: FieldCtx) -> str:
    return "inf" if isinstance(tau, _Infinity) else ctx.elem_str(tau)


class NormalizedFrame(NamedTuple):
    """tau together with the linked normalized parameters and its square class.

    A NamedTuple; cls is (chi(tau), chi(tau+1)): None at tau = inf and
    (0, 1) at tau = 0.
    """

    tau: ProjTau
    j: int
    l: int
    r: int
    cls: Optional[tuple[int, int]]


def normalized_frame(ctx: FieldCtx, tau: ProjTau) -> NormalizedFrame:
    """Compute (j, l, r) and the square class for a ratio tau != -1."""
    four = ctx.from_int(4)
    if isinstance(tau, _Infinity):
        return NormalizedFrame(tau=INF, j=four, l=0, r=ctx.from_int(-2), cls=None)
    if tau == ctx.minus_one:
        raise ValueError("tau = -1 is excluded")
    den = ctx.add(tau, ctx.one)
    l = ctx.div(four, den)
    j = ctx.mul(tau, l)
    r = ctx.sub(l, ctx.from_int(2))
    # round-trip tau = (2-r)/(2+r); 2+r = l is nonzero here
    if ctx.div(ctx.sub(ctx.from_int(2), r), l) != tau:
        raise IdentityFailure(f"tau = (2-r)/(2+r) fails at q={ctx.q}")
    return NormalizedFrame(tau=tau, j=j, l=l, r=r, cls=square_classes(ctx, tau))


def square_classes(ctx: FieldCtx, tau: int) -> tuple[int, int]:
    """(chi(tau), chi(tau+1)), the pair that selects a tau's table row."""
    return ctx.legendre(tau), ctx.legendre(ctx.add(tau, ctx.one))


def prod_S_single(ctx: FieldCtx, k: int, sign: int) -> int:
    """Product over {a in F_q^* : chi(a+k) = sign}, in closed form."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    eps_elem = ctx.from_int(ctx.eps)
    if k == 0:
        return ctx.neg(eps_elem) if sign == 1 else eps_elem
    two = ctx.from_int(2)
    if ctx.legendre(k) == 1:
        if sign == 1:
            return ctx.div(eps_elem, ctx.mul(two, k))
        return ctx.mul(eps_elem, two)
    if sign == 1:
        return ctx.neg(ctx.mul(eps_elem, two))
    return ctx.neg(ctx.div(eps_elem, ctx.mul(two, k)))


def quadruple_from_one(ctx: FieldCtx, k: int, l: int,
                       known: tuple[SignPair, int]) -> dict[SignPair, int]:
    """All four S_{k,l} products from any single one.

    Walks the three disjoint-union relations against the closed single
    products, outward from the known one along their path ++, +-, --, -+;
    every product involved is a unit, so the divisions are always defined.
    A pair that is no sign pair raises ValueError.
    """
    if k == l:
        raise ValueError("k != l required")
    signs, value = known

    # extra factor contributed by the element killing the other condition
    f_plus = ctx.neg(l) if (ctx.legendre(ctx.sub(k, l)) == 1 and l != 0) else ctx.one
    f_minus = ctx.neg(k) if (ctx.legendre(ctx.sub(l, k)) == -1 and k != 0) else ctx.one
    f_minus2 = ctx.neg(l) if (ctx.legendre(ctx.sub(k, l)) == -1 and l != 0) else ctx.one
    pk_plus = prod_S_single(ctx, k, 1)
    pk_minus = prod_S_single(ctx, k, -1)
    pl_minus = prod_S_single(ctx, l, -1)

    # the relations form a path: link t reads totals[t] = prods[t] * prods[t + 1] * factors[t]
    chain = (SignPair(1, 1), SignPair(1, -1), SignPair(-1, -1), SignPair(-1, 1))
    totals, factors = (pk_plus, pl_minus, pk_minus), (f_plus, f_minus, f_minus2)
    i = chain.index(SignPair(*signs))  # ValueError for a pair that is no sign pair
    prods = [value] * 4
    for t in range(i, 3):
        prods[t + 1] = ctx.div(totals[t], ctx.mul(prods[t], factors[t]))
    for t in range(i - 1, -1, -1):
        prods[t] = ctx.div(totals[t], ctx.mul(prods[t + 1], factors[t]))
    return dict(zip(chain, prods))


_MIXED_CLASSES = ((1, -1), (-1, 1), (-1, -1))  # the classes of a1, a2, a3


def det_sqrt(ctx: FieldCtx, frame: NormalizedFrame) -> int:
    """Deterministic square root of the frame's mixed square class.

    The classes (1, -1), (-1, 1) and (-1, -1) select a1, a2 and a3; a frame
    in no mixed class raises ValueError.  a1 = (u^m - u^-m)/(u - 1/u), a2 =
    <u^m>, a3 = <(-u)^m>, where r = <u> and m = (q - eps)/4.  As Dickson
    values of r they are computed in F_q, so the choice of u among u and 1/u
    cannot matter: a2 = D_m(r), a3 = chi(2) D_m(r) and a1 = E_{m-1}(r) =
    (2 D_{m+1}(r) - r D_m(r))/(r^2 - 4) = 2 D_{m+1}(r)/(r^2 - 4), as a1's
    class, chi(r + 2) = chi(l) = -1 and chi(r - 2) = chi(-j) = -eps, puts r
    in A_{-2,2}^{-eps,-}, the roots of D_m: D_m(r) = 0 is checked.  Each
    must square to -4/(r^2 - 4), l or j; IdentityFailure otherwise.
    """
    if frame.cls not in _MIXED_CLASSES:
        raise ValueError(f"tau={tau_str(frame.tau, ctx)} is in no mixed square class")
    r = frame.r
    dm, dm1 = dickson_values(ctx.m, r, ctx.sub, ctx.mul, ctx.from_int(2))
    if frame.cls == (1, -1):
        if dm != 0:
            raise IdentityFailure(f"r is no root of D_m for the det root a1 at q={ctx.q}")
        name = "a1"
        d = ctx.sub(ctx.mul(r, r), ctx.from_int(4))  # (u - 1/u)^2 = -j*l, nonzero
        val = ctx.div(ctx.mul(ctx.from_int(2), dm1), d)
        want = ctx.div(ctx.from_int(-4), d)
    elif frame.cls == (-1, 1):
        name, val, want = "a2", dm, frame.l
    else:
        name = "a3"
        val = dm if ctx.legendre(ctx.from_int(2)) == 1 else ctx.neg(dm)
        want = frame.j
    if ctx.mul(val, val) != want:
        raise IdentityFailure(
            f"square identity for the det root {name} failed at q={ctx.q}")
    return val


def _sign_row(pp: int, pm: int, mp: int, mm: int) -> dict[SignPair, int]:
    """A table row: the values for the sign pairs ++, +-, -+, -- in order."""
    return dict(zip(SIGN_PAIRS, (pp, pm, mp, mm)))


def _specific_row(ctx: FieldCtx, frame: NormalizedFrame) -> dict[SignPair, int]:
    """Values for tau in {0, inf}, where chi(tau) or l vanishes."""
    e = ctx.eps
    chi2 = ctx.legendre(ctx.from_int(2))
    el = ctx.from_int
    if frame.l == 0:  # tau = inf, (j,l) = (4,0)
        c = el(e)
        return _sign_row(ctx.neg(ctx.div(c, el(4))), ctx.div(c, el(2)), ctx.one, el(2))
    # tau = 0, (j,l) = (0,4)
    c = el(e * chi2)  # character of -2
    d = el(chi2)
    return _sign_row(ctx.div(c, el(4)), c, ctx.div(d, el(2)), ctx.mul(d, el(2)))


def all_square_class(ctx: FieldCtx, frame: NormalizedFrame) -> int:
    """Common square class mu of 1 +/- sqrt(l)/2 when tau, tau+1 are squares.

    The two branches must agree.  IdentityFailure is raised if they do not,
    or if l reads as a nonsquare, which only an inconsistent character can
    cause.
    """
    if frame.cls != (1, 1):
        raise ValueError("tau and tau+1 must both be nonzero squares")
    half = ctx.inv(ctx.from_int(2))
    rt = ctx.sqrt_canonical(frame.l)
    if rt is None:  # l = 4/(tau+1) is a square whenever tau+1 is
        raise IdentityFailure(f"l is a nonsquare in the all-square class at q={ctx.q}")
    mu_plus = ctx.legendre(ctx.add(ctx.one, ctx.mul(rt, half)))
    mu_minus = ctx.legendre(ctx.sub(ctx.one, ctx.mul(rt, half)))
    if not mu_plus == mu_minus != 0:
        raise IdentityFailure(f"branch dependence in the all-square class at q={ctx.q}")
    return mu_plus


def _all_square_row(ctx: FieldCtx, frame: NormalizedFrame) -> dict[SignPair, int]:
    """Rows for tau and tau+1 both nonzero squares, signed by all_square_class."""
    el = ctx.from_int
    ce = el(ctx.eps)
    jl2 = ctx.mul(el(2), ctx.mul(frame.j, frame.l))
    vals = _sign_row(ctx.div(ce, jl2), ce, ctx.one, el(2))
    if all_square_class(ctx, frame) == 1:
        return vals
    return {sp: ctx.neg(v) for sp, v in vals.items()}


def mixed_class_root(ctx: FieldCtx, frame: NormalizedFrame) -> int:
    """The root c behind the mixed square-class rows, built from det_sqrt.

    c = chi(2) sqrt(tau) = chi(2) 2/(a1 l) for the class (1, -1), chi(2)
    sqrt(tau+1) = chi(2) 2/a2 for (-1, 1) and sqrt(tau/(tau+1)) = a3/2
    for (-1, -1).
    """
    a = det_sqrt(ctx, frame)
    two = ctx.from_int(2)
    if frame.cls == (-1, -1):
        return ctx.div(a, two)
    c = ctx.div(two, a if frame.cls == (-1, 1) else ctx.mul(a, frame.l))
    return c if ctx.legendre(two) == 1 else ctx.neg(c)


def _mixed_class_row(ctx: FieldCtx, frame: NormalizedFrame) -> dict[SignPair, int]:
    """Rows for the three square-class patterns with a nonsquare present."""
    el = ctx.from_int
    two = el(2)
    tau = frame.tau
    tau1 = ctx.add(tau, ctx.one)
    ce = el(ctx.eps)
    c = mixed_class_root(ctx, frame)
    if frame.cls == (1, -1):
        return _sign_row(ctx.neg(ctx.div(tau1, ctx.mul(two, c))),
                         ctx.neg(c),
                         ctx.div(ce, c),
                         ctx.div(ctx.mul(ce, tau1), ctx.mul(el(8), c)))
    if frame.cls == (-1, 1):
        return _sign_row(ctx.div(ctx.mul(ce, c), two),
                         ctx.mul(ce, c),
                         ctx.div(ctx.mul(c, tau1), ctx.mul(el(16), tau)),
                         ctx.div(two, c))
    return _sign_row(ctx.neg(ctx.div(ce, ctx.mul(two, c))),
                     ctx.neg(ctx.div(ctx.mul(ce, tau1), ctx.mul(el(16), c))),
                     ctx.inv(c),
                     ctx.mul(two, c))


# the last row built on each context, ctx -> ((j, l), row); weak keys, so a
# context and its tables are freed once nothing else holds them
_LAST_ROW: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _wilson_check(ctx: FieldCtx, j: int, l: int, row: dict[SignPair, int]) -> None:
    """IdentityFailure unless the row multiplies to Wilson's 1/(jl), to 1/l
    at j = 0 and to -1/j at l = 0 (see the module docstring)."""
    if j == 0:
        removed = l
    elif l == 0:
        removed = ctx.neg(j)
    else:
        removed = ctx.mul(j, l)
    if functools.reduce(ctx.mul, row.values()) != ctx.inv(removed):
        raise IdentityFailure(
            f"Wilson product of the four T-values fails at q={ctx.q}")


def prod_T_values(ctx: FieldCtx, j: int, l: int) -> dict[SignPair, int]:
    """All four T_{j,l} products for a normalized pair (j + l = 4).

    Returns a fresh dict.  The row depends only on (ctx, j, l), so the last
    one built on each context is kept, and a call on the same pair reads it
    instead of building it again; this holds as long as the context is not
    changed between calls.  A row is kept only once it passes the Wilson
    check; a call that raises keeps nothing, and the next one raises again.
    """
    if ctx.add(j, l) != ctx.from_int(4):
        raise ValueError("pair is not normalized: j + l != 4")
    last = _LAST_ROW.get(ctx)
    if last is not None and last[0] == (j, l):
        return dict(last[1])
    frame = normalized_frame(ctx, INF if l == 0 else ctx.div(j, l))
    if frame.cls == (1, 1):
        row = _all_square_row(ctx, frame)
    elif frame.cls in _MIXED_CLASSES:
        row = _mixed_class_row(ctx, frame)
    else:
        row = _specific_row(ctx, frame)
    _wilson_check(ctx, j, l, row)
    _LAST_ROW[ctx] = ((j, l), row)
    return dict(row)


def rescale_T(ctx: FieldCtx, j_prime: int, l_prime: int, signs) -> int:
    """T-product for arbitrary parameters, via the rescaling correction.

    Public entry point: divides out lambda = (j'+l')/4, twists the signs
    by the character of lambda, and multiplies back lambda^|T_{j',l'}^{e1,e2}|,
    the closed cardinality that ``charsets._pair_card`` counts.
    """
    e1, e2 = SignPair(*signs)
    s = ctx.add(j_prime, l_prime)
    if s == 0:
        raise ValueError("j' + l' must be nonzero")
    lam = ctx.div(s, ctx.from_int(4))
    nu = ctx.legendre(s)
    j = ctx.div(j_prime, lam)
    l = ctx.div(l_prime, lam)
    if ctx.add(j, l) != ctx.from_int(4):
        raise IdentityFailure(f"(j' + l')/lambda != 4 at q={ctx.q}")
    card = _pair_card(ctx, "T", (e1, e2), nu, ctx.legendre(j_prime), ctx.legendre(l_prime))
    base = prod_T_values(ctx, j, l)[SignPair(nu * e1, nu * e2)]
    return ctx.mul(ctx.pow(lam, card), base)


def closed_product(ctx: FieldCtx, fam: SetFamily) -> int:
    """Closed-form product over any A/S/S1/T family (cf. brute_product)."""
    fam.validate(ctx)
    if fam.kind == "S1":
        return prod_S_single(ctx, fam.params[0], fam.signs)
    if fam.kind == "T":
        return rescale_T(ctx, *fam.params, fam.signs)
    k, l = fam.params
    if fam.kind == "A" and (ctx.legendre(k), ctx.legendre(l)) == tuple(fam.signs):
        return 0  # a = 0 is a member
    e1, e2 = fam.signs  # S_{k,l}^{e1,e2} is T_{-k,l}^{eps*e1,e2} as a set
    return rescale_T(ctx, ctx.neg(k), l, (ctx.eps * e1, e2))


def swap_T(ctx: FieldCtx, j: int, l: int, mu: int) -> int:
    """Product of T_{l,j}^{mu,mu} computed from the T_{j,l}^{mu,mu} one."""
    if mu not in (1, -1):
        raise ValueError("mu must be +1 or -1")
    base = rescale_T(ctx, j, l, (mu, mu))  # raises ValueError at j + l = 0
    factor = mu * ctx.legendre(ctx.from_int(2)) * ctx.legendre(ctx.add(j, l))
    if not (ctx.legendre(j) == ctx.legendre(l) == mu):
        factor = -factor
    return base if factor == 1 else ctx.neg(base)

