"""Rational reciprocity: square classes of nested radicals over F_q.

The objects here are towers b_0, b_1 = sqrt(2 + b_0), b_2 = sqrt(2 + b_1),
... seeded by b_0 = <u_0> for a primitive 2k-th root of unity u_0.  One
table, TOWER_BASES, holds each base's k and the radicand whose square
root s builds b_0, and every check below reads its radicals from it:

    sqrt2:  k = 4, b_0 = s = sqrt(2)          (<zeta_8> = sqrt 2)
    sqrt3:  k = 6, b_0 = s = sqrt(3)          (<zeta_12> = sqrt 3)
    golden: k = 5, b_0 = (1 - s)/2, s^2 = 5   (<zeta_10>)

Membership b_i in F_q is governed purely by the congruence
q = +-1 (mod 2^(i+1) k); radical_tower_membership computes the
memberships by explicit square-root extraction inside F_q and checks
them against the congruence, for every admissible choice of the
intermediate square roots.  The class of 2 + sqrt(2), a square exactly
when q = +-1 (mod 16), is level 1 of the sqrt2 tower.  The special-angle
bracket <zeta_{2k}> is b_0 of a square root of the radicand taken in
F_{q^2} through the field's own FieldCtx.e2_* arithmetic.  The
T-products at the quadratic-irrational parameters (2 - b_0, 2 + b_0)
have closed forms that are verified against the brute-force scan.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .charsets import SignPair, brute_product, t_family
from .dickson import dickson_values
from .ffield import Ext2Elem, FieldCtx, IdentityFailure, factorize


class TowerBase(NamedTuple):
    k: int          # half the order of the root of unity u_0
    radicand: int   # b_0 is built from a square root of this integer


TOWER_BASES = {"sqrt2": TowerBase(4, 2), "sqrt3": TowerBase(6, 3),
               "golden": TowerBase(5, 5)}


def _b0(base: str, root, sub, mul, one, half):
    """b_0 of the named base, given a square root of its radicand.

    The ring operations are arguments, so F_q and F_{q^2} share it.
    """
    if base == "golden":
        return mul(sub(one, root), half)
    return root


class _TowerSpecFields(NamedTuple):
    base: str                 # a key of TOWER_BASES
    depth: int = 5


class TowerSpec(_TowerSpecFields):
    """A tower base plus the number of sqrt levels to take (a NamedTuple).

    An unknown base raises ValueError when the spec is built, also through
    ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if spec.base not in TOWER_BASES:
            raise ValueError(f"unknown tower base {spec.base!r}")
        return spec

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make
        return cls(*iterable)


def _level0_candidates(ctx: FieldCtx, base: str) -> Optional[list[int]]:
    """b_0 inside F_q for the roots s and -s of the radicand, or None."""
    k, rad = TOWER_BASES[base]
    if (2 * k) % ctx.p == 0:
        raise ValueError(f"base order 2k={2*k} collides with characteristic {ctx.p}")
    s = ctx.sqrt_canonical(ctx.from_int(rad))
    if s is None:
        return None
    half = ctx.inv(ctx.from_int(2))
    return [_b0(base, x, ctx.sub, ctx.mul, ctx.one, half) for x in (s, ctx.neg(s))]


def tower_congruences(q: int, spec: TowerSpec) -> list[bool]:
    """The congruence criterion q = +-1 (mod 2^(i+1) k) per level."""
    k = TOWER_BASES[spec.base].k
    out = []
    for i in range(spec.depth + 1):
        mod = (1 << (i + 1)) * k
        out.append(q % mod in (1 % mod, (mod - 1) % mod))
    return out


def radical_tower_membership(ctx: FieldCtx, spec: TowerSpec) -> list[bool]:
    """Whether b_i lies in F_q, for i = 0..depth, by explicit arithmetic.

    Tracks every candidate value that the free square-root choices can
    produce inside F_q; all candidates at a level must agree about
    whether the next level stays in the field.  The result is checked
    against the congruence criterion before returning; IdentityFailure is
    raised when either check fails.
    """
    cands = _level0_candidates(ctx, spec.base)
    member = [cands is not None]
    for _ in range(spec.depth):
        if not cands:
            member.append(False)
            continue
        classes = {ctx.legendre(ctx.add(ctx.from_int(2), x)) for x in cands}
        if len(classes) != 1:
            raise IdentityFailure(f"square class depends on the root choice at q={ctx.q}")
        if classes.pop() == -1:
            member.append(False)
            cands = None
            continue
        nxt = set()
        for x in cands:
            r = ctx.sqrt_canonical(ctx.add(ctx.from_int(2), x))
            nxt.add(r)
            nxt.add(ctx.neg(r))
        cands = sorted(nxt)
        member.append(True)
    if member != tower_congruences(ctx.q, spec):
        raise IdentityFailure(
            f"tower membership disagrees with the congruence criterion at q={ctx.q}")
    return member


class SpecialAngle(NamedTuple):
    """<zeta_d> in F_{q^2}, and its value in F_q when it lies there."""

    d: int
    bracket: Ext2Elem
    in_base: bool
    base_value: Optional[int]


def special_angle_bracket(ctx: FieldCtx, d: int) -> SpecialAngle:
    """<zeta_d> for d = 2k of a base in TOWER_BASES, verified.

    The bracket and its partner are b_0 of the square roots s and -s of
    the base's radicand (sqrt 2, sqrt 3, (1 -+ sqrt5)/2), taken inside
    F_{q^2}, and are certified to be brackets of primitive d-th roots of
    unity through the Dickson functional equation: D_e(<zeta>) =
    <zeta^e> equals 2 exactly when zeta^e = 1.  Also checks the one-line
    rationality criteria q = +-1 (mod d); any failed check raises
    IdentityFailure.
    """
    base = next((name for name, tb in TOWER_BASES.items() if 2 * tb.k == d), None)
    if base is None:
        orders = sorted(2 * tb.k for tb in TOWER_BASES.values())
        raise ValueError(f"d must be one of {', '.join(map(str, orders))}")
    if d % ctx.p == 0:
        raise ValueError(f"d={d} shares a factor with q")
    rad = ctx.from_int(TOWER_BASES[base].radicand)
    s = ctx.e2_sqrt(rad)
    half = ctx.e2_embed(ctx.inv(ctx.from_int(2)))
    b, other = (_b0(base, x, ctx.e2_sub, ctx.e2_mul, ctx.e2_embed(ctx.one), half)
                for x in (s, ctx.e2_neg(s)))
    two2 = ctx.e2_embed(ctx.from_int(2))
    q = ctx.q

    def dickson(k, x):  # D_k(x) in F_{q^2}
        return dickson_values(k, x, ctx.e2_sub, ctx.e2_mul, two2)[0]

    for cand in (b, other):
        if dickson(d, cand) != two2:
            raise IdentityFailure(f"D_{d} of the bracket is not 2 at q={q}")
        for r, _ in factorize(d):
            if dickson(d // r, cand) == two2:
                raise IdentityFailure(f"the bracket has order dividing {d // r} at q={q}")
    if ctx.e2_mul(s, s) != ctx.e2_embed(rad):
        raise IdentityFailure(
            f"the radical does not square to {ctx.elem_str(rad)} at q={q}")
    in_base = ctx.e2_is_base(b)
    rational = tower_congruences(q, TowerSpec(base, 0))[0]
    if in_base != rational:
        raise IdentityFailure(f"bracket rationality criterion is off at q={q}, d={d}")
    if in_base != ctx.e2_is_base(other):
        raise IdentityFailure(f"rationality depends on the root choice at q={q}, d={d}")
    if (ctx.legendre(rad) == 1) != rational:
        raise IdentityFailure(f"one-line Legendre criterion is off at q={q}, d={d}")
    return SpecialAngle(d=d, bracket=b, in_base=in_base,
                        base_value=b.lo if in_base else None)


class QuadIrrProduct(NamedTuple):
    """A checked T_{2-b0, 2+b0} product at the base's sign pattern."""

    base: str
    j: int
    l: int
    signs: SignPair
    value: int
    cardinality: int


def prod_T_quadratic_irrational(ctx: FieldCtx, base: str, *,
                                root_sign: int = 1) -> QuadIrrProduct:
    """Closed T_{2-b0, 2+b0} product for the named bases, oracle-checked.

    The congruence class of q picks the sign pattern; root_sign flips
    which square root of the base's radicand is called b_0 (the closed
    form holds for either, which the tests exercise).  Raises when the
    base's congruence precondition fails at this q.
    """
    q, eps = ctx.q, ctx.eps
    if base not in TOWER_BASES:
        raise ValueError(f"unknown base {base!r}")
    cands = _level0_candidates(ctx, base)
    if cands is None:
        raise ValueError(f"{TOWER_BASES[base].radicand} is a nonsquare at q={q}")
    b0 = cands[1] if root_sign < 0 else cands[0]
    two = ctx.from_int(2)
    if base == "sqrt2":
        if q % 16 in (1, 15):
            signs = SignPair(-1, -1)
            closed = ctx.from_int((-1) ** ((q - eps) // 16) * 2)
        else:
            signs = SignPair(1, 1)
            sgn = (-1) ** ((q + 8 - eps) // 16)
            closed = b0 if sgn == 1 else ctx.neg(b0)
    elif base == "sqrt3":
        nu = (-1) ** ((q - eps) // 12)
        signs = SignPair(-nu, -nu)
        closed = ctx.from_int((-1) ** ((q + 1) // 24) * 2)
    elif q % 20 in (1, 19):  # golden
        signs = SignPair(-1, -1)
        closed = two
    else:
        signs = SignPair(1, 1)
        closed = ctx.neg(b0) if eps == 1 else b0  # -eps * r
    j, l = ctx.sub(two, b0), ctx.add(two, b0)
    rep = brute_product(ctx, t_family(j, l, signs))
    if rep.value != closed:
        raise IdentityFailure(
            f"closed quadratic-irrational product is off at q={q}, base={base}")
    return QuadIrrProduct(base=base, j=j, l=l, signs=signs,
                          value=closed, cardinality=rep.cardinality)
