"""Rational reciprocity: square classes of nested radicals over F_q.

The objects here are towers b_0, b_1 = sqrt(2 + b_0), b_2 = sqrt(2 + b_1),
... seeded by b_0 = <u_0> for a primitive 2k-th root of unity u_0.  The
three bases, with k and the radicand whose square root builds b_0, are
the table TOWER_BASES:

    sqrt2:  k = 4, b_0 = sqrt(2)           (<zeta_8> = sqrt 2)
    sqrt3:  k = 6, b_0 = sqrt(3)           (<zeta_12> = sqrt 3)
    golden: k = 5, b_0 = (1 - sqrt(5))/2   (<zeta_10>)

Membership b_i in F_q is governed purely by the congruence
q = +-1 (mod 2^(i+1) k); the functions below compute the memberships by
explicit square-root extraction inside F_q and check them against the
congruence, for every admissible choice of the intermediate square
roots.  The special-angle brackets are built in F_{q^2} through the
field's own FieldCtx.e2_* arithmetic.  The T-products at the
quadratic-irrational parameters (2 - b_0, 2 + b_0) have closed forms
that are verified against the brute-force scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .charsets import SignPair, brute_product, t_family
from .dickson import dickson_first, poly_eval_ext2
from .ffield import Ext2Elem, FieldCtx, IdentityFailure


class TowerBase(NamedTuple):
    k: int          # half the order of the root of unity u_0
    radicand: int   # b_0 is built from a square root of this integer


TOWER_BASES = {"sqrt2": TowerBase(4, 2), "sqrt3": TowerBase(6, 3),
               "golden": TowerBase(5, 5)}


def _b0(ctx: FieldCtx, base: str, root: int) -> int:
    """b_0 of the named base, given a square root of its radicand."""
    if base == "golden":
        return ctx.mul(ctx.sub(ctx.one, root), ctx.inv(ctx.from_int(2)))
    return root


@dataclass(frozen=True)
class TowerSpec:
    """A tower base plus the number of sqrt levels to take."""

    base: str                 # a key of TOWER_BASES
    depth: int = 5

    def __post_init__(self):
        if self.base not in TOWER_BASES:
            raise ValueError(f"unknown tower base {self.base!r}")

    def order_k(self) -> int:
        return TOWER_BASES[self.base].k


def _level0_candidates(ctx: FieldCtx, spec: TowerSpec) -> Optional[list[int]]:
    """All values of b_0 inside F_q (one per allowed sign choice), or None."""
    k = spec.order_k()
    if (2 * k) % ctx.p == 0:
        raise ValueError(f"base order 2k={2*k} collides with characteristic {ctx.p}")
    s = ctx.sqrt_canonical(ctx.from_int(TOWER_BASES[spec.base].radicand))
    if s is None:
        return None
    return [_b0(ctx, spec.base, s), _b0(ctx, spec.base, ctx.neg(s))]


def tower_congruences(q: int, spec: TowerSpec) -> list[bool]:
    """The congruence criterion q = +-1 (mod 2^(i+1) k) per level."""
    k = spec.order_k()
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
    cands = _level0_candidates(ctx, spec)
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
        cands = sorted(nxt, key=ctx.elem_key)
        member.append(True)
    if member != tower_congruences(ctx.q, spec):
        raise IdentityFailure(
            f"tower membership disagrees with the congruence criterion at q={ctx.q}")
    return member


@dataclass(frozen=True)
class Sqrt2Classes:
    sqrt2_in_field: bool
    class_2_plus_sqrt2: Optional[int]
    class_next_level: Optional[int]


def sqrt2_tower_class(ctx: FieldCtx) -> Sqrt2Classes:
    """Square classes of 2 + sqrt(2) and of 2 + sqrt(2 + sqrt(2)).

    Checks the mod-16 criterion for the first and (when applicable) the
    mod-32 criterion for the second, raising IdentityFailure when one
    fails; fields where 2 is a nonsquare report only the first flag.
    """
    q = ctx.q
    two = ctx.from_int(2)
    if ctx.legendre(two) != 1:
        return Sqrt2Classes(False, None, None)
    s = ctx.sqrt_canonical(two)
    c1 = ctx.legendre(ctx.add(two, s))
    if not c1 == ctx.legendre(ctx.sub(two, s)) != 0:
        raise IdentityFailure(f"2+sqrt2 and 2-sqrt2 differ in class at q={q}")
    want = (-1) ** ((q - 1) // 8) if q % 8 == 1 else (-1) ** ((q + 1) // 8)
    if c1 != want:
        raise IdentityFailure(f"biquadratic class of 2+sqrt2 is off at q={q}")
    c2 = None
    if q % 16 in (1, 15):
        if c1 != 1:
            raise IdentityFailure(f"2+sqrt2 is a nonsquare at q={q} = +-1 mod 16")
        t = ctx.sqrt_canonical(ctx.add(two, s))
        c2 = ctx.legendre(ctx.add(two, t))
        if not c2 == ctx.legendre(ctx.sub(two, t)) != 0:
            raise IdentityFailure(
                f"2+sqrt(2+sqrt2) and 2-sqrt(2+sqrt2) differ in class at q={q}")
        if (c2 == 1) != (q % 32 in (1, 31)):
            raise IdentityFailure(
                f"mod-32 criterion for 2+sqrt(2+sqrt2) is off at q={q}")
    return Sqrt2Classes(True, c1, c2)


@dataclass(frozen=True)
class SpecialAngle:
    d: int
    bracket: Ext2Elem
    in_base: bool
    base_value: Optional[int]


def special_angle_bracket(ctx: FieldCtx, d: int) -> SpecialAngle:
    """<zeta_d> for d in {8, 10, 12}, verified to be what it should be.

    The bracket is built from the radical expression (sqrt 2, sqrt 3,
    (1-sqrt5)/2) inside F_{q^2} and certified to be the bracket of a
    primitive d-th root of unity through the Dickson functional
    equation: D_e(<zeta>) = <zeta^e> equals 2 exactly when zeta^e = 1.
    Also checks the one-line rationality criteria q = +-1 (mod d); any
    failed check raises IdentityFailure.
    """
    if d not in (8, 10, 12):
        raise ValueError("d must be one of 8, 10, 12")
    if d % ctx.p == 0:
        raise ValueError(f"d={d} shares a factor with q")
    two2 = ctx.e2_embed(ctx.from_int(2))
    if d == 8:
        b = ctx.e2_sqrt(ctx.from_int(2))
        sq_target, proper = ctx.from_int(2), (4,)
        other = ctx.e2_neg(b)
    elif d == 12:
        b = ctx.e2_sqrt(ctx.from_int(3))
        sq_target, proper = ctx.from_int(3), (6, 4)
        other = ctx.e2_neg(b)
    else:
        s5 = ctx.e2_sqrt(ctx.from_int(5))
        half = ctx.e2_embed(ctx.inv(ctx.from_int(2)))
        b = ctx.e2_mul(ctx.e2_sub(ctx.e2_embed(ctx.one), s5), half)
        sq_target, proper = ctx.from_int(5), (5, 2)
        other = ctx.e2_sub(ctx.e2_embed(ctx.one), b)  # the other root of x^2-x-1
    q = ctx.q
    for cand in (b, other):
        if poly_eval_ext2(ctx, dickson_first(ctx, d), cand) != two2:
            raise IdentityFailure(f"D_{d} of the bracket is not 2 at q={q}")
        for e in proper:
            if poly_eval_ext2(ctx, dickson_first(ctx, e), cand) == two2:
                raise IdentityFailure(f"the bracket has order dividing {e} at q={q}")
    if d == 10:
        # b = (1 - sqrt5)/2, so 1 - 2b is a square root of 5 (the
        # bracket of a primitive fifth root is -b, and 2(-b)+1 = 1-2b)
        sq = ctx.e2_sub(ctx.e2_embed(ctx.one), ctx.e2_mul(two2, b))
    else:
        sq = b
    if ctx.e2_mul(sq, sq) != ctx.e2_embed(sq_target):
        raise IdentityFailure(
            f"the radical does not square to {ctx.elem_str(sq_target)} at q={q}")
    in_base = ctx.e2_is_base(b)
    rational = q % d in (1, d - 1)
    if in_base != rational:
        raise IdentityFailure(f"bracket rationality criterion is off at q={q}, d={d}")
    if in_base != ctx.e2_is_base(other):
        raise IdentityFailure(f"rationality depends on the root choice at q={q}, d={d}")
    if (ctx.legendre(sq_target) == 1) != rational:
        raise IdentityFailure(f"one-line Legendre criterion is off at q={q}, d={d}")
    return SpecialAngle(d=d, bracket=b, in_base=in_base,
                        base_value=b.lo if in_base else None)


@dataclass(frozen=True)
class QuadIrrProduct:
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
    rad = TOWER_BASES[base].radicand
    s = ctx.sqrt_canonical(ctx.from_int(rad))
    if s is None:
        raise ValueError(f"{rad} is a nonsquare at q={q}")
    if root_sign < 0:
        s = ctx.neg(s)
    b0 = _b0(ctx, base, s)
    two = ctx.from_int(2)
    if base == "sqrt2":
        if q % 16 in (1, 15):
            signs = SignPair(-1, -1)
            closed = ctx.from_int((-1) ** ((q - eps) // 16) * 2)
        else:
            signs = SignPair(1, 1)
            sgn = (-1) ** ((q + 8 - eps) // 16)
            closed = s if sgn == 1 else ctx.neg(s)
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
