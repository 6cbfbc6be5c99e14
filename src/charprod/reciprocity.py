"""Rational reciprocity: square classes of nested radicals over F_q.

The objects here are towers b_0, b_1 = sqrt(2 + b_0), b_2 = sqrt(2 + b_1),
... seeded by b_0 = <u_0> for a primitive 2k-th root of unity u_0:

    sqrt2:  k = 4, b_0 = sqrt(2)           (<zeta_8> = sqrt 2)
    sqrt3:  k = 6, b_0 = sqrt(3)           (<zeta_12> = sqrt 3)
    golden: k = 5, b_0 = (1 - sqrt(5))/2   (<zeta_10>)

Membership b_i in F_q is governed purely by the congruence
q = +-1 (mod 2^(i+1) k); the functions below compute the memberships by
explicit square-root extraction and check them against the congruence,
for every admissible choice of the intermediate square roots.  The
T-products at the quadratic-irrational parameters (2 - b_0, 2 + b_0)
have closed forms that are verified against the brute-force scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .charsets import SignPair, brute_product, t_family
from .dickson import dickson_first, poly_eval_ext2
from .ffield import (Ext2Elem, FieldCtx, IdentityFailure, first_of_order,
                     power, tonelli_shanks)

BASE_ORDERS = {"sqrt2": 4, "sqrt3": 6, "golden": 5}


@dataclass(frozen=True)
class TowerSpec:
    """A tower base plus the number of sqrt levels to take."""

    base: str                 # sqrt2 | sqrt3 | golden | bracket
    depth: int = 5
    k: Optional[int] = None   # half the root-of-unity order, bracket only

    def order_k(self) -> int:
        if self.base == "bracket":
            if not self.k or self.k < 1:
                raise ValueError("bracket base needs k >= 1")
            return self.k
        try:
            return BASE_ORDERS[self.base]
        except KeyError:
            raise ValueError(f"unknown tower base {self.base!r}") from None


def _level0_candidates(ctx: FieldCtx, spec: TowerSpec) -> Optional[list[int]]:
    """All values of b_0 inside F_q (one per allowed sign choice), or None."""
    k = spec.order_k()
    if (2 * k) % ctx.p == 0:
        raise ValueError(f"base order 2k={2*k} collides with characteristic {ctx.p}")
    if spec.base == "sqrt2":
        s = ctx.sqrt_canonical(ctx.from_int(2))
        return None if s is None else [s, ctx.neg(s)]
    if spec.base == "sqrt3":
        s = ctx.sqrt_canonical(ctx.from_int(3))
        return None if s is None else [s, ctx.neg(s)]
    if spec.base == "golden":
        s = ctx.sqrt_canonical(ctx.from_int(5))
        if s is None:
            return None
        half = ctx.inv(ctx.from_int(2))
        return [ctx.mul(ctx.sub(ctx.one, s), half),
                ctx.mul(ctx.add(ctx.one, s), half)]
    # generic bracket base: <zeta_2k> for a primitive 2k-th root zeta_2k
    d = 2 * k
    if (ctx.q * ctx.q - 1) % d != 0:
        # zeta_2k is outside F_{q^2}, so its bracket cannot lie in F_q
        # (any x = <zeta> in F_q would put zeta in a quadratic extension)
        return None
    from .correspondence import ext2_generator

    z = ctx.e2_pow(ext2_generator(ctx), (ctx.q * ctx.q - 1) // d)
    cands = set()
    w = z
    for a in range(1, d):
        if gcd(a, d) == 1:
            br = ctx.e2_add(w, ctx.e2_inv(w))
            if ctx.e2_is_base(br):
                cands.add(ctx.e2_project(br))
        w = ctx.e2_mul(w, z)
    return sorted(cands, key=ctx.elem_key) if cands else None


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
    which square root of 2 / 3 / 5 is called b_0 (the closed form holds
    for either, which the tests exercise).  Raises when the base's
    congruence precondition fails at this q.
    """
    q, eps = ctx.q, ctx.eps
    two = ctx.from_int(2)
    if base == "sqrt2":
        s = ctx.sqrt_canonical(two)
        if s is None:
            raise ValueError(f"2 is a nonsquare at q={q}")
        if root_sign < 0:
            s = ctx.neg(s)
        b0 = s
        if q % 16 in (1, 15):
            signs = SignPair(-1, -1)
            closed = ctx.from_int((-1) ** ((q - eps) // 16) * 2)
        else:
            signs = SignPair(1, 1)
            sgn = (-1) ** ((q + 8 - eps) // 16)
            closed = s if sgn == 1 else ctx.neg(s)
    elif base == "sqrt3":
        s = ctx.sqrt_canonical(ctx.from_int(3))
        if s is None:
            raise ValueError(f"3 is a nonsquare at q={q}")
        if root_sign < 0:
            s = ctx.neg(s)
        b0 = s
        nu = (-1) ** ((q - eps) // 12)
        signs = SignPair(-nu, -nu)
        closed = ctx.from_int((-1) ** ((q + 1) // 24) * 2)
    elif base == "golden":
        s = ctx.sqrt_canonical(ctx.from_int(5))
        if s is None:
            raise ValueError(f"5 is a nonsquare at q={q}")
        if root_sign < 0:
            s = ctx.neg(s)
        b0 = ctx.mul(ctx.sub(ctx.one, s), ctx.inv(two))
        if q % 20 in (1, 19):
            signs = SignPair(-1, -1)
            closed = two
        else:
            signs = SignPair(1, 1)
            closed = ctx.neg(b0) if eps == 1 else b0  # -eps * r
    else:
        raise ValueError(f"unknown base {base!r}")
    j, l = ctx.sub(two, b0), ctx.add(two, b0)
    rep = brute_product(ctx, t_family(j, l, signs))
    if rep.value != closed:
        raise IdentityFailure(
            f"closed quadratic-irrational product is off at q={q}, base={base}")
    return QuadIrrProduct(base=base, j=j, l=l, signs=signs,
                          value=closed, cardinality=rep.cardinality)


# ---------------------------------------------------------------------------
# iterated quadratic extensions, used to realize the unit tower u_i
# ---------------------------------------------------------------------------

class QuadTower:
    """F_q = K_0 < K_1 < ... with [K_j : K_{j-1}] = 2.

    Level-j elements are pairs (lo, hi) of level-(j-1) elements meaning
    lo + hi*s_j with s_j^2 = delta_{j-1}, a nonsquare of K_{j-1}.  Slow
    and only meant for desk-scale verification of the unit towers; the
    sweep-scale membership computations stay inside F_q.
    """

    def __init__(self, ctx: FieldCtx, levels: int):
        self.ctx = ctx
        self.levels = levels
        self.deltas: list = [ctx.delta]
        for j in range(1, levels):
            self.deltas.append(self._find_nonsquare(j))

    def size(self, level: int) -> int:
        return self.ctx.q ** (1 << level)

    def zero(self, level: int):
        return 0 if level == 0 else (self.zero(level - 1), self.zero(level - 1))

    def one(self, level: int):
        return self.ctx.one if level == 0 else (self.one(level - 1), self.zero(level - 1))

    def embed(self, x, from_level: int, to_level: int):
        for lvl in range(from_level, to_level):
            x = (x, self.zero(lvl))
        return x

    def add(self, x, y, level: int):
        if level == 0:
            return self.ctx.add(x, y)
        return (self.add(x[0], y[0], level - 1), self.add(x[1], y[1], level - 1))

    def neg(self, x, level: int):
        if level == 0:
            return self.ctx.neg(x)
        return (self.neg(x[0], level - 1), self.neg(x[1], level - 1))

    def sub(self, x, y, level: int):
        return self.add(x, self.neg(y, level), level)

    def mul(self, x, y, level: int):
        if level == 0:
            return self.ctx.mul(x, y)
        a, b = x
        c, d = y
        lo = self.add(self.mul(a, c, level - 1),
                      self.mul(self.mul(b, d, level - 1),
                               self.deltas[level - 1], level - 1), level - 1)
        hi = self.add(self.mul(a, d, level - 1), self.mul(b, c, level - 1), level - 1)
        return (lo, hi)

    def inv(self, x, level: int):
        if level == 0:
            return self.ctx.inv(x)
        a, b = x
        nrm = self.sub(self.mul(a, a, level - 1),
                       self.mul(self.mul(b, b, level - 1),
                                self.deltas[level - 1], level - 1), level - 1)
        ni = self.inv(nrm, level - 1)
        return (self.mul(a, ni, level - 1), self.mul(self.neg(b, level - 1), ni, level - 1))

    def pow(self, x, e: int, level: int):
        if e < 0:
            x, e = self.inv(x, level), -e
        return power(x, e, lambda a, b: self.mul(a, b, level), self.one(level))

    def legendre(self, x, level: int) -> int:
        if x == self.zero(level):
            return 0
        t = self.pow(x, (self.size(level) - 1) // 2, level)
        return 1 if t == self.one(level) else -1

    def _find_nonsquare(self, level: int):
        # candidates c + s_level for base-field constants c
        for c in range(self.ctx.q):
            cand = (self.embed(c, 0, level - 1), self.one(level - 1)) \
                if level > 1 else (c, self.ctx.one)
            if self.legendre(cand, level) == -1:
                return cand
        raise AssertionError("no nonsquare found")  # unreachable

    def sqrt(self, x, level: int):
        """A square root of x at this level, or None if x is a nonsquare."""
        if self.legendre(x, level) == -1:
            return None
        if x == self.zero(level):
            return x
        z = self.deltas[level] if level < len(self.deltas) else self._find_nonsquare(level)
        return tonelli_shanks(x, self.size(level) - 1, z,
                              lambda a, b: self.mul(a, b, level),
                              lambda a, e: self.pow(a, e, level), self.one(level))

    def in_base(self, x, level: int) -> bool:
        while level > 0:
            if x[1] != self.zero(level - 1):
                return False
            x = x[0]
            level -= 1
        return True


def unit_tower(ctx: FieldCtx, spec: TowerSpec) -> list[tuple]:
    """Realize u_0, u_1, ... with u_i^2 = u_{i-1} and return (u_i, b_i).

    u_0 is a primitive 2k-th root of unity, found in the smallest level
    of a quadratic tower whose multiplicative group contains mu_2k, and
    each b_i = u_i + 1/u_i.  Entries are (level, u_i, b_i) with u_i, b_i
    elements of K_level.  Desk-scale only.
    """
    k = spec.order_k()
    d0 = 2 * k
    if d0 % ctx.p == 0:
        raise ValueError("base order collides with the characteristic")
    # level needed for u_i of order 2^i * 2k
    levels = []
    for i in range(spec.depth + 1):
        d = (1 << i) * d0
        j = 0
        while (ctx.q ** (1 << j) - 1) % d != 0:
            j += 1
            if j > 12:
                raise ValueError(f"order {d} never divides q^(2^j)-1")
        levels.append(j)
    tw = QuadTower(ctx, max(levels) + 1)

    # u_0: power candidates down to mu_{2k} until one has exact order 2k
    lvl = levels[0]
    size = tw.size(lvl)

    def candidates():
        if lvl == 0:
            yield from range(2, ctx.q)
        else:
            for b in range(1, ctx.q):
                eb = tw.embed(b, 0, lvl - 1)
                for a in range(ctx.q):
                    yield (tw.embed(a, 0, lvl - 1), eb)

    u0 = first_of_order((tw.pow(c, (size - 1) // d0, lvl) for c in candidates()),
                        d0, lambda x, e: tw.pow(x, e, lvl), tw.one(lvl))
    out = []
    u, cur = u0, levels[0]
    for i in range(spec.depth + 1):
        if i > 0:
            r = tw.sqrt(u, cur)
            if r is None:
                u = (tw.zero(cur), tw.sqrt(tw.mul(u, tw.inv(tw.deltas[cur], cur), cur), cur))
                cur += 1
            else:
                u = r
            if cur < levels[i]:
                u = tw.embed(u, cur, levels[i])
                cur = levels[i]
        b = tw.add(u, tw.inv(u, cur), cur)
        out.append((cur, u, b))
    return out
