"""Bijection between unit orbits {v, 1/v, -v, -1/v} and elements of F_q.

The orbits partition the union of the 2(q-1)-st and 2(q+1)-st roots of
unity in F_{q^2}.  ``all_orbits`` walks the union in key order: the first
member met of an orbit is its least, its representative, and the orbit is
built once from it; the seen members must be exactly the union.  The orbit
of v maps to tau = (v - 1/v)^2 / 4, tau back to sqrt(tau+1) + sqrt(tau).
The order of v encodes the square classes of tau and tau+1: a second,
independent closed form for |A_{0,1}| (orbit counting, not rescaling).
No power of v is computed: v^q = conj(v) (Frobenius), so v^(q+1) is the
norm N(v) and v^(q-1) = conj(v)/v is +1 iff hi = 0 and -1 iff lo = 0.
"""

from __future__ import annotations

from typing import Optional

from .charsets import SignPair
from .ffield import Ext2Elem, FieldCtx, IdentityFailure


def orbit_members(ctx: FieldCtx, v: Ext2Elem) -> tuple[Ext2Elem, ...]:
    vi = ctx.e2_inv(v)
    return tuple({v, vi, ctx.e2_neg(v), ctx.e2_neg(vi)})


def unit_power_is(ctx: FieldCtx, v: Ext2Elem, e: int, b: int) -> bool:
    """v^e == b for a unit v of F_{q^2}, e = q +- 1 and b = +-1, in O(1)."""
    if e == ctx.q + 1:
        return ctx.e2_norm(v) == ctx.from_int(b)
    if e == ctx.q - 1:
        return (v.hi if b == 1 else v.lo) == 0
    raise ValueError(f"exponent {e} is neither q-1 nor q+1")


def in_unit_groups(ctx: FieldCtx, v: Ext2Elem) -> bool:
    """v lies in mu_{2(q-1)} or mu_{2(q+1)}: v^(q-1) or v^(q+1) is +-1."""
    return v != (0, 0) and (v.lo == 0 or v.hi == 0
                            or ctx.e2_norm(v) in (ctx.one, ctx.minus_one))


def tau_of_orbit(ctx: FieldCtx, v: Ext2Elem) -> int:
    """tau = (v - 1/v)^2 / 4, divided in F_q; v must lie in mu_{2q-2} or mu_{2q+2}."""
    if not in_unit_groups(ctx, v):
        raise ValueError("v is not a 2(q-1)-st or 2(q+1)-st root of unity")
    d = ctx.e2_sub(v, ctx.e2_inv(v))
    return ctx.div(ctx.e2_project(ctx.e2_mul(d, d)), ctx.from_int(4))


def orbit_of_tau(ctx: FieldCtx, tau: int) -> Ext2Elem:
    """The orbit of sqrt(tau+1) + sqrt(tau), roots taken in F_{q^2}."""
    v = ctx.e2_add(ctx.e2_sqrt(ctx.add(tau, ctx.one)), ctx.e2_sqrt(tau))
    rep = min(orbit_members(ctx, v), key=ctx.e2_key)
    if tau_of_orbit(ctx, rep) != tau:
        raise IdentityFailure(f"orbit round-trip failed at q={ctx.q}")
    return rep


def classify_tau(ctx: FieldCtx, tau: int, v: Ext2Elem) -> Optional[SignPair]:
    """Square classes (chi(tau), chi(tau+1)) of tau, checked on v of its orbit.

    tau must be tau_of_orbit(ctx, v), which the caller already holds.
    Returns None for the degenerate tau in {0, -1} (fourth roots of unity);
    otherwise checks the order relation v^(q - ab) = b.
    """
    if tau == 0 or tau == ctx.minus_one:
        return None
    a = ctx.legendre(tau)
    b = ctx.legendre(ctx.add(tau, ctx.one))
    if not unit_power_is(ctx, v, ctx.q - a * b, b):
        raise IdentityFailure(f"square classes disagree with the unit order at q={ctx.q}")
    return SignPair(a, b)


def orbit_count_card(ctx: FieldCtx, e1: int, e2: int) -> int:
    """|A_{0,1}^{e1,e2}| by counting orbits of {v : v^(q+a) = b}.

    With a = -e1*e2 and b = e2 there are q + a such v; dropping the
    fourth roots of unity among them leaves full orbits of size 4.
    This is independent of the m/eps cardinality formulas.
    """
    if e1 not in (1, -1) or e2 not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    q = ctx.q
    a = -e1 * e2
    b = e2
    mu4 = 0
    if b == 1:
        mu4 += 2  # +1 and -1 always satisfy v^(q+a) = 1
    if (-1) ** ((q + a) // 2) == b:
        mu4 += 2  # the two primitive fourth roots
    return (q + a - mu4) // 4


def roots_of_unity_union(ctx: FieldCtx) -> list[Ext2Elem]:
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


def all_orbits(ctx: FieldCtx) -> list[Ext2Elem]:
    """Orbit representatives: the first member of each orbit in the key-ordered union."""
    union, reps, seen = roots_of_unity_union(ctx), [], set()
    for v in union:
        if v not in seen:
            reps.append(v)
            seen.update(orbit_members(ctx, v))
    if seen != set(union):
        raise IdentityFailure(f"an orbit leaves the groups of roots of unity at q={ctx.q}")
    return reps
