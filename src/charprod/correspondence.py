"""Bijection between unit orbits {v, 1/v, -v, -1/v} and elements of F_q.

The orbits partition the union of the 2(q-1)-st and 2(q+1)-st roots of
unity in F_{q^2}.  The orbit of v maps to tau = (v - 1/v)^2 / 4, tau back
to sqrt(tau+1) + sqrt(tau).  The order of v encodes the square classes of
tau and tau+1: a second, independent closed form for |A_{0,1}| (orbit
counting, not rescaling).

Each function takes a whole set of elements at once and makes no field
call per element: an element set of F_{q^2} is an ``Ext2Elem`` of two
int64 code arrays (lo, hi), on which the ``FieldCtx.e2_*`` operations
and ``ctx.mul`` run as on ints, and elements are ordered by
``ctx.e2_key``.  No power of v is computed: v^q = conj(v)
(Frobenius), so v^(q+1) is the norm N(v) = lo^2 - delta*hi^2, v^(q-1) =
conj(v)/v is +1 iff hi = 0 and -1 iff lo = 0, and a v of norm +-1
inverts by conjugation, 1/v = N(v)*conj(v).  Only the rest of the union,
F_q^* u theta*F_q^*, needs inverses in F_q.  Those inverses, the square
roots and the quadratic characters are ``FieldCtx.inv``,
``sqrt_canonical``, ``e2_sqrt`` and ``legendre`` on arrays: this module
keeps no arithmetic of F_q and reads no field table.  ``all_orbits``
keeps the least member of each orbit and checks that the members stay in
the union; ``tau_of_orbit``, ``orbit_of_tau`` and ``classify_tau`` map,
invert and classify all the orbits in one pass each.
"""

from __future__ import annotations

from .ffield import Ext2Elem, FieldCtx, IdentityFailure


def _inverse(ctx: FieldCtx, v: Ext2Elem) -> Ext2Elem:
    """1/v for each v of mu_{2(q-1)} u mu_{2(q+1)}; raises ValueError for any other v.

    v lies there iff N(v) = v^(q+1) is +-1, or exactly one of lo, hi is 0
    (v^(q-1) = +-1).  1/v = N(v)*conj(v) where N(v) = +-1.  The rest lies
    in F_q^* u theta*F_q^*, where 1/x = (1/x)*1 and 1/(x*theta) =
    theta/(delta*x).  ``FieldCtx.inv`` raises IdentityFailure when x*(1/x)
    != 1 by ``mul_poly``: a wrong but self-inverse table keeps every orbit
    in the union, so the partition check alone would not see it.
    """
    import numpy as np

    nrm = ctx.e2_norm(v)
    line = (nrm != ctx.one) & (nrm != ctx.minus_one)
    if np.any(line & ((v.lo == 0) == (v.hi == 0))):
        raise ValueError("v is not a 2(q-1)-st or 2(q+1)-st root of unity")
    lo, hi = ctx.mul(v.lo, nrm), ctx.mul(ctx.neg(v.hi), nrm)
    base = v.hi[line] == 0
    xi = ctx.inv(np.where(base, v.lo[line], ctx.mul(v.hi[line], ctx.delta)))
    lo[line], hi[line] = np.where(base, xi, 0), np.where(base, 0, xi)
    return Ext2Elem(lo, hi)


def _members(ctx: FieldCtx, v: Ext2Elem) -> tuple[Ext2Elem, ...]:
    """v, 1/v, -v and -1/v, each for every v."""
    w = _inverse(ctx, v)
    return v, w, ctx.e2_neg(v), ctx.e2_neg(w)


def unit_power_is(ctx: FieldCtx, v: Ext2Elem, e: int, b):
    """v^e == b for units v of F_{q^2}, e = q +- 1 and b = +-1, elementwise."""
    import numpy as np

    if e == ctx.q + 1:
        return ctx.e2_norm(v) == ctx.from_int(b)
    if e == ctx.q - 1:
        return np.where(np.equal(b, 1), v.hi, v.lo) == 0
    raise ValueError(f"exponent {e} is neither q-1 nor q+1")


def tau_of_orbit(ctx: FieldCtx, v: Ext2Elem):
    """tau = (v - 1/v)^2 / 4 of each v, divided in F_q.

    Raises ValueError unless every v lies in mu_{2q-2} or mu_{2q+2} and
    every square lies in F_q.
    """
    import numpy as np

    d = ctx.e2_sub(v, _inverse(ctx, v))
    lo, hi = ctx.e2_mul(d, d)
    if np.any(hi):
        i = int(np.argmax(hi != 0))
        raise ValueError(f"{Ext2Elem(int(lo[i]), int(hi[i]))} does not lie in the base field")
    return ctx.mul(lo, ctx.inv(ctx.from_int(4)))


def orbit_of_tau(ctx: FieldCtx, tau) -> Ext2Elem:
    """The least member of the orbit of sqrt(tau+1) + sqrt(tau) for each tau
    of an int64 array, roots taken in F_{q^2}: two ``e2_sqrt`` calls, which
    read the one root table the context makes at its first array call.

    Raises IdentityFailure unless every orbit maps back to its tau.
    """
    import numpy as np

    v = ctx.e2_add(ctx.e2_sqrt(ctx.add(tau, ctx.one)), ctx.e2_sqrt(tau))
    members = _members(ctx, v)
    least = np.argmin([ctx.e2_key(m) for m in members], axis=0)
    rep = Ext2Elem(*(np.choose(least, part) for part in zip(*members)))
    if np.any(tau_of_orbit(ctx, rep) != tau):
        raise IdentityFailure(f"orbit round-trip failed at q={ctx.q}")
    return rep


def classify_tau(ctx: FieldCtx, tau, v: Ext2Elem):
    """Square classes chi(tau), chi(tau+1) of each tau, checked on v of its orbit.

    tau must be tau_of_orbit(ctx, v), which the caller already holds.
    Returns (a, b, agrees): int arrays of the two classes, 0 at the
    degenerate tau in {0, -1} (fourth roots of unity), and a bool array,
    True where v^(q - ab) = b, the order relation, holds (and at the
    degenerate tau).
    """
    import numpy as np

    live = (tau != 0) & (tau != ctx.minus_one)
    a = np.where(live, ctx.legendre(tau), 0)
    b = np.where(live, ctx.legendre(ctx.add(tau, ctx.one)), 0)
    order = np.where(a * b == 1, unit_power_is(ctx, v, ctx.q - 1, b),
                     unit_power_is(ctx, v, ctx.q + 1, b))
    return a, b, ~live | order


def orbit_count_card(ctx: FieldCtx, e1: int, e2: int) -> int:
    """|A_{0,1}^{e1,e2}| by counting orbits of {v : v^(q+a) = b}.

    With a = -e1*e2 and b = e2 there are q + a such v; dropping the
    fourth roots of unity among them leaves full orbits of size 4, so 4
    must divide what is left; IdentityFailure otherwise.  This is
    independent of the m/eps cardinality formulas.
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
    if (q + a - mu4) % 4:
        raise IdentityFailure(f"{q + a - mu4} roots outside mu_4 make no whole orbits "
                              f"of 4 at q={q}")
    return (q + a - mu4) // 4


def roots_of_unity_union(ctx: FieldCtx) -> Ext2Elem:
    """mu_{2(q-1)} = F_q^* u theta*F_q^* united with mu_{2(q+1)} = {v : N(v) = +-1},
    in key order, each element once; the v of norm +-1 are the lo + h*theta
    with lo a root of +-1 + delta*h^2, one array root per sign."""
    import numpy as np

    x = np.arange(ctx.q, dtype=np.int64)
    units, zero = x[1:], np.zeros(ctx.q - 1, dtype=np.int64)
    dh = ctx.mul(ctx.mul(x, x), ctx.delta)  # N(lo + hi*theta) = lo^2 - dh
    lo, hi = [units, zero], [zero, units]
    for r in (ctx.sqrt_canonical(ctx.add(sign, dh)) for sign in (ctx.one, ctx.minus_one)):
        has = r >= 0
        lo += [r[has], ctx.neg(r[has])]
        hi += [x[has], x[has]]
    v = Ext2Elem(np.concatenate(lo), np.concatenate(hi))
    _, first = np.unique(ctx.e2_key(v), return_index=True)
    return Ext2Elem(v.lo[first], v.hi[first])


def all_orbits(ctx: FieldCtx) -> Ext2Elem:
    """Orbit representatives in key order: the least member of each orbit of the union.

    Raises IdentityFailure unless every member of every orbit lies in the union.
    """
    import numpy as np

    union = roots_of_unity_union(ctx)
    keys = ctx.e2_key(union)
    at = np.arange(len(keys))
    least = at  # position in the union of the least member met so far
    for member in _members(ctx, union)[1:]:
        member_keys = ctx.e2_key(member)
        found = np.searchsorted(keys, member_keys)
        if not np.array_equal(keys[np.minimum(found, len(keys) - 1)], member_keys):
            raise IdentityFailure(f"an orbit leaves the groups of roots of unity at q={ctx.q}")
        least = np.minimum(least, found)
    reps = least == at
    return Ext2Elem(union.lo[reps], union.hi[reps])
