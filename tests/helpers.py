"""Shared helpers for the test suite."""

import functools

from charprod.ffield import Ext2Elem, mk_field

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


# ---------------------------------------------------------------------------
# F_{q^2} reference for the det roots, which the library computes in F_q
# ---------------------------------------------------------------------------

def e2_div(ctx, x, y):
    return ctx.e2_mul(x, ctx.e2_inv(y))


def ext2_solve_unit(ctx, r):
    """The unit u in F_{q^2} with u + 1/u = r, canonical branch.

    The two solutions are u and 1/u; the one with canonically smaller
    representation is returned.  Raises IdentityFailure (from e2_sqrt)
    when neither d = r^2 - 4 nor d/delta is a square, which only an
    inconsistent quadratic character can cause.
    """
    d = ctx.sub(ctx.mul(r, r), ctx.from_int(4))
    half = ctx.inv(ctx.from_int(2))
    root = ctx.e2_sqrt(d)
    if root.hi == 0:
        u1 = ctx.mul(ctx.add(r, root.lo), half)
        u2 = ctx.mul(ctx.sub(r, root.lo), half)
        u = u1 if ctx.elem_key(u1) <= ctx.elem_key(u2) else u2
        return Ext2Elem(u, 0)
    hi = ctx.mul(root.hi, half)
    hin = ctx.neg(hi)
    hi = hi if ctx.elem_key(hi) <= ctx.elem_key(hin) else hin
    return Ext2Elem(ctx.mul(r, half), hi)


def det_root_ext2(ctx, case, u):
    """a1 = (u^m - u^-m)/(u - 1/u), a2 = <u^m> or a3 = <(-u)^m>, in F_{q^2}.

    The value must lie in F_q; it is returned as a base-field element.
    """
    um = ctx.e2_pow(u, ctx.m)
    umi = ctx.e2_inv(um)
    if case == "a1":
        return ctx.e2_project(e2_div(ctx, ctx.e2_sub(um, umi),
                                     ctx.e2_sub(u, ctx.e2_inv(u))))
    bracket = ctx.e2_project(ctx.e2_add(um, umi))
    if case == "a3" and ctx.m % 2:
        return ctx.neg(bracket)
    return bracket
