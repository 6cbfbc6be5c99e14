"""Dickson polynomials over F_q and their values at a point.

Polynomials are lists of field elements (ints), little-endian, with no
trailing zeros; the zero polynomial is the empty list.  Both kinds obey
the three-term recursion f_{k+2} = x*f_{k+1} - f_k, with seeds (2, x)
for the first kind and (1, x) for the second; it runs on int64 arrays of
coefficients, one ``ctx.sub`` per degree.  The defining functional
equations are D_k(u + 1/u) = u^k + u^(-k) and
E_{k-1}(u + 1/u) = (u^k - u^(-k)) / (u - 1/u).
``dickson_values`` evaluates D_k at a point of any commutative ring (F_q
or F_{q^2}, through the ring operations it is given) with a Lucas-sequence
doubling ladder (Joye and Quisquater, 1996) instead of the polynomial.
"""

from __future__ import annotations

from .ffield import FieldCtx


def _dickson(ctx: FieldCtx, k: int, seed0: int) -> list[int]:
    if k == 0:
        return [seed0]
    import numpy as np

    prev = np.array([seed0], dtype=np.int64)
    cur = np.array([0, ctx.one], dtype=np.int64)
    for _ in range(k - 1):
        nxt = np.concatenate(([0], cur))  # multiply by x
        nxt[:len(prev)] = ctx.sub(nxt[:len(prev)], prev)
        prev, cur = cur, nxt
    return cur.tolist()


def dickson_first(ctx: FieldCtx, k: int) -> list[int]:
    """D_k as a coefficient vector over F_q (D_0 = 2, D_1 = x)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _dickson(ctx, k, ctx.from_int(2))


def dickson_second(ctx: FieldCtx, k: int) -> list[int]:
    """E_k as a coefficient vector over F_q (E_0 = 1, E_1 = x)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _dickson(ctx, k, ctx.one)


def dickson_values(k: int, x, sub, mul, two):
    """(D_k(x), D_{k+1}(x)) in O(log k) multiplications.

    The ring operations are arguments, so F_q and F_{q^2} share the ladder;
    ``two`` is the ring's 2.  Walks the bits of k from the top, keeping
    (D_i, D_{i+1}) and using D_{2i} = D_i^2 - 2 and D_{2i+1} = D_i*D_{i+1}
    - x, both instances of D_a*D_b = D_{a+b} + D_{a-b}.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    lo, hi = two, x  # (D_0, D_1)
    for bit in bin(k)[2:]:
        mid = sub(mul(lo, hi), x)  # D_{2i+1}
        if bit == "1":
            lo, hi = mid, sub(mul(hi, hi), two)
        else:
            lo, hi = sub(mul(lo, lo), two), mid
    return lo, hi


def poly_str(ctx: FieldCtx, f: list[int]) -> str:
    """Space-separated element texts, low degree first."""
    return " ".join(ctx.elem_str(c) for c in f)
