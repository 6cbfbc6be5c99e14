"""Shared helpers for the test suite."""

import functools

from charprod.ffield import mk_field

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
