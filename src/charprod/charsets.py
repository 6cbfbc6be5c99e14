"""Set families cut out by quadratic character conditions, and their oracle.

Four kinds of family over F_q (signs are +1/-1, written +/- in text):

  S1  S_k^e          = {a in F_q^* : chi(a+k) = e}
  S   S_{k,l}^{e1,e2} = {a in F_q^* : chi(a+k) = e1, chi(a+l) = e2},  k != l
  A   A_{k,l}^{e1,e2} = same conditions but a ranges over all of F_q
  T   T_{j,l}^{e1,e2} = {a in F_q^* : chi(j-a) = e1, chi(l+a) = e2},  j+l != 0

chi is the quadratic character; a chi value of 0 never matches a sign.
``SetFamily.label`` writes a family as 'KIND params signs', as above with
the parameters in ``FieldCtx.elem_str`` form ('T 1 3 --', 'S1 0 +'), and
``parse_family`` reads that text back into the same family.
``brute_product`` multiplies the members found by a full scan of the
field.  It is the oracle every closed formula in this package is tested
against, so it deliberately takes no shortcuts: every member is
multiplied in.  Only the order is free, as a product does not depend
on it.  ``_conditions`` decodes a family into
its conditions chi(a + s) = e once, for both scans.  Every scan reads
chi from ``FieldCtx.half_unit_squares``: the squares of one unit of each
pair +-x, by running sums along lines of the field with one ``mul_poly``
per line, so it shares no chi arithmetic with ``FieldCtx.legendre``
(Euler's criterion, tabulated with the tables, which the closed side
uses).  With tables, ``brute_product`` reads one class of the kept
``FieldTables.tally``, every a classed by two shifted characters
(``FieldTables.shifted``, built from those squares), each class's product
a sum of discrete logs over the oracle's own walk of the units, so the
four sign pairs of one pair of shifts make one scan; at the difference
s2 - s1 that a caller named (``FieldTables.name_difference``), every pair
reads that difference's correlation vectors instead.  Without tables,
and in ``enumerate_family`` on every field, the scan reads
``FieldCtx.square_bytes``, the squares scattered into q bytes, built once
per context, which the tables' grid reads too.  Each condition
chi(a + s) = e is the table of its sign translated by s
(``FieldCtx.translate_bytes``), and the conditions meet as ints under
``&``: no field operation runs per element, and ``ctx.prod`` multiplies
the marked positions without listing them, for n > 1 by Kronecker
substitution.  The table takes q bytes, so fields above ``SCAN_LIMIT`` =
2^26 elements are refused.  The closed cardinality ``card_closed``
(never enumerates) and the ``cardinality`` suite of ``sweeps``, on
arrays of characters, share one formula per kind: ``_single_card`` (S1)
and ``_pair_card``.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .ffield import FieldCtx


class SignPair(NamedTuple):
    e1: int
    e2: int


SIGN_PAIRS = (SignPair(1, 1), SignPair(1, -1), SignPair(-1, 1), SignPair(-1, -1))

_SIGN_CHR = {1: "+", -1: "-"}
_SIGN_VAL = {"+": 1, "-": -1}


def sign_str(signs) -> str:
    try:
        return "".join(_SIGN_CHR[s] for s in signs)
    except TypeError:
        return _SIGN_CHR[signs]


class SetFamily(NamedTuple):
    """Symbolic description of one A/S/S1/T family (a NamedTuple)."""

    kind: str  # "A", "S", "S1", "T"
    params: tuple[int, ...]
    signs: tuple  # SignPair, or a single sign for S1

    def validate(self, ctx: FieldCtx) -> None:
        if self.kind not in ("A", "S", "S1", "T"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "S1":
            if len(self.params) != 1 or self.signs not in (1, -1):
                raise ValueError("S1 takes one parameter and one sign")
            return
        if len(self.params) != 2:
            raise ValueError(f"{self.kind} takes two parameters")
        e1, e2 = self.signs
        if e1 not in (1, -1) or e2 not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        x, y = self.params
        if self.kind in ("A", "S") and x == y:
            raise ValueError(f"{self.kind} family requires k != l")
        if self.kind == "T" and ctx.add(x, y) == 0:
            raise ValueError("T family requires j + l != 0")

    def label(self, ctx: FieldCtx) -> str:
        ps = " ".join(ctx.elem_str(x) for x in self.params)
        return f"{self.kind} {ps} {sign_str(self.signs)}"


def a_family(k: int, l: int, signs) -> SetFamily:
    return SetFamily("A", (k, l), SignPair(*signs))


def s_family(k: int, l: int, signs) -> SetFamily:
    return SetFamily("S", (k, l), SignPair(*signs))


def s1_family(k: int, sign: int) -> SetFamily:
    return SetFamily("S1", (k,), sign)


def t_family(j: int, l: int, signs) -> SetFamily:
    return SetFamily("T", (j, l), SignPair(*signs))


def parse_family(ctx: FieldCtx, text: str) -> SetFamily:
    """The family whose text ``SetFamily.label`` writes, 'KIND params signs' as in
    'T 1 3 --' or 'S1 0 +', KIND in any case; a ValueError names the bad token."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty family spec")
    kind = tokens[0].upper()
    if kind not in ("A", "S", "S1", "T"):
        raise ValueError(f"token 1 ({tokens[0]!r}): unknown family kind")
    want = 3 if kind == "S1" else 4
    if len(tokens) != want:
        raise ValueError(f"{kind} spec needs {want} tokens, got {len(tokens)}")
    params = []
    for i, tok in enumerate(tokens[1:-1], start=2):
        try:
            params.append(ctx.parse_elem(tok))
        except ValueError as exc:
            raise ValueError(f"token {i} ({tok!r}): {exc}") from None
    tok = tokens[-1]
    bad = [ch for ch in tok if ch not in _SIGN_VAL]
    if bad:
        raise ValueError(f"token {want} ({tok!r}): bad sign character {bad[0]!r}")
    if len(tok) > 2:
        raise ValueError(f"token {want} ({tok!r}): expected one or two signs, got {tok!r}")
    if len(tok) != want - 2:  # S1 takes one sign, the others two
        raise ValueError(f"token {want}: " + ("S1 takes a single sign" if kind == "S1"
                                              else f"{kind} takes two signs"))
    signs = [_SIGN_VAL[ch] for ch in tok]
    fam = SetFamily(kind, tuple(params), signs[0] if kind == "S1" else SignPair(*signs))
    fam.validate(ctx)
    return fam


class ProductReport(NamedTuple):
    """An oracle product and the number of members it multiplied."""

    value: int
    cardinality: int


# largest q the oracle scans: either scan first builds tables of q entries
SCAN_LIMIT = 1 << 26


def check_scan_bound(q: int) -> None:
    """ValueError when q is above SCAN_LIMIT, before any q-sized table exists."""
    if q > SCAN_LIMIT:
        raise ValueError(f"q={q} is above the scan bound {SCAN_LIMIT}: a full "
                         f"scan first builds tables of q entries")


# swaps the bytes 0 and 1 (bytes.translate)
_NOT = bytes.maketrans(b"\0\1", b"\1\0")


def _conditions(ctx: FieldCtx, fam: SetFamily) -> list[tuple[int, int]]:
    """The pairs (s, e) whose conditions chi(a + s) = e all hold on fam's members.

    Members of S, S1 and T also need a != 0, which no pair states.
    """
    if fam.kind == "S1":
        (k,), e = fam.params, fam.signs
        return [(k, e)]
    (x, l), (e1, e2) = fam.params, fam.signs
    if fam.kind == "T":
        # chi(j - a) = chi(-1) * chi(a - j)
        return [(ctx.neg(x), ctx.eps * e1), (l, e2)]
    return [(x, e1), (l, e2)]


def _byte_mask(ctx: FieldCtx, fam: SetFamily) -> bytes:
    """q bytes over all a, 1 exactly at the members of fam; no numpy.

    Byte x of ``table[e]`` is 1 exactly where chi(x) = e: the kept
    ``ctx.square_bytes()`` and, built once, its complement less byte 0.
    Those bytes come from squaring one unit of each pair +-x
    (``ctx.half_unit_squares``), never from ``legendre`` or ``pow``: the
    oracle's character is the definition of a square, not Euler's
    criterion.  The scan bound is checked first, so no q-byte table exists
    above ``SCAN_LIMIT``.  Each condition chi(a + s) = e is its sign's
    table translated by s, as a whole byte vector, and the conditions are
    combined as ints with ``&``.
    """
    check_scan_bound(ctx.q)
    sq = ctx.square_bytes()
    table = {1: sq, -1: b"\0" + sq[1:].translate(_NOT)}  # chi(0) = 0 matches no sign
    bits = -1 if fam.kind == "A" else ~0xFF  # a = 0, byte 0, is a member of A only
    for s, e in _conditions(ctx, fam):
        bits &= int.from_bytes(ctx.translate_bytes(table[e], s), "little")
    return bits.to_bytes(ctx.q, "little")


def enumerate_family(ctx: FieldCtx, fam: SetFamily) -> list[int]:
    """Exact member list by scanning the whole field, in ascending code order.

    Lists the positions of ``_byte_mask``, built from ``square_bytes`` by
    whole-vector byte operations, on every context, with or without
    tables; it raises ValueError above ``SCAN_LIMIT``.  It decides every
    element and never reads ``FieldTables`` or ``legendre``; its bytes
    are the ones the tables' grid is made from.
    """
    fam.validate(ctx)
    return list(itertools.compress(range(ctx.q), _byte_mask(ctx, fam)))


def brute_product(ctx: FieldCtx, fam: SetFamily) -> ProductReport:
    """Oracle product over the members of fam (empty product is 1).

    The product does not depend on the order of the members.  With tables
    the conditions chi(a + s1) = e1, chi(a + s2) = e2 (S1's one twice) pick
    class 3 e1 + e2 + 4 of the kept ``FieldTables.tally`` of (s1, s2): its
    size, and its product, gen to its members' log sum, never ``exp`` or
    ``log``; an A family also holds 0 when 0's class is that one.  Without
    tables the members are the positions of ``_byte_mask`` as they come, so
    no member list is built, ``bytes.count`` gives the cardinality, and
    ``ctx.prod`` multiplies them into one running product, chunk by chunk,
    with no field call per member.
    """
    fam.validate(ctx)
    if ctx._tables is None:
        mask = _byte_mask(ctx, fam)
        return ProductReport(value=ctx.prod(itertools.compress(range(ctx.q), mask)),
                             cardinality=mask.count(1))
    conds = _conditions(ctx, fam)
    (s1, e1), (s2, e2) = conds[0], conds[-1]  # S1's one condition twice
    counts, products, zero = ctx.tables().tally(s1, s2)
    c = 3 * e1 + e2 + 4
    with_zero = fam.kind == "A" and zero == c  # a = 0 is a member
    return ProductReport(value=0 if with_zero else products[c],
                         cardinality=counts[c] + with_zero)


def _pair_card(ctx: FieldCtx, kind: str, signs, nu, ck, cl):
    """|A_{k,l}|, |S_{k,l}| or |T_{k,l}| from three quadratic characters.

    nu is chi(l - k) for A and S and chi(k + l) for T; ck and cl are chi(k)
    and chi(l).  The body is arithmetic and ``==`` only, so the same code
    serves Python ints and broadcastable numpy arrays.
    """
    e1, e2 = signs
    # T_{j,l}^{e1,e2} is A_{-j,l}^{eps e1,e2} without 0; nu normalizes to A_{0,1}
    s1 = nu * (ctx.eps * e1 if kind == "T" else e1)
    s2 = nu * e2
    # |A_{0,1}^{s1,s2}| in terms of m and eps
    card = ctx.m - (s1 == 1) * (s2 == 1) + (s1 == -1) * ((ctx.eps - 1) // 2)
    if kind == "A":
        return card
    return card - (ck == e1) * (cl == e2)  # 0 is a member of the A family


def _single_card(ctx: FieldCtx, e: int, ck):
    """|S_k^e| = (q - 1)/2 - [chi(k) = e] for ck = chi(k), an int or an array."""
    return (ctx.q - 1) // 2 - (ck == e)


def card_closed(ctx: FieldCtx, fam: SetFamily) -> int:
    """Closed-form cardinality; never enumerates."""
    fam.validate(ctx)
    if fam.kind == "S1":
        return _single_card(ctx, fam.signs, ctx.legendre(fam.params[0]))
    k, l = fam.params
    nu = ctx.legendre(ctx.add(l, k) if fam.kind == "T" else ctx.sub(l, k))
    return _pair_card(ctx, fam.kind, fam.signs, nu, ctx.legendre(k), ctx.legendre(l))


def vanishing_poly(ctx: FieldCtx, e1: int, e2: int) -> list[int]:
    """Monic polynomial whose root set is A_{-2,2}^{e1,e2}."""
    import numpy as np

    two = ctx.from_int(2)
    roots = enumerate_family(ctx, a_family(ctx.neg(two), two, (e1, e2)))
    coeffs = np.array([ctx.one], dtype=np.int64)
    for b in roots:  # times (x - b)
        nxt = np.concatenate(([0], coeffs))
        nxt[:-1] = ctx.add(nxt[:-1], ctx.mul_poly(coeffs, ctx.neg(b)))
        coeffs = nxt
    return coeffs.tolist()


def report_row(ctx: FieldCtx, fam: SetFamily, rep: ProductReport) -> dict:
    """JSON-ready report row for one family product."""
    return {
        "q": ctx.q,
        "family": fam.kind,
        "params": [ctx.elem_str(x) for x in fam.params],
        "signs": sign_str(fam.signs),
        "cardinality": rep.cardinality,
        "value": ctx.elem_str(rep.value),
    }
