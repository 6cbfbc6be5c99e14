"""Arithmetic in finite fields F_q = F_{p^n} for odd prime powers q.

Field elements are plain ints in range(q): the element with coefficient
vector (c0, c1, ..., c_{n-1}), little-endian in the root of the modulus,
is encoded as c0 + c1*p + ... + c_{n-1}*p^(n-1).  For n == 1 this is the
usual residue.  ``add``, ``sub`` and ``mul_poly`` read the digits off the
code, ``a // p**i % p``, with no cache of decoded tuples, so one body
serves Python ints and int64 numpy arrays of codes alike; no other module
computes digits.  Three helpers serve the table-free scan without numpy
and without a field call per element: ``translate_bytes`` moves a q-byte
vector by a field translation, digit by digit; ``half_unit_squares``
lists the squares of one unit of each pair +-x by running sums along
lines {y + c : c in F_p}, one ``mul_poly`` per line, which
``square_bytes`` scatters once per context into q bytes; and ``prod``
multiplies an iterable of codes into one running product, a chunk per
``math.prod``, reduced mod q for n = 1 and, for n > 1, by Kronecker
substitution, each code's digits packed into 64-bit slots of one integer.
Every tie-break (the square root, the nonsquare delta, the generator,
member lists) takes the smaller code: the *canonical order* is the order
of the codes, the one in which every suite iterates, for every n.

``mul``, ``inv``, ``div``, ``pow`` (a fixed exponent), ``legendre`` and
``sqrt_canonical`` serve int64 code arrays too, with the scalar result at
each element (-1 where ``sqrt_canonical`` gives None).  Scalar calls keep
their fast paths; arrays leave them on a branch scalars never take.

The quadratic extension F_{q^2} is represented as pairs lo + hi*theta
with theta^2 = delta, delta the nonsquare of F_q with the smallest code.
``e2_add``, ``e2_sub``, ``e2_neg``, ``e2_mul``, ``e2_norm``, ``e2_key`` and
``e2_sqrt`` are built from the operations above, so they too serve ints
and int64 arrays; only ``correspondence`` and ``reciprocity`` use them.

Every operation works without precomputation.  ``FieldCtx.tables()``
adds the O(q) lookup tables that the ``FieldTables`` docstring describes;
``mul``, ``inv`` and ``legendre`` say which of their calls read them, and
``add``, ``sub`` and ``neg`` stay digit arithmetic either way.  No other
library module reads ``exp``, ``log`` or ``chi``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from typing import Iterator, NamedTuple

MACHINE_BOUND = 1 << 31

# codes per chunk of FieldCtx.prod for n = 1: enough to make the per-chunk
# Python step rare, few enough that the running product times a chunk
# (below 2^(65*31)) stays cheap to grow and to reduce mod q
PROD_CHUNK = 64


class FieldError(ValueError):
    """Base class for field construction errors."""


class NotPrimeError(FieldError):
    """The characteristic is composite."""


class EvenCharacteristicError(FieldError):
    """The characteristic is 2 (only odd fields are supported)."""


class FieldTooLargeError(FieldError):
    """q exceeds the machine bound."""


class IdentityFailure(AssertionError):
    """A checked mathematical identity did not hold.

    Raised explicitly, so the check survives ``python -O``; it subclasses
    AssertionError so callers that catch failed checks catch it too.
    """


# what a check raises on a broken identity or on arithmetic that is no field
CHECK_FAILURES = (IdentityFailure, ValueError, ZeroDivisionError)


def factorize(m: int) -> list[tuple[int, int]]:
    """Factor m by trial division; returns [(prime, exponent), ...].

    Integers below 2 have no prime factors and give [].
    """
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def is_prime(m: int) -> bool:
    """Deterministic trial-division primality test."""
    return factorize(m) == [(m, 1)]


# ---------------------------------------------------------------------------
# group algorithms for F_q^*; ``power`` and ``first_of_order`` take the
# multiplication as an argument (``power`` also serves the modulus search)
# ---------------------------------------------------------------------------

def power(x, e: int, mul, one):
    """x^e for e >= 0 by square-and-multiply, the package's only one: run by
    ``FieldCtx.pow``, array ``FieldCtx.inv`` and the modulus search."""
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        x = mul(x, x)
        e >>= 1
    return result


def tonelli_shanks(ctx: "FieldCtx", a: int) -> int:
    """A square root of the nonzero square a of F_q, with delta as nonsquare.

    Raises IdentityFailure when no root turns up, that is when a is a
    nonsquare or ``ctx.delta`` is a square: only an inconsistent quadratic
    character lets a caller pass either.
    """
    one, mul = ctx.one, ctx.mul
    t, s = ctx.q - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    c = ctx.pow(ctx.delta, t)
    r = ctx.pow(a, (t + 1) // 2)
    x = ctx.pow(a, t)
    while x != one:
        i, y = 0, x
        while y != one and i < s:
            y = mul(y, y)
            i += 1
        if i == s:  # no progress: x does not have order below 2^s
            raise IdentityFailure(
                f"no square root of {ctx.elem_str(a)} found in F_{ctx.q}")
        b = ctx.pow(c, 1 << (s - i - 1))
        r = mul(r, b)
        c = mul(b, b)
        x = mul(x, c)
        s = i
    return r


def first_of_order(cands, order: int, pw, one):
    """The first candidate of exact order ``order``; each must have x^order = 1."""
    cofactors = [order // r for r, _ in factorize(order)]
    for g in cands:
        if all(pw(g, c) != one for c in cofactors):
            return g
    raise IdentityFailure(f"no candidate has exact order {order}")


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, little-endian, trimmed)
# ---------------------------------------------------------------------------

def poly_trim(a: list[int]) -> list[int]:
    """Drop trailing zero coefficients in place; the zero polynomial is []."""
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] = (c[i + j] + ai * bj) % p
    return poly_trim(c)


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    # f monic
    a = list(a)
    n = len(f) - 1
    while len(a) > n:
        lead = a.pop()
        if lead:
            for i in range(n):
                a[len(a) - n + i] = (a[len(a) - n + i] - lead * f[i]) % p
    return poly_trim(a)


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        # make b monic before reducing
        inv = pow(b[-1], p - 2, p)
        b = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, b, p)
    return a


def _pow_mod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    return power(_pmod(base, f, p), e, lambda a, b: _pmod(_pmul(a, b, p), f, p), [1])


def _is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's test: f monic of degree n >= 1 is irreducible over F_p iff
    gcd(f, x^(p^i) - x) = 1 for i = 1 .. n // 2, as x^(p^i) - x is the product
    of the monic irreducibles of degree dividing i, and a reducible f has a
    factor of degree at most n/2, so the loop stops there."""
    x = t = [0, 1]
    for _ in range((len(f) - 1) // 2):
        t = _pow_mod(t, p, f, p)  # x^(p^i) mod f
        diff = poly_trim([(a - b) % p for a, b in itertools.zip_longest(t, x, fillvalue=0)])
        if len(_pgcd(f, diff, p)) != 1:
            return False
    return True


def field_order(p: int, n: int) -> int:
    """q = p^n, after the argument checks that come before the modulus search."""
    if p % 2 == 0:
        raise EvenCharacteristicError(f"characteristic must be odd, got p={p}")
    if n < 1:
        raise FieldError(f"extension degree must be >= 1, got n={n}")
    # bound p, then q, before the trial division of p; q stops growing
    # at the bound, so even an absurd n takes at most 20 multiplications
    q, i = p, 1
    while q < MACHINE_BOUND and i < n:
        q, i = q * p, i + 1
    if q >= MACHINE_BOUND:
        shown = q if i == n else f"{p}^{n}"
        raise FieldTooLargeError(f"q={shown} exceeds the machine bound 2^31")
    if not is_prime(p):
        raise NotPrimeError(f"p={p} is not prime")
    return q


def find_modulus(p: int, n: int) -> tuple[int, ...]:
    """The first monic irreducible of degree n over F_p in the order below.

    Candidates are ordered by their coefficient vector (c0, ..., c_{n-1}),
    compared low degree first, which makes the choice reproducible.
    """
    if n == 1:
        return (0, 1)
    for low in itertools.product(range(p), repeat=n):
        if low[0] == 0:
            continue  # x divides the candidate
        f = list(low) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Ext2Elem(NamedTuple):
    """Element lo + hi*theta of F_{q^2}, theta^2 = delta; lo and hi are codes
    of F_q, as ints or as int64 arrays of one shape (a set of elements)."""

    lo: int
    hi: int


class Spectrum(NamedTuple):
    """One side of ``FieldTables.correlate``: a vector's ``np.fft.rfftn`` on the
    digit grid, and the exact sum of its integer entries."""

    values: object
    total: int


class FieldTables:
    """Lookup tables for one field; built once per context.

    One walk of the units, gen^0 .. gen^(q-2) for the generator with the
    smallest code, is built by doubling in about log2 q array ``mul_poly``
    calls, before the tables are attached, so it reads none.  ``chi``, one
    int8 array that ``legendre`` reads for ints and code arrays alike, is
    the parity of the walk's index (the squares are the even powers of
    gen), 0 at 0.  For n > 1, where ``mul`` reads them for ints and ``inv``
    for ints and arrays, ``exp[i]`` is gen^i and ``log`` its inverse on the
    units, list copies of the walk, as scalar ``mul`` reads a list faster;
    ``exp`` holds two periods followed by a run of zeros that ``log[0]``
    points into, so the product of any two elements is
    ``exp[log[a] + log[b]]``.  A prime field keeps None for both.  The
    oracle's ``tally`` reads the walk and its float64 inverse L (0 at 0),
    read-only, instead.  ``shifted(k)``, the oracle's character moved by k, is
    the one read-only int8 grid ``_grid`` of shape (p,)*n, q bytes, rolled
    by the digits of -k: 1 at the squares of ``ctx.square_bytes``, -1 at
    the other units, 0 at 0, never ``chi``.  Every table is O(q): ``tables()``
    peaks near 135 bytes per element at 3^8 and 137 at 3^10 (tracemalloc).

    ``correlate`` is the one FFT of the package: c[t] = sum_x f(x) g(x + t),
    an exact integer vector or IdentityFailure.  ``tally`` keeps, besides
    its last pair, the vectors of the one difference s2 - s1 that its caller
    named (``name_difference``; 41 q bytes).
    """

    __slots__ = ("exp", "log", "chi", "_p", "_n", "_pw", "_grid", "_cycle", "_logs",
                 "_kept", "_diff")

    def __init__(self, ctx: "FieldCtx"):
        import numpy as np

        q, u = ctx.q, ctx.q - 1
        g = gen = ctx.primitive_element()
        cycle = np.ones(1, dtype=np.int64)
        while len(cycle) < u:  # gen^0 .. gen^(2^k - 1), then times g = gen^(2^k)
            cycle = np.concatenate((cycle, ctx.mul_poly(cycle[:u - len(cycle)], g)))
            g = ctx.mul_poly(g, g)
        index = np.full(q, -1, dtype=np.int64)
        index[cycle] = np.arange(u)
        if index[1:].min() < 0:
            raise FieldError(f"{ctx.elem_str(gen)} does not generate F_{q}^*")
        self.chi = (1 - index % 2 * 2).astype(np.int8)  # squares: even powers of gen
        self.chi[0] = 0
        self.exp = self.log = None
        if ctx.n > 1:
            self.exp = cycle.tolist() * 2 + [0] * (2 * q - 1)
            self.log = index.tolist()
            self.log[0] = 2 * u
        self._cycle, self._logs = cycle, index.clip(0).astype(np.float64)  # L(0) = 0
        cycle.flags.writeable = self._logs.flags.writeable = False
        self._p, self._n, self._pw, self._kept = ctx.p, ctx.n, ctx._pw, (None, None)
        self._diff = (None,)
        sq = np.frombuffer(ctx.square_bytes(), dtype=np.int8) * 2 - 1
        sq[0] = 0
        self._grid = sq.reshape((ctx.p,) * ctx.n)  # top digit on axis 0
        self._grid.flags.writeable = False

    def tally(self, s1: int, s2: int) -> tuple[list[int], list[int], int]:
        """(counts, products, zero) of the classes 3 chi(a + s1) + chi(a + s2) + 4.

        The units a fall in classes 0 .. 8 (``shifted``), a = 0 in class 9, and
        ``zero`` is the class 0's characters give.  A product is gen to the
        class's log sum mod u = q - 1.  By Wilson's theorem the unit classes
        hold u elements whose logs add up to u(u - 1)/2, else IdentityFailure.
        The last tally is kept by (s1, s2), so the four sign pairs of one pair
        of shifts make one scan.

        The tally depends only on d = s2 - s1 and s1: with b = a + s1, class e
        is E_e = {b : 3 chi(b) + chi(b + d) + 4 = e} less b = s1, the a = 0,
        and its log sum is sum_{b in E_e} L(b - s1), a correlation of L with
        the indicator of E_e (``correlate``).  A pair scans the q elements,
        two ``np.bincount`` calls exact in float64 below u^2/2 < 2^51, unless
        its d is named (``name_difference``): the first pair at that d builds
        its vectors, one class at a time, L in two 13-bit halves, for it and
        every later pair at d to read; a build that raises IdentityFailure
        keeps it, its traceback dropped, and raises it again at every pair at d.
        Each correlation is below 2^39 and, a priori, exact up to q of about
        7.8 * 10^5 (``correlate``); at every s1 the build's log sums must add
        up to u(u - 1)/2, else IdentityFailure.  The build keeps each class's
        product, gen to its log sum, in one C-contiguous int32 row of the ten
        classes per s1, so a pair at d reads its row as it stands.
        """
        if self._kept[0] == (s1, s2):
            return self._kept[1]
        d = sum((s2 // w - s1 // w) % self._p * w for w in self._pw)  # ctx.sub(s2, s1)
        if self._diff[0] != d:
            self._kept = (s1, s2), self._scan(s1, s2)
            return self._kept[1]
        if len(self._diff) == 1:  # named, not yet built
            try:
                self._diff = d, *self._difference_vectors(d)
            except IdentityFailure as exc:
                self._diff = d, exc
        if len(self._diff) == 2:  # the build failed
            raise self._diff[1].with_traceback(None)
        _, cls, sizes, products = self._diff
        zero = int(cls[s1])
        counts = list(sizes)
        counts[zero] -= 1  # b = s1 is a = 0, class 9
        counts[9] = 1
        self._kept = (s1, s2), (counts, products[s1].tolist(), zero)
        return self._kept[1]

    def name_difference(self, d: int) -> None:
        """Make the code d the one difference s2 - s1 that ``tally`` builds."""
        if self._diff[0] != d:
            self._diff = (d,)

    def _scan(self, s1: int, s2: int) -> tuple[list[int], list[int], int]:
        """``tally`` of (s1, s2) by one pass over the q elements."""
        import numpy as np

        cls = self.shifted(s1) * 3 + self.shifted(s2) + 4
        zero, cls[0] = int(cls[0]), 9
        counts = np.bincount(cls, minlength=10)
        sums = np.bincount(cls, weights=self._logs, minlength=10)
        u = len(self._cycle)
        if counts[:9].sum() != u or sums[:9].sum() != u * (u - 1) // 2:
            raise IdentityFailure(f"the oracle's log sums miss Wilson's at q={u + 1}")
        return counts.tolist(), self._cycle[(sums % u).astype(np.int64)].tolist(), zero

    def _difference_vectors(self, d: int):
        """(class of every b, class sizes, class products) of ``tally`` at d.

        The products are int32, one C-contiguous row per s1: entry e of row s1
        is gen to sum_{b in E_e} L(b - s1) mod u, and 1, the empty product,
        for an empty class and for class 9, a = 0 alone.  L's halves are
        below 2^13, so each correlation is below 2^39.  Their spectra are
        dropped with the build; only the class of every b and the products
        are kept.
        """
        import numpy as np

        u, logs = len(self._cycle), self._logs.astype(np.int64)
        log_spectra = [self.spectrum(logs >> 13 * i & 0x1FFF) for i in (0, 1)]
        cls = self.shifted(0) * 3 + self.shifted(d) + 4
        sizes = np.bincount(cls, minlength=10)
        products = np.ones((u + 1, 10), dtype=np.int32)  # codes are below q < 2^31
        wilson = np.zeros(u + 1, dtype=np.int64)
        for e in np.flatnonzero(sizes):
            members = self.spectrum(cls == e)
            lo, hi = (self.correlate(half, members, f"the log sums of class {e} at "
                                     f"difference {d} are no integers")
                      for half in log_spectra)
            log_sums = lo + (hi << 13)
            wilson += log_sums
            products[:, e] = self._cycle[log_sums % u]
        if (wilson != u * (u - 1) // 2).any():
            raise IdentityFailure(f"the oracle's log sums miss Wilson's at q={u + 1}")
        return cls, sizes.tolist(), products

    def spectrum(self, vec) -> Spectrum:
        """The ``Spectrum`` of an integer vector over all a, indexed by a."""
        import numpy as np

        grid = vec.reshape((self._p,) * self._n).astype(np.float64)
        return Spectrum(np.fft.rfftn(grid), int(vec.sum()))

    def correlate(self, f: Spectrum, g: Spectrum, failure: str):
        """c[t] = sum_x f(x) g(x + t) over all t, as an int64 vector indexed by t.

        One ``np.fft.irfftn`` of conj(F) G over (Z/p)^n on the digit grid
        ``reshape((p,)*n)``.  It returns only when every entry is within 1/4
        of an integer and the entries add up to f's sum times g's, else it
        raises IdentityFailure(failure).  A priori (Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2nd ed., ch. 24: each transform
        off by at most log2(q) eta in relative 2-norm, eta about 6.7 * 2^-53)
        every entry is off by at most 3 log2(q) eta |f|_1 |g|_2 before
        rounding.  That is below 1/4 up to q = 2^26 for two indicators (0.032
        there; ``card_tally``) and up to q of about 7.8 * 10^5 for a 13-bit
        vector against an indicator (``tally``; 0.0049 at 65521, where the
        worst residue measured is 1.3e-7).  The theorem is for radix 2, so for
        pocketfft's mixed-radix and Bluestein transforms it is an estimate,
        and beyond it the two tests decide.
        """
        import numpy as np

        grid = (self._p,) * self._n
        h = np.fft.irfftn(f.values.conj() * g.values, s=grid,
                          axes=tuple(range(self._n))).ravel()
        c = np.rint(h).astype(np.int64)
        # the sum mod 2^64: it passes 2^63 only near q = 2^25, for a 13-bit
        # vector against an indicator, and no rounding error moves it by 2^64
        if (np.abs(h - c).max() >= 0.25
                or int(c.view(np.uint64).sum()) != f.total * g.total % (1 << 64)):
            raise IdentityFailure(f"{failure} at q={len(c)}")
        return c

    def shifted(self, k: int):
        """Fresh int8 vector of chi(a + k) over all a, indexed by a."""
        import numpy as np

        digits = [-(k // w) % self._p for w in reversed(self._pw)]
        return np.roll(self._grid, digits, axis=tuple(range(self._n))).ravel()


class FieldCtx:
    """Context for F_{p^n}; all element operations live here.

    It keeps what it builds, each at the first call that needs it:
    ``_tables`` (``tables()``), ``_delta`` (``delta``), ``_squares``
    (``square_bytes``), ``_inverse`` and ``_roots`` (the first array ``inv``
    and ``sqrt_canonical``) and ``_kronecker`` (the first ``prod`` for
    n > 1).  It also carries, freed with it, what ``closedform`` keeps for
    it: the T rows by l (``t_rows``) and the last rescaling (``rescaled``).
    Each holds for the field as it stood when it was built, so a context
    must not change after the first call that builds from it: a fault goes
    to a fresh context, before any suite runs.
    """

    def __init__(self, p: int, n: int = 1):
        q = field_order(p, n)
        self.p = p
        self.n = n
        self.q = q
        self.eps = 1 if q % 4 == 1 else -1
        self.m = (q - self.eps) // 4
        self.modulus = find_modulus(p, n)
        self._red = tuple(self._x_powers(2 * n - 2)[n:])  # x^(n+t) mod modulus
        self._pw = tuple(p ** i for i in range(n))  # place values of the digits
        self.one = 1
        self.minus_one = p - 1
        self._tables: FieldTables | None = None
        self._delta: int | None = None
        self._squares: bytes | None = None  # kept by square_bytes
        self._inverse = self._roots = None  # each kept by its array call
        self.t_rows: dict[int, tuple[int, int, int, int]] = {}  # l -> (++, +-, -+, --)
        self.rescaled: tuple = (None, None)  # (j', l'), (lambda, nu, j, l)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, n={self.n})"

    # -- encoding ----------------------------------------------------------

    def encode(self, coeffs) -> int:
        acc, pw = 0, 1
        for c in coeffs:
            acc += (c % self.p) * pw
            pw *= self.p
        return acc

    def from_int(self, c: int) -> int:
        """Embed the integer c (image of c*1 in the prime subfield)."""
        return c % self.p

    def elements_canonical(self) -> Iterator[int]:
        """All elements in canonical order, which is the order of the codes."""
        return iter(range(self.q))

    def half_unit_squares(self) -> Iterator[int]:
        """Codes of x^2 over one unit x of each pair +-x; no field call per x.

        The x are the (q - 1)/2 codes whose top nonzero digit is below p/2,
        taken one line {y + c : c in F_p} at a time, y with constant digit
        0: the line y = 0 with 1 <= c <= (p - 1)/2, and for each place value
        w >= p the whole lines at y in ``range(w, (p + 1)//2 * w, p)``.  On a
        line (y + c)^2 = y^2 + c*2y + c^2, so the constant digit is y^2's
        plus the running sum of the odd numbers, and every other digit is an
        arithmetic progression mod p: one ``mul_poly(y, y)`` per line and
        no other multiplication.  For n = 1 the line y = 0 is all.
        """
        p, half, odd = self.p, (self.p + 1) // 2, range(1, 2 * self.p - 1, 2)
        mod, ps = operator.mod, itertools.repeat(p)

        def lines():
            yield map(mod, itertools.accumulate(odd[1:half - 1], initial=1), ps)  # c^2, c >= 1
            for w in self._pw[1:]:
                for y in range(w, half * w, p):
                    yy = self.mul_poly(y, y)
                    digits = [map(mod, itertools.accumulate(odd, initial=yy % p), ps)]
                    for v in self._pw[1:]:
                        # digit d at place v is d*v, and (k*v) % (p*v) == (k % p)*v
                        a, step = yy // v % p * v, 2 * (y // v) % p * v
                        digit = range(a, a + step * p, step) if step else itertools.repeat(a, p)
                        digits.append(map(mod, digit, itertools.repeat(p * v)))
                    yield functools.reduce(functools.partial(map, operator.add), digits)

        return itertools.chain.from_iterable(lines())

    def square_bytes(self) -> bytes:
        """q bytes, 1 exactly at the nonzero squares, from ``half_unit_squares``.

        The oracle's character from the definition of a square, never from
        ``legendre`` or ``pow``.  Listed once per context and kept,
        read-only: the one source of that character for the byte scan and
        for the tables' grid.
        """
        if self._squares is None:
            sq = bytearray(self.q)
            for x in self.half_unit_squares():
                sq[x] = 1
            self._squares = bytes(sq)
        return self._squares

    def prod(self, codes) -> int:
        """Product of the codes of an iterable, consumed once; the empty product is one.

        No list of the codes is built, no field method is called per code, and
        no table is read.  One loop serves every n: ``math.prod`` of the running
        product and the next chunk of packed codes, reduced, is the next running
        product.  For n = 1 a chunk is ``PROD_CHUNK`` codes as they come, reduced
        mod q.  For n > 1 it is a Kronecker substitution (von zur Gathen and
        Gerhard, *Modern Computer Algebra*, 8.4): each code's digits fill 64-bit
        slots of one integer, so ``math.prod`` multiplies the polynomials over Z
        at once; a chunk is k - 1 codes, k the largest with
        n^(k-1) (p-1)^k < 2^64, so no slot overflows, and the slots are reduced
        by the rows x^j mod the modulus (``_x_powers``) and mod p.  Unpacking
        the slots leaves a prime field's residue as it is.
        """
        p, n, q, shifts = self.p, self.n, self.q, range(0, 64 * self.n, 64)
        if n == 1:
            packed, size, reduce = iter(codes), PROD_CHUNK, lambda x: x % q
        else:
            # each code's digits, shifted into their slots; the n copies of
            # the iterable are read in lockstep, so tee holds one code at a time
            mod, ps = operator.mod, itertools.repeat(p)
            first, *rest = itertools.tee(codes, n)
            packed = map(mod, first, ps)
            for it, w, s in zip(rest, self._pw[1:], shifts[1:]):
                digit = map(mod, map(operator.floordiv, it, itertools.repeat(w)), ps)
                packed = map(operator.add, packed, map(operator.lshift, digit, itertools.repeat(s)))
            k, cols = self._kronecker
            size = k - 1

            def reduce(x: int) -> int:
                slots = memoryview(x.to_bytes((x.bit_length() + 63) // 64 * 8, sys.byteorder)).cast("Q")
                acc = 0
                for col, s in zip(cols, shifts):
                    acc |= sum(map(operator.mul, slots, col)) % p << s
                return acc
        acc = 1
        for chunk in itertools.zip_longest(*[packed] * size, fillvalue=1):
            acc = reduce(math.prod(chunk, start=acc))
        return sum((acc >> s) % (1 << 64) * w for s, w in zip(shifts, self._pw))

    @functools.cached_property
    def _kronecker(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(k, cols) of the table-free ``prod`` for n > 1: k factors at a time,
        k the largest with n^(k-1) (p-1)^k < 2^64, and cols[i] digit i of the
        rows of ``_x_powers(k(n - 1))``, one per slot of k factors."""
        p, n = self.p, self.n
        k = 1
        while n ** k * (p - 1) ** (k + 1) < 1 << 64:
            k += 1
        return k, tuple(zip(*self._x_powers(k * (n - 1))))

    def _x_powers(self, top: int) -> list[tuple[int, ...]]:
        """Digits of x^j mod the modulus for j = 0 .. top, each row x times the
        last: the reduction rows of ``mul_poly`` and of the Kronecker ``prod``."""
        p, n = self.p, self.n
        rem = [(-c) % p for c in self.modulus[:n]]  # x^n = -(c0 + ... + c_{n-1} x^(n-1))
        rows = [(1,) + (0,) * (n - 1)]
        while len(rows) <= top:
            carry = rows[-1][-1]
            rows.append(tuple((lo + carry * r) % p for lo, r in zip((0,) + rows[-1], rem)))
        return rows

    def elem_str(self, a: int) -> str:
        """Textual form: decimal residue, or comma-separated coefficients."""
        if self.n == 1:
            return str(a)
        p = self.p
        return ",".join([str(a // w % p) for w in self._pw])

    def parse_elem(self, text: str) -> int:
        """Inverse of elem_str; bare integers embed as constants."""
        text = text.strip()
        if "," in text:
            if self.n == 1:
                raise ValueError(f"coefficient list {text!r} in a prime field")
            coeffs = [int(t) for t in text.split(",")]
            if len(coeffs) != self.n:
                raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
            return self.encode(coeffs)
        return self.from_int(int(text))

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        if self.n == 1:
            return (a + b) % self.q
        p, acc = self.p, 0
        for w in self._pw:
            acc += (a // w + b // w) % p * w
        return acc

    def sub(self, a, b):
        if self.n == 1:
            return (a - b) % self.q
        p, acc = self.p, 0
        for w in self._pw:
            acc += (a // w - b // w) % p * w
        return acc

    def translate_bytes(self, vec, k: int) -> bytes:
        """Bytes t of length q with t[a] == vec[a + k] over all a; no numpy.

        Adding k's digit c at place value w rotates each aligned block of
        p*w bytes left by c*w.  For n = 1 that is one pair of slices; for
        n > 1 every block moves at once, as two shifts of one big int
        (byte a is its a-th least significant byte) split by a block mask.
        """
        if self.n == 1:
            return bytes(vec[k:] + vec[:k])
        q, p = self.q, self.p
        x = int.from_bytes(vec, "little")
        for w in self._pw:
            s = k // w % p * w
            if s:
                size = p * w
                blocks = q // size
                low = int.from_bytes((b"\xff" * (size - s) + bytes(s)) * blocks, "little")
                high = int.from_bytes((bytes(size - s) + b"\xff" * s) * blocks, "little")
                x = (x >> 8 * s) & low | (x << 8 * (size - s)) & high
        return x.to_bytes(q, "little")

    def neg(self, a):
        return self.sub(0, a)

    def mul(self, a, b):
        """a*b; with tables, two ints of F_{p^n} read exp[log a + log b].  A code
        array stays ``mul_poly``, O(len), where a lookup would convert the
        whole lists on every call."""
        if self.n == 1:
            return a * b % self.q
        tb = self._tables
        if tb is not None:
            try:
                return tb.exp[tb.log[a] + tb.log[b]]
            except TypeError:  # a code array is not a list index: mul_poly
                pass
        return self.mul_poly(a, b)

    def mul_poly(self, a, b):
        """a*b by polynomial multiplication modulo the modulus; reads no table.

        Outside this module only the oracle (``charsets``) calls it by name:
        the closed side calls ``mul``, which reads the tables.

        Before the last ``% p`` a coefficient is below p^2 < 2^62 for n = 1
        and below n^2 p^3 < 2^50 for n > 1 (as p^n < 2^31), so int64 arrays
        give the same codes as Python ints.
        """
        if self.n == 1:
            return a * b % self.q
        p, n, pw = self.p, self.n, self._pw
        da = [a // w % p for w in pw]
        db = [b // w % p for w in pw]
        c = [0] * (2 * n - 1)
        for i, ai in enumerate(da):
            for j, bj in enumerate(db):
                c[i + j] += ai * bj
        # x^(n+t) reduces to the row _red[t] of _x_powers, of degree below n
        for t, row in enumerate(self._red):
            v = c[n + t]
            for i in range(n):
                c[i] += v * row[i]
        acc = 0
        for ci, w in zip(c, pw):
            acc += ci % p * w
        return acc

    def inv(self, a):
        """1/a; with tables, an int of F_{p^n} reads exp[q - 1 - log a].  An
        int64 code array reads the inverse of every unit, made once per
        context at the first array call: exp[q - 1 - log u] (n > 1, tables) or
        u^(q-2).  It raises IdentityFailure unless a*(1/a) = 1 by ``mul_poly``,
        as two swapped exp entries give a wrong map that is its own inverse."""
        if isinstance(a, int):
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            if self.n == 1:
                return pow(a, -1, self.q)
            tb = self._tables
            if tb is not None:
                return tb.exp[self.q - 1 - tb.log[a]]
            return self.pow(a, self.q - 2)
        import numpy as np

        if np.any(a == 0):
            raise ZeroDivisionError("inverse of zero")
        if self._inverse is None:
            units, tb = np.arange(1, self.q, dtype=np.int64), self._tables
            ai = (np.take(tb.exp, self.q - 1 - np.take(tb.log, units))
                  if self.n > 1 and tb is not None else power(units, self.q - 2, self.mul, self.one))
            self._inverse = np.concatenate(([0], ai))
        ai = self._inverse[a]
        wrong = self.mul_poly(a, ai) != self.one
        if np.any(wrong):
            bad = self.elem_str(int(np.extract(wrong, a)[0]))
            raise IdentityFailure(f"exp/log give a wrong inverse of {bad} at q={self.q}")
        return ai

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        """a^e for any integer e (negative exponents invert first): Python's
        ``pow`` on an int of a prime field, otherwise, for ints of F_{p^n} and
        int64 code arrays alike, square-and-multiply over ``mul``."""
        if e < 0:
            a = self.inv(a)
            e = -e
        if self.n == 1 and isinstance(a, int):
            return pow(a, e, self.q)
        return power(a, e, self.mul, 0 * a + self.one)

    # -- quadratic character and square roots --------------------------------

    def legendre(self, a):
        """The quadratic character of a: +1 square, -1 nonsquare, 0 zero.

        Euler's criterion without tables.  With tables both read the one
        array ``chi``: an int gets an int, an int64 code array int64 values,
        as int8 would overflow ``from_int`` for p > 127."""
        tb = self._tables
        if tb is not None:
            return tb.chi.item(a) if isinstance(a, int) else tb.chi[a].astype("int64")
        # Euler's criterion: a^((q-1)/2) is 1 at the squares and 0 at 0
        return (self.pow(a, (self.q - 1) // 2) == self.one) * 2 - (a != 0)

    @property
    def delta(self) -> int:
        """The nonsquare with the smallest code; theta^2 = delta defines F_{q^2}.

        IdentityFailure where the character has no nonsquare, which only a
        fault gives."""
        if self._delta is None:
            self._delta = next((x for x in self.elements_canonical() if self.legendre(x) == -1), None)
            if self._delta is None:
                raise IdentityFailure(f"F_{self.q} has no nonsquare")
        return self._delta

    def sqrt_canonical(self, a):
        """The smaller code of the two square roots of a.

        Returns None exactly when a is a nonsquare.  On an int64 code array,
        -1 marks the nonsquares and no character is read: a table made at the
        first array call holds the smaller code of each pair +-x at x^2 by ``mul_poly``.
        """
        if not isinstance(a, int):
            if self._roots is None:
                import numpy as np

                x = np.arange(self.q, dtype=np.int64)
                canon = x[x <= self.neg(x)]
                self._roots = np.full(self.q, -1, dtype=np.int64)
                self._roots[self.mul_poly(canon, canon)] = canon
            return self._roots[a]
        if a == 0:
            return 0
        if self.legendre(a) == -1:
            return None
        r = tonelli_shanks(self, a)
        return min(r, self.neg(r))

    # -- tables ----------------------------------------------------------------

    def primitive_element(self) -> int:
        """The generator of the cyclic group F_q^* with the smallest code."""
        return first_of_order((g for g in self.elements_canonical() if g),
                              self.q - 1, self.pow, self.one)

    def tables(self) -> FieldTables:
        """Build (once) and return the lookup tables."""
        if self._tables is None:
            self._tables = FieldTables(self)
        return self._tables

    # -- quadratic extension F_{q^2} --------------------------------------------

    def e2_embed(self, a: int) -> Ext2Elem:
        return Ext2Elem(a, 0)

    def e2_is_base(self, x: Ext2Elem) -> bool:
        return x.hi == 0

    def e2_key(self, x: Ext2Elem):
        """Sort key of lo + hi*theta, the codes (lo, hi) as one base-q numeral,
        lo first: below q^2 < 2^62."""
        return x.lo * self.q + x.hi

    def e2_add(self, x: Ext2Elem, y: Ext2Elem) -> Ext2Elem:
        return Ext2Elem(self.add(x.lo, y.lo), self.add(x.hi, y.hi))

    def e2_sub(self, x: Ext2Elem, y: Ext2Elem) -> Ext2Elem:
        return Ext2Elem(self.sub(x.lo, y.lo), self.sub(x.hi, y.hi))

    def e2_neg(self, x: Ext2Elem) -> Ext2Elem:
        return Ext2Elem(self.neg(x.lo), self.neg(x.hi))

    def e2_mul(self, x: Ext2Elem, y: Ext2Elem) -> Ext2Elem:
        mul = self.mul
        lo = self.add(mul(x.lo, y.lo), mul(mul(x.hi, y.hi), self.delta))
        hi = self.add(mul(x.lo, y.hi), mul(x.hi, y.lo))
        return Ext2Elem(lo, hi)

    def e2_norm(self, x: Ext2Elem):
        """N(x) = x*conj(x) = lo^2 - delta*hi^2, which is x^(q+1)."""
        mul = self.mul
        return self.sub(mul(x.lo, x.lo), mul(mul(x.hi, x.hi), self.delta))

    def e2_sqrt(self, a) -> Ext2Elem:
        """Canonical square root in F_{q^2} of the base element a: the root of
        a where chi(a) != -1, else theta times the root of b = a/delta.

        Raises IdentityFailure, at the first such element in C order of an
        array of any shape, where neither a nor b is a square or the one chi
        picks has no root: only an inconsistent quadratic character can cause either.
        """
        base = (a == 0) | (self.legendre(a) != -1)
        b = self.div(a, self.delta)
        neither = "neither {0} nor {0}/delta is a square at q={1}"
        if isinstance(a, int):
            r = self.sqrt_canonical(a if base else b)  # tonelli_shanks raises where chi errs
            if r is None:
                raise IdentityFailure(neither.format(self.elem_str(a), self.q))
            return Ext2Elem(r, 0) if base else Ext2Elem(0, r)
        import numpy as np

        r = self.sqrt_canonical(np.where(base, a, b))
        none = ~base & (self.legendre(b) == -1)
        lost = none | (r < 0)
        if lost.any():
            i = np.unravel_index(np.argmax(lost), lost.shape)
            if none[i]:
                raise IdentityFailure(neither.format(self.elem_str(int(a[i])), self.q))
            y = self.elem_str(int(a[i] if base[i] else b[i]))
            raise IdentityFailure(f"no square root of {y} found in F_{self.q}")
        return Ext2Elem(np.where(base, r, 0), np.where(base, 0, r))


def mk_field(p: int, n: int = 1) -> FieldCtx:
    """Construct F_{p^n} with the canonical modulus."""
    return FieldCtx(p, n)
