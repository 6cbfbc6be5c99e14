"""Exhaustive verification sweeps: every closed form against the oracle.

Each suite takes a field context and yields check rows; ``run_verify``
drives the suites over all prime powers in a range and emits one JSON
line per check.  A sweep passes only with zero mismatches, which is the
acceptance bar for the whole package.  ``dickson`` and ``cardinality``
make no loop over the field: the Dickson identities are checked at their
roots by one ``dickson_values`` call each, and ``card_tally`` counts pairs
by FFT correlation, one row per realized pair of classes at the ends.
``render_table`` builds the ``table`` command's summary tables: it picks
their tau, checks each row's closed products against the oracle, and the
Dickson identities (``dickson_identities``) against their vanishing polynomials.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import random
import sys
from typing import Callable, Iterable, Iterator, NamedTuple

from . import charsets, closedform, correspondence, dickson, reciprocity
from .charsets import SIGN_PAIRS, sign_str
from .closedform import INF, tau_str
from .ffield import CHECK_FAILURES as _CHECK_FAILURES, Ext2Elem, FieldCtx, mk_field

ALL_SUITES = ("tables", "dickson", "cardinality", "correspondence",
              "reciprocity", "rescaling", "intro")

_SEED = 0x5EED


class SweepConfig(NamedTuple):
    """What ``run_verify`` sweeps; ``_replace`` gives a changed copy."""

    q_min: int
    q_max: int
    max_degree: int | None = 3
    suites: tuple[str, ...] = ALL_SUITES
    workers: int = 1
    report_path: str | None = None

    def validate(self) -> None:
        if self.q_min < 3:
            raise ValueError("q_min must be at least 3")
        if not self.suites:
            raise ValueError("at least one suite is required")
        if len(set(self.suites)) != len(self.suites):
            raise ValueError(f"duplicate suites: {list(self.suites)}")
        unknown = set(self.suites) - set(ALL_SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.q_max > charsets.SCAN_LIMIT:  # the oracle scans every element
            raise ValueError(f"q_max={self.q_max} is above the scan bound "
                             f"{charsets.SCAN_LIMIT}")


def prime_powers(q_min: int, q_max: int,
                 max_degree: int | None = None) -> list[tuple[int, int, int]]:
    """Odd prime powers q in [q_min, q_max] as (q, p, n), ordered by q.

    Sieves the primes up to sqrt(q_max), then the window [q_min, q_max]
    with them, so memory is O(q_max - q_min + sqrt(q_max)) bytes.
    """
    lo = max(3, q_min)
    if q_max < lo or (max_degree is not None and max_degree < 1):
        return []
    root = math.isqrt(q_max)
    small = bytearray([1]) * (root + 1)  # small[i] == 1: i is 0, 1 or prime
    window = bytearray([1]) * (q_max - lo + 1)  # window[i] == 1: lo + i is prime
    for p in range(2, root + 1):
        if small[p]:
            small[p * p::p] = bytes(len(range(p * p, root + 1, p)))
            first = max(p * p, -(-lo // p) * p) - lo
            window[first::p] = bytes(len(range(first, len(window), p)))
    out = [(q, q, 1) for q in itertools.compress(range(lo, q_max + 1), window)]
    for p in range(3, root + 1):
        if small[p]:
            q, n = p * p, 2
            while q <= q_max and (max_degree is None or n <= max_degree):
                if q >= lo:
                    out.append((q, p, n))
                q, n = q * p, n + 1
    out.sort()
    return out


_ROW_LINE = '{"case": %s, "expected": %s, "actual": %s, "ok": %s, "q": %d, "suite": %s}\n'


def _row(case: str, expected: str, actual: str) -> dict:
    return {"case": case, "expected": expected, "actual": actual,
            "ok": expected == actual}


def _check(case: str, expected: str, actual: Callable[[], str]) -> dict:
    """One check row; a _CHECK_FAILURES exception raised by ``actual()``,
    the text of the closed side, becomes a failed row and the sweep goes on."""
    try:
        got = actual()
    except _CHECK_FAILURES as exc:
        got = f"failed: {exc}"
    return _row(case, expected, got)


def _returns(text: str, check: Callable[..., object], *args, **kwargs) -> str:
    """``text`` once ``check`` returns, for checks that fail only by raising."""
    check(*args, **kwargs)
    return text


def _rng(ctx: FieldCtx, salt: str) -> random.Random:
    return random.Random(f"{_SEED}:{ctx.q}:{salt}")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_tables(ctx: FieldCtx) -> Iterator[dict]:
    """Normalized T-products: closed form vs oracle, all tau, all signs.

    A failure on the oracle's side is a failed row too, so every tau gives
    its four rows; the oracle's pair (j, l) is worked out once per tau, and
    the text of every code once per field.
    ``closedform.prod_T_table`` first keeps the closed rows of every tau
    but 0 and inf in one array pass, or none of them, so the closed side's
    calls read kept rows and build, as scalars, only those the pass left.
    The oracle's pairs (-j, l) all differ by 4, which the suite names to its
    tally: the first row's call builds that difference for every row.
    The closed side, the table value, is cross-checked by ``rescale_T``: at
    lambda = 1 that guards its division of (j, l) by lambda, since a pair it
    gets wrong reads, or builds, the row of another l.  So each tau's row is
    read eight times, twice per sign pair, and its rescaling worked out once.
    """
    closedform.prod_T_table(ctx)
    ctx.tables().name_difference(ctx.from_int(4))
    texts = [ctx.elem_str(c) for c in range(ctx.q)]

    def code_str(c: int) -> str:  # a code outside 0 .. q - 1 gets its own text
        return texts[c] if 0 <= c < ctx.q else ctx.elem_str(c)

    taus = [INF] + [t for t in range(ctx.q) if t != ctx.minus_one]
    signs = [sign_str(sp) for sp in SIGN_PAIRS]
    for tau in taus:
        text = tau_str(tau, ctx)
        cases = [f"T[{text}]{s}" for s in signs]
        try:  # the oracle's pair, apart from the closed side's checked frame
            l = 0 if tau is INF else ctx.div(ctx.from_int(4), ctx.add(tau, ctx.one))
            j = ctx.from_int(4) if tau is INF else ctx.mul(tau, l)
        except _CHECK_FAILURES as exc:
            yield from (_row(case, f"failed: {exc}", "unchecked") for case in cases)
            continue
        for case, sp in zip(cases, SIGN_PAIRS):
            fam, brute = charsets.SetFamily("T", (j, l), sp), None
            try:
                brute = code_str(charsets.brute_product(ctx, fam).value)
                closed = closedform.prod_T_values(ctx, j, l)[sp]
                rescaled = closedform.rescale_T(ctx, j, l, sp)
                got = code_str(closed) if closed == rescaled else \
                    f"closed={code_str(closed)} rescaled={code_str(rescaled)}"
            except _CHECK_FAILURES as exc:
                if brute is None:  # the oracle's side failed: the closed side is not run
                    yield _row(case, f"failed: {exc}", "unchecked")
                    continue
                got = f"failed: {exc}"
            yield _row(case, brute, got)


def suite_rescaling(ctx: FieldCtx) -> Iterator[dict]:
    """Random T-products, swaps, and quadruples completed from a closed seed."""
    rng = _rng(ctx, "rescaling")
    pairs = []
    while len(pairs) < 20:
        jp, lp = rng.randrange(ctx.q), rng.randrange(ctx.q)
        if ctx.add(jp, lp) != 0:
            pairs.append((jp, lp))
    for jp, lp in pairs:
        for sp in SIGN_PAIRS:
            fam = charsets.t_family(jp, lp, sp)
            want = charsets.brute_product(ctx, fam).value
            yield _check(f"rescale[{ctx.elem_str(jp)},{ctx.elem_str(lp)}]{sign_str(sp)}",
                         ctx.elem_str(want),
                         lambda: ctx.elem_str(closedform.closed_product(ctx, fam)))
    for _ in range(3):
        j, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
        if ctx.add(j, l) == 0:
            continue
        for mu in (1, -1):
            want = charsets.brute_product(ctx, charsets.t_family(l, j, (mu, mu))).value
            yield _check(f"swap[{ctx.elem_str(j)},{ctx.elem_str(l)}]{sign_str((mu, mu))}",
                         ctx.elem_str(want),
                         lambda: ctx.elem_str(closedform.swap_T(ctx, j, l, mu)))
    for _ in range(2):
        k, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
        if k == l:
            continue
        fams = [charsets.s_family(k, l, sp) for sp in SIGN_PAIRS]
        want = " ".join(ctx.elem_str(charsets.brute_product(ctx, fam).value) for fam in fams)
        seed = fams[rng.randrange(4)]

        def quadruple():
            known = (seed.signs, closedform.closed_product(ctx, seed))
            quad = closedform.quadruple_from_one(ctx, k, l, known)
            return " ".join(ctx.elem_str(quad[sp]) for sp in SIGN_PAIRS)

        yield _check(f"quadruple[{ctx.elem_str(k)},{ctx.elem_str(l)}]"
                     f"seed{sign_str(seed.signs)}", want, quadruple)


def suite_dickson(ctx: FieldCtx) -> Iterator[dict]:
    """D_m = V_{A_{-2,2}^{-eps,-}} and E_{m-1} = V_{A_{-2,2}^{eps,+}}, at the roots.

    D_m and E_{m-1} are monic of degrees m and m - 1, so each equals the
    vanishing polynomial of a set B iff B has that many elements and the
    polynomial vanishes on B.  One ``dickson_values`` call on the array B
    gives D_m(B) and D_{m+1}(B), and 2 D_{m+1}(b) - b D_m(b) is (b^2 - 4)
    E_{m-1}(b), with b^2 != 4 on the E set (chi(0) = 0 matches no sign),
    checked too.
    """
    import numpy as np

    two, four = ctx.from_int(2), ctx.from_int(4)
    for name, degree, signs in (("D_m", ctx.m, (-ctx.eps, -1)),
                                ("E_m-1", ctx.m - 1, (ctx.eps, 1))):
        fam = charsets.a_family(ctx.neg(two), two, signs)
        roots = np.array(charsets.enumerate_family(ctx, fam), dtype=np.int64)
        d_m, d_m1 = dickson.dickson_values(ctx.m, roots, ctx.sub, ctx.mul, two)
        if name == "D_m":
            missed = d_m != 0
        else:
            missed = (ctx.sub(ctx.mul(two, d_m1), ctx.mul(roots, d_m)) != 0) \
                | (ctx.mul(roots, roots) == four)
        detail = "identical-coefficients"
        if len(roots) != degree:
            detail = f"{len(roots)}-roots-for-degree-{degree}"
        elif missed.any():
            detail = f"not-a-root-at-{np.count_nonzero(missed)}-of-{degree}"
        yield _row(f"dickson[{name}=f{sign_str(signs)}]",
                   "identical-coefficients", detail)


def card_tally(ctx: FieldCtx):
    """counts[i, d] = #{k : class(k) = u[i], class(k + d) = v[i]}, per realized class pair.

    Class digits are characters plus one: k-class (ok*3 + ck)*3 + cn and
    l-class ol*3 + cl, with the oracle's chi (``FieldTables.shifted``) in ok
    and ol, the closed ``ctx.legendre`` in ck and cl, and the closed chi(-k),
    which T reads at j = -k, in cn.  A pair is realized when both classes
    occur: 9 on a sound field, at most 243.  Its row is the
    ``FieldTables.correlate`` of the two indicators: one ``spectrum`` per
    realized class (one k spectrum held at a time), one correlation per row,
    exact up to q = 2^26 by the a-priori bound there; memory is linear in q,
    at most 243 q int32 counts.  A row that is not within 1/4 of integers
    summing to |U| |V| raises IdentityFailure ("no count").  Returns u, v,
    counts and the class vectors.
    """
    import numpy as np

    tb, q = ctx.tables(), ctx.q
    closed = ctx.legendre(np.arange(q)) + 1
    l_class = ((tb.shifted(0) + 1) * 3 + closed).astype(np.int8)
    k_class = l_class * 3 + closed[ctx.neg(np.arange(q))]
    k_sizes, l_sizes = np.bincount(k_class, minlength=27), np.bincount(l_class, minlength=9)
    us, vs = np.flatnonzero(k_sizes), np.flatnonzero(l_sizes)
    l_spectra = [tb.spectrum(l_class == v) for v in vs]
    counts = np.empty((len(us) * len(vs), q), dtype=np.int32)  # counts are below q < 2^31
    for i, u in enumerate(us):
        k_spectrum = tb.spectrum(k_class == u)
        for j, (v, l_spectrum) in enumerate(zip(vs, l_spectra)):
            counts[i * len(vs) + j] = tb.correlate(
                k_spectrum, l_spectrum, f"the pair tally of classes {u}, {v} is no count")
    return np.repeat(us, len(vs)), np.tile(vs, len(us)), counts, k_class, l_class


def _first_pair(ctx: FieldCtx, kind: str, bad, row_of, k_class, l_class) -> str:
    """" first=(k,l)": the first pair in row-major order with ``bad[row_of[class(k),
    class(l)], l - k]`` and l != k; the rows of T are j = -k."""
    import numpy as np

    codes = np.arange(ctx.q)
    for r in range(ctx.q):
        k = ctx.neg(r) if kind == "T" else r
        d = ctx.sub(codes, k)
        hit = bad[row_of[k_class[k], l_class], d] & (d != 0)
        if hit.any():
            return f" first=({ctx.elem_str(r)},{ctx.elem_str(int(hit.argmax()))})"
    return ""


def suite_cardinality(ctx: FieldCtx) -> Iterator[dict]:
    """Closed cardinalities against enumerated counts, all pairs, at every q.

    b = a + k is a bijection, so |A_{k,l}| = c(l - k) with c(d) = #{b :
    chi(b) = e1, chi(b + d) = e2}, and |T_{j,l}| = c'(l + j), c' with signs
    (eps e1, e2); S and T lose the a = 0 term.  The closed count
    (``charsets._pair_card``, as in ``card_closed``) reads the closed chi at
    d and at the ends.  So both counts of the pair (k, k + d), or of (j, l)
    = (-k, k + d), are functions of d and the classes of the ends, and each
    row of ``card_tally`` weighs them, over d, by its number of pairs.
    """
    import numpy as np

    u, v, counts, k_class, l_class = card_tally(ctx)
    counts[:, 0] = 0  # d = 0: k = l (A, S) or j + l = 0 (T), no family
    row_of = np.full((27, 9), -1)  # [class(k), class(l)]: the row of the pair
    row_of[u, v] = np.arange(len(u))
    ok, ck, cn, ol, cl = (c[:, None] - 1 for c in (u // 9, u // 3 % 3, u % 3, v // 3, v % 3))
    nu = l_class % 3 - 1  # closed chi(d)
    for e1, e2 in SIGN_PAIRS:
        for kind in "AST":
            f1 = ctx.eps * e1 if kind == "T" else e1  # chi(j - a) = eps chi(a - j)
            ends = (ok == f1) & (ol == e2)
            want = counts[ends[:, 0]].sum(axis=0)  # the oracle's c(d)
            if kind != "A":
                want = want - ends  # a = 0, at k = -j for T
            got = charsets._pair_card(ctx, kind, (e1, e2), nu, cn if kind == "T" else ck, cl)
            bad = np.broadcast_to(got != want, counts.shape)
            n_bad = int(counts[bad].sum())
            first = _first_pair(ctx, kind, bad, row_of, k_class, l_class) if n_bad else ""
            yield _row(f"card[{kind}]{sign_str((e1, e2))}", "0 mismatches",
                       f"{n_bad} mismatches{first}")
    chi = l_class // 3 - 1  # the oracle's chi
    for e in (1, -1):
        sums = np.count_nonzero(chi == e) - (chi == e)  # a = 0 is in S_k^e iff chi(k) = e
        bad = np.count_nonzero(charsets._single_card(ctx, e, nu) != sums)
        yield _row(f"card[S1]{sign_str(e)}", "0 mismatches", f"{bad} mismatches")
    rng = _rng(ctx, "card-spot")
    for _ in range(10):
        k, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
        sp = SIGN_PAIRS[rng.randrange(4)]
        fam = charsets.SetFamily(("A", "S", "T")[rng.randrange(3)], (k, l), sp)
        try:
            fam.validate(ctx)
        except ValueError:  # the draw is no family
            continue
        want = len(charsets.enumerate_family(ctx, fam))
        got = charsets.card_closed(ctx, fam)
        yield _row(f"card-spot[{fam.label(ctx)}]", str(want), str(got))


def suite_correspondence(ctx: FieldCtx) -> Iterator[dict]:
    """Orbit bijection, order classification, and orbit counting: one array
    pass over the field for each of the first four checks, so ``all_orbits``,
    ``orbit_of_tau`` and ``classify_tau`` run once per field and
    ``tau_of_orbit`` twice (the image, and the round trip of ``orbit_of_tau``)."""
    import numpy as np

    q, none = ctx.q, np.zeros(0, dtype=np.int64)
    found = {"orbits": Ext2Elem(none, none), "taus": none}  # set by the first two checks

    def count() -> str:
        found["orbits"] = correspondence.all_orbits(ctx)
        return str(len(found["orbits"].lo))

    def image() -> str:
        found["taus"] = taus = correspondence.tau_of_orbit(ctx, found["orbits"])
        return "all-of-F_q" if np.array_equal(np.sort(taus), np.arange(q)) else "not-injective"

    yield _check("orbit-count", str(q), count)
    yield _check("orbit-image", "all-of-F_q", image)
    # each tau that an orbit maps to, and its orbit: the last one in key
    # order when several map to one tau, as a dict filled in order keeps it
    taus = found["taus"]
    mapped, last = np.unique(taus[::-1], return_index=True)
    orbit = Ext2Elem(*(x[len(taus) - 1 - last] for x in found["orbits"]))

    def roundtrip() -> str:
        back = correspondence.orbit_of_tau(ctx, np.arange(q))
        same = np.zeros(q, dtype=bool)
        same[mapped] = (back.lo[mapped] == orbit.lo) & (back.hi[mapped] == orbit.hi)
        return f"{q - np.count_nonzero(same)} mismatches"

    yield _check("orbit-roundtrip", "0 mismatches", roundtrip)
    agrees = correspondence.classify_tau(ctx, mapped, orbit)[2]
    bad = q - len(mapped) + np.count_nonzero(~agrees)  # a tau no orbit maps to fails
    yield _row("v-correspondence", "0 mismatches", f"{bad} mismatches")
    for sp in SIGN_PAIRS:
        want = charsets.card_closed(ctx, charsets.a_family(0, 1, sp))
        got = correspondence.orbit_count_card(ctx, sp.e1, sp.e2)
        yield _row(f"orbit-card{sign_str(sp)}", str(want), str(got))


def suite_reciprocity(ctx: FieldCtx) -> Iterator[dict]:
    """Nested-radical classes, towers, and quadratic-irrational products."""
    # 2 + sqrt(2) is a square iff q = +-1 (mod 16): level 1 of the sqrt2 tower
    yield _check("biquad-sqrt2", "consistent",
                 lambda: _returns("consistent", reciprocity.radical_tower_membership,
                                  ctx, reciprocity.TowerSpec("sqrt2", 2)))
    for base, (k, _) in reciprocity.TOWER_BASES.items():
        if (2 * k) % ctx.p == 0:
            continue
        spec = reciprocity.TowerSpec(base, 5)
        want = "".join("1" if b else "0"
                       for b in reciprocity.tower_congruences(ctx.q, spec))
        yield _check(f"tower[{base}]", want, lambda: "".join(
            "1" if b else "0" for b in reciprocity.radical_tower_membership(ctx, spec)))
    for base, (_, rad) in reciprocity.TOWER_BASES.items():
        if rad % ctx.p == 0 or ctx.legendre(ctx.from_int(rad)) != 1:
            continue
        for rs in (1, -1):
            yield _check(f"quadirr[{base}]root{'+' if rs > 0 else '-'}", "verified",
                         lambda: _returns("verified", reciprocity.prod_T_quadratic_irrational,
                                          ctx, base, root_sign=rs))
    for d in sorted(2 * tb.k for tb in reciprocity.TOWER_BASES.values()):
        if d % ctx.p == 0:
            continue
        yield _check(f"special-angle[{d}]", "verified",
                     lambda: _returns("verified", reciprocity.special_angle_bracket, ctx, d))


def suite_intro(ctx: FieldCtx) -> Iterator[dict]:
    """The two opening product identities and the abstract's example."""
    two = ctx.from_int(2)
    four = ctx.from_int(4)
    chi2 = ctx.legendre(two)
    cases = (
        ("intro[a,4-a nonsquares]", charsets.t_family(four, 0, (-1, -1)), two),
        ("intro[-a,4+a nonsquares]", charsets.t_family(0, four, (-1, -1)),
         two if chi2 == 1 else ctx.neg(two)),
        ("intro[1-a,3+a nonsquares]",
         charsets.t_family(ctx.one, ctx.from_int(3), (-1, -1)),
         two if ctx.q % 12 in (1, 11) else ctx.minus_one),
    )
    for case, fam, want in cases:
        got = charsets.brute_product(ctx, fam).value
        yield _row(case, ctx.elem_str(want), ctx.elem_str(got))


SUITE_FUNCS: dict[str, Callable[[FieldCtx], Iterator[dict]]] = {
    "tables": suite_tables,
    "dickson": suite_dickson,
    "cardinality": suite_cardinality,
    "correspondence": suite_correspondence,
    "reciprocity": suite_reciprocity,
    "rescaling": suite_rescaling,
    "intro": suite_intro,
}


def run_field(p: int, n: int, suites: Iterable[str],
              emit: Callable[[dict], object] | None = None) -> list[dict]:
    """All requested checks for one field, as finished report rows; a
    _CHECK_FAILURES exception ends its suite with a failed <suite>-aborted row.

    Each row goes to ``emit(row)`` as soon as its suite yields it, and the
    returned list is empty; with no ``emit`` the rows are returned instead,
    the picklable result a pool worker sends back.
    """
    ctx = mk_field(p, n)
    ctx.tables()
    rows: list[dict] = []
    if emit is None:
        emit = rows.append
    for name in suites:
        try:
            for row in SUITE_FUNCS[name](ctx):
                row.update(q=ctx.q, suite=name)
                emit(row)
        except _CHECK_FAILURES as exc:
            emit(dict(_row(f"{name}-aborted", "completed", f"failed: {exc}"),
                      q=ctx.q, suite=name))
    return rows


def run_verify(config: SweepConfig, stream=None) -> int:
    """Run the sweep, emit JSON lines, return the exit code (0 iff clean).

    In one process each row is written as soon as its suite yields it, so
    no field's rows are held at once, and an exception outside
    _CHECK_FAILURES leaves the rows written before it in the report.  With
    ``workers > 1`` and more than one field, the fields run in a
    ``concurrent.futures.ProcessPoolExecutor``, imported only then, so a
    one-process sweep never loads ``multiprocessing``; each worker returns
    its field's rows as one list, written by the same ``write_row``.  Rows
    come out in field order either way.
    ``write_row`` fills one format string, ``_ROW_LINE``: json.dumps' bytes
    for rows of str case, expected, actual, bool ok, int q and str suite.
    """
    config.validate()
    fields = prime_powers(config.q_min, config.q_max, config.max_degree)
    if not fields:
        raise ValueError(f"no odd prime power in [{config.q_min}, {config.q_max}]"
                         f" with max_degree={config.max_degree}")
    mismatches = 0
    with contextlib.ExitStack() as stack:
        if stream is None:
            stream = (stack.enter_context(open(config.report_path, "w", encoding="utf-8"))
                      if config.report_path else sys.stdout)
        write, enc = stream.write, json.encoder.encode_basestring_ascii

        def write_row(row: dict) -> None:
            nonlocal mismatches
            ok = row["ok"]
            mismatches += not ok
            write(_ROW_LINE % (enc(row["case"]), enc(row["expected"]), enc(row["actual"]),
                               "true" if ok else "false", row["q"], enc(row["suite"])))

        ps, ns = [p for _, p, _ in fields], [n for _, _, n in fields]
        suites = tuple(config.suites)
        # the pool forks all its workers at once, so ask for no idle ones
        workers = min(config.workers, len(fields))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            # chain drops each field's rows before it waits for the next field
            for row in itertools.chain.from_iterable(
                    pool.map(run_field, ps, ns, itertools.repeat(suites))):
                write_row(row)
        else:
            for p, n in zip(ps, ns):
                run_field(p, n, suites, write_row)
    return 0 if mismatches == 0 else 1


# ---------------------------------------------------------------------------
# summary tables, the rows of the ``table`` command
# ---------------------------------------------------------------------------

def dickson_identities(ctx: FieldCtx) -> list[tuple[list[int], tuple, list[int]]]:
    """(Dickson polynomial, signs, vanishing polynomial) for D_m and E_{m-1}.

    The identities pair D_m with the signs (-eps, -) and E_{m-1} with
    (eps, +); each Dickson polynomial must equal its vanishing polynomial.
    """
    return [(poly, signs, charsets.vanishing_poly(ctx, *signs))
            for poly, signs in ((dickson.dickson_first(ctx, ctx.m), (-ctx.eps, -1)),
                                (dickson.dickson_second(ctx, ctx.m - 1), (ctx.eps, 1)))]


def _specific_rows(ctx: FieldCtx):
    """(label, frame, skip_reason) for the named-ratio table rows."""
    q = ctx.q
    branch8 = "q=+-1 mod 8" if q % 8 in (1, 7) else "q=+-3 mod 8"
    named = [("tau=0", 0), ("tau=inf", INF), (f"tau=1 [{branch8}]", ctx.one)]
    if ctx.p != 3:
        branch12 = "q=+-1 mod 12" if q % 12 in (1, 11) else "q=+-5 mod 12"
        three = ctx.from_int(3)
        named += [(f"tau=3 [{branch12}]", three), (f"tau=1/3 [{branch12}]", ctx.inv(three))]
    rows = [(label, closedform.normalized_frame(ctx, tau), None) for label, tau in named]
    if ctx.p == 3:
        rows.append(("tau=3", None, "p=3 folds this into tau=0"))
        rows.append(("tau=1/3", None, "p=3 folds this into tau=inf"))
    return rows


def _witness_frame(ctx: FieldCtx, cls: tuple[int, int], mu: int | None = None):
    """Frame of the tau of smallest code with the given square classes
    (and, if mu is given, with all-square class mu), or None."""
    for tau in ctx.elements_canonical():
        if tau == ctx.minus_one:
            continue
        frame = closedform.normalized_frame(ctx, tau)
        if frame.cls == cls and (mu is None or closedform.all_square_class(ctx, frame) == mu):
            return frame
    return None


def _square_class_rows(ctx: FieldCtx, table_id: int):
    if table_id in (1, 2):
        wanted = [((1, 1), mu, f"tau,tau+1 squares; 1+-sqrt(l)/2 {name}")
                  for mu, name in ((1, "squares"), (-1, "nonsquares"))]
    else:
        wanted = [(cls, None, f"chi(tau)={cls[0]:+d}, chi(tau+1)={cls[1]:+d}")
                  for cls in ((1, -1), (-1, 1), (-1, -1))]
    rows = []
    for cls, mu, label in wanted:
        frame = _witness_frame(ctx, cls, mu)
        if frame is None:
            rows.append((label, None, "no such tau at this q"))
            continue
        note = f"tau={ctx.elem_str(frame.tau)}"
        if mu is None:
            note += f", c={ctx.elem_str(closedform.mixed_class_root(ctx, frame))}"
        rows.append((f"{label} [{note}]", frame, None))
    return rows


def render_table(ctx: FieldCtx, table_id: int) -> tuple[list[str], int]:
    """Rows of one summary table with closed and brute values side by side."""
    if table_id not in (1, 2, 3, 4):
        raise ValueError("table id must be 1..4")
    s_flavor = table_id in (1, 3)
    rows = (_specific_rows(ctx) if table_id in (1, 2) else []) \
        + _square_class_rows(ctx, table_id)
    lines = [f"table {table_id} at q={ctx.q} (p={ctx.p}, n={ctx.n}); "
             f"{'S' if s_flavor else 'T'}-products, "
             f"{'l-k=4' if s_flavor else 'j+l=4'} normalization"]
    family, x_name = (charsets.s_family, "k") if s_flavor else (charsets.t_family, "j")
    mismatches = 0
    for label, frame, skip in rows:
        if skip is not None:
            lines.append(f"  {label}: skipped ({skip})")
            continue
        x, l = (ctx.neg(frame.j) if s_flavor else frame.j), frame.l
        parts = []
        for sp in SIGN_PAIRS:
            fam = family(x, l, sp)
            closed = closedform.closed_product(ctx, fam)
            brute = charsets.brute_product(ctx, fam).value
            ok = closed == brute
            mismatches += not ok
            parts.append(f"{sign_str(sp)}: {ctx.elem_str(closed)}"
                         f"/{ctx.elem_str(brute)}{'' if ok else ' MISMATCH'}")
        head = f"{x_name}={ctx.elem_str(x)} l={ctx.elem_str(l)}"
        lines.append(f"  {label} [{head}]  " + "  ".join(parts))
    lines.append("  (entries are closed/brute)")
    # the polynomial identities behind the tables, coefficient lists
    # low degree first
    for name, (poly, signs, target) in zip(("D_m", "E_(m-1)"),
                                           dickson_identities(ctx)):
        ok = poly == target
        mismatches += not ok
        lines.append(f"  {name} = {dickson.poly_str(ctx, poly)}")
        lines.append(f"  vanishing{sign_str(signs)} = {dickson.poly_str(ctx, target)}"
                     f"  [{'equal' if ok else 'MISMATCH'}]")
    return lines, mismatches
