"""Acceptance criteria: exhaustive oracle-equivalence sweeps.

Every check is an exact field equality (the identities are exact, so the
tolerance is zero).  Each criterion prints one PASS/FAIL line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import io
import json
import random

from charprod import charsets, closedform, correspondence, reciprocity
from charprod.charsets import SIGN_PAIRS, a_family, s_family
from charprod.ffield import mk_field
from charprod.sweeps import SweepConfig, prime_powers, run_verify
from helpers import det_root_ext2, e2_inv, ext2_solve_unit

_SEED = 20260810


def _sweep(q_max, suites, max_degree=None):
    buf = io.StringIO()
    code = run_verify(SweepConfig(3, q_max, max_degree, suites=suites), stream=buf)
    rows = [json.loads(line) for line in buf.getvalue().splitlines()]
    bad = [r for r in rows if not r["ok"]]
    return code, rows, bad


def _report(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_master_table_sweep():
    # all odd prime powers q <= 343 (n <= 3), every tau != -1, all four
    # sign pairs, closed == rescaled == brute; plus 20 random
    # unnormalized pairs per q
    code, rows, bad = _sweep(343, ("tables", "rescaling"), max_degree=3)
    ok = code == 0 and not bad
    _report(1, ok, f"master table sweep q<=343: {len(rows)} checks, "
                   f"{len(bad)} mismatches")
    assert ok, bad[:5]


def test_criterion_2_dickson_identity_sweep():
    code, rows, bad = _sweep(1000, ("dickson",))
    # Example at q=13: explicit root sets and the two polynomials
    c13 = mk_field(13)
    c13.tables()
    two = c13.from_int(2)
    sets13 = {sp: charsets.enumerate_family(c13, a_family(c13.neg(two), two, sp))
              for sp in SIGN_PAIRS}
    examples_ok = (
        sets13[(1, 1)] == [1, 12]
        and sets13[(1, -1)] == [3, 5, 6]
        and sets13[(-1, 1)] == [7, 8, 10]
        and sets13[(-1, -1)] == [0, 4, 9]
        and charsets.vanishing_poly(c13, 1, 1) == [12, 0, 1]       # x^2 - 1
        and charsets.vanishing_poly(c13, -1, -1) == [0, 10, 0, 1]  # x^3 - 3x
    )
    c23 = mk_field(23)
    c23.tables()
    sets23 = {sp: charsets.enumerate_family(c23, a_family(c23.neg(two), two, sp))
              for sp in SIGN_PAIRS}
    examples_ok = examples_ok and (
        sets23[(1, 1)] == [4, 6, 10, 11, 14]
        and sets23[(1, -1)] == [3, 5, 8, 15, 18, 20]
        and sets23[(-1, 1)] == [0, 1, 7, 16, 22]
        and sets23[(-1, -1)] == [9, 12, 13, 17, 19]
        and charsets.vanishing_poly(c23, 1, -1) == [21, 0, 9, 0, 17, 0, 1]
        and charsets.vanishing_poly(c23, -1, 1) == [0, 3, 0, 19, 0, 1]
    )
    ok = code == 0 and not bad and examples_ok
    _report(2, ok, f"Dickson identity sweep q<=1000: {len(rows)} checks, "
                   f"{len(bad)} mismatches, worked examples "
                   f"{'ok' if examples_ok else 'BROKEN'}")
    assert ok, bad[:5]


def test_criterion_3_cardinality_sweep():
    code, rows, bad = _sweep(125, ("cardinality",))
    # floor formulas for the A_{0,1} families up to 1000
    floor_bad = 0
    for q, p, n in prime_powers(3, 1000):
        ctx = mk_field(p, n)
        ctx.tables()
        floors = {(1, 1): (q - 3) // 4, (1, -1): (q + 1) // 4,
                  (-1, 1): (q - 1) // 4, (-1, -1): (q - 1) // 4}
        for sp in SIGN_PAIRS:
            fam = a_family(0, 1, sp)
            enum = len(charsets.enumerate_family(ctx, fam))
            if not (enum == charsets.card_closed(ctx, fam) == floors[tuple(sp)]):
                floor_bad += 1
    ok = code == 0 and not bad and floor_bad == 0
    _report(3, ok, f"cardinality sweep: all pairs q<=125 "
                   f"({len(rows)} grid checks, {len(bad)} mismatches); "
                   f"A01 floor formulas q<=1000 ({floor_bad} mismatches)")
    assert ok, (bad[:5], floor_bad)


def test_criterion_4_correspondence_sweep():
    code, rows, bad = _sweep(343, ("correspondence",))
    ok = code == 0 and not bad
    _report(4, ok, f"orbit correspondence sweep q<=343: {len(rows)} checks, "
                   f"{len(bad)} mismatches")
    assert ok, bad[:5]


def test_criterion_5_intro_identities():
    code, rows, bad = _sweep(1000, ("intro",))
    ok = code == 0 and not bad
    _report(5, ok, f"intro identities q<=1000: {len(rows)} checks, "
                   f"{len(bad)} mismatches")
    assert ok, bad[:5]


def test_criterion_6_reciprocity_suite():
    towers = props = 0
    failures = []
    for q, p, n in prime_powers(3, 5000):
        ctx = mk_field(p, n)
        for base, (k, _) in reciprocity.TOWER_BASES.items():
            if (2 * k) % p == 0:
                continue
            spec = reciprocity.TowerSpec(base, 5)
            try:
                got = reciprocity.radical_tower_membership(ctx, spec)
                if got != reciprocity.tower_congruences(q, spec):
                    failures.append((q, base, "membership != congruence"))
                towers += 1
            except AssertionError as exc:
                failures.append((q, base, str(exc)))
    for q, p, n in prime_powers(3, 1000):
        ctx = mk_field(p, n)
        ctx.tables()
        for base, (_, rad) in reciprocity.TOWER_BASES.items():
            if rad % p == 0 or ctx.legendre(ctx.from_int(rad)) != 1:
                continue
            for rs in (1, -1):
                try:
                    reciprocity.prod_T_quadratic_irrational(ctx, base, root_sign=rs)
                    props += 1
                except AssertionError as exc:
                    failures.append((q, base, str(exc)))
    ok = not failures
    _report(6, ok, f"reciprocity: {towers} towers depth 5 (q<=5000), "
                   f"{props} closed products (q<=1000); {len(failures)} failures")
    assert ok, failures[:5]


def test_criterion_7_relation_solver():
    rng = random.Random(_SEED)
    fields = prime_powers(3, 343, 3)
    bad = 0
    for _ in range(100):
        q, p, n = fields[rng.randrange(len(fields))]
        ctx = mk_field(p, n)
        ctx.tables()
        k, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
        while k == l:
            l = rng.randrange(ctx.q)
        want = {sp: charsets.brute_product(ctx, s_family(k, l, sp)).value
                for sp in SIGN_PAIRS}
        seed_sp = SIGN_PAIRS[rng.randrange(4)]
        got = closedform.quadruple_from_one(ctx, k, l, (seed_sp, want[seed_sp]))
        if got != want:
            bad += 1
    ok = bad == 0
    _report(7, ok, f"relation solver: 100 random (q,k,l) triples, "
                   f"{bad} mismatches")
    assert ok


def test_criterion_8_choice_invariance():
    rng = random.Random(_SEED + 8)
    fields = prime_powers(3, 343, 3)
    cases = bad = 0
    while cases < 1000:
        q, p, n = fields[rng.randrange(len(fields))]
        ctx = mk_field(p, n)
        tau = rng.randrange(ctx.q)
        if tau in (0, ctx.minus_one):
            continue
        cls = (ctx.legendre(tau), ctx.legendre(ctx.add(tau, ctx.one)))
        frame = closedform.normalized_frame(ctx, tau)
        cases += 1
        if cls == (1, 1):
            # both square-root branches of the class key must agree
            # (Props on the well-definedness of chi(1 +- 1/sqrt(tau+1)))
            half = ctx.inv(ctx.from_int(2))
            root = ctx.sqrt_canonical(frame.l)
            classes = {ctx.legendre(ctx.add(ctx.one, ctx.mul(s, half)))
                       for s in (root, ctx.neg(root))} \
                | {ctx.legendre(ctx.sub(ctx.one, ctx.mul(s, half)))
                   for s in (root, ctx.neg(root))}
            if len(classes) != 1:
                bad += 1
            # chi(2 tau + 1 + 2 sqrt(tau(tau+1))) = chi(tau), either root
            prod = ctx.mul(tau, ctx.add(tau, ctx.one))
            s = ctx.sqrt_canonical(prod)
            vals = set()
            for ss in (s, ctx.neg(s)):
                arg = ctx.add(ctx.add(ctx.mul(ctx.from_int(2), tau), ctx.one),
                              ctx.mul(ctx.from_int(2), ss))
                vals.add(ctx.legendre(arg))
            if vals != {ctx.legendre(tau)}:
                bad += 1
        else:
            case = {(1, -1): "a1", (-1, 1): "a2", (-1, -1): "a3"}[cls]
            # the F_q value against the F_{q^2} one at both roots u, 1/u
            got = closedform.det_sqrt(ctx, frame)
            u = ext2_solve_unit(ctx, frame.r)
            if {det_root_ext2(ctx, case, u),
                    det_root_ext2(ctx, case, e2_inv(ctx, u))} != {got}:
                bad += 1
    ok = bad == 0
    _report(8, ok, f"choice invariance: {cases} random cases, {bad} failures")
    assert ok
