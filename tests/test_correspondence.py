import json

import numpy as np
import pytest

from charprod import correspondence, sweeps
from charprod.charsets import SIGN_PAIRS, a_family, card_closed, enumerate_family
from charprod.correspondence import (all_orbits, classify_tau, orbit_count_card,
                                     orbit_of_tau, roots_of_unity_union,
                                     tau_of_orbit, unit_power_is)
from charprod.ffield import Ext2Elem, FieldCtx, IdentityFailure, mk_field
from helpers import (SMALL_FIELDS, all_orbits_reference, correspondence_rows_reference,
                     e2_array, e2_div, e2_inv, e2_pairs, e2_pow, e2_project,
                     ext2_generator,
                     ext2_solve_unit, field, field_faults,
                     in_unit_groups_reference, orbit_members,
                     roots_of_unity_union_reference, small_ctxs,
                     stepped_roots_of_unity_union, unit_of_order, unit_order_test)


def test_tau_examples():
    for ctx in [field(7), field(13), field(3, 2)]:
        one = ctx.e2_embed(ctx.one)
        # primitive eighth root -> tau = -1/2, primitive cube root -> tau = -3/4
        units = [one, unit_of_order(ctx, 8)]
        want = [0, ctx.neg(ctx.inv(ctx.from_int(2)))]
        if ctx.p != 3:
            units.append(unit_of_order(ctx, 3))
            want.append(ctx.neg(ctx.div(ctx.from_int(3), ctx.from_int(4))))
        assert tau_of_orbit(ctx, e2_array(units)).tolist() == want


def test_tau_of_orbit_rejects_foreign_units():
    # an element of order q^2 - 1 is in neither mu_{2q-2} nor mu_{2q+2}
    ctx = field(7)
    with pytest.raises(ValueError):
        tau_of_orbit(ctx, e2_array([ext2_generator(ctx)]))


def _rep_of_tau(ctx, tau):
    return e2_pairs(orbit_of_tau(ctx, np.array([tau])))[0]


def test_orbit_of_tau_examples():
    c13 = field(13)
    rep = _rep_of_tau(c13, 0)
    assert set(orbit_members(c13, rep)) == \
        {c13.e2_embed(c13.one), c13.e2_embed(c13.minus_one)}
    rep = _rep_of_tau(c13, c13.minus_one)
    members = orbit_members(c13, rep)
    assert len(members) == 2
    for v in members:
        assert c13.e2_mul(v, v) == c13.e2_embed(c13.minus_one)
    # tau = -3/4 over F_7 is the orbit of the primitive cube roots
    c7 = field(7)
    tau = c7.neg(c7.div(c7.from_int(3), c7.from_int(4)))
    assert tau == 1
    rep = _rep_of_tau(c7, tau)
    orders = sorted(_order(c7, v) for v in orbit_members(c7, rep))
    assert orders == [3, 3, 6, 6]


def _order(ctx, v):
    one = ctx.e2_embed(ctx.one)
    w, k = v, 1
    while w != one:
        w = ctx.e2_mul(w, v)
        k += 1
    return k


def test_orbit_size_four_unless_fourth_root():
    for ctx in small_ctxs()[:8]:
        reps = e2_pairs(orbit_of_tau(ctx, np.arange(ctx.q)))
        for tau, rep in enumerate(reps):
            size = len(orbit_members(ctx, rep))
            if tau in (0, ctx.minus_one):
                assert size == 2
            else:
                assert size == 4


def test_bijection_small():
    # the array forms list the scalar walk's representatives, in key order,
    # and the round trip from every tau gives back the orbit that maps to it
    for ctx in small_ctxs():
        orbits = all_orbits(ctx)
        assert e2_pairs(orbits) == all_orbits_reference(ctx), ctx.q
        taus = tau_of_orbit(ctx, orbits)
        assert sorted(taus.tolist()) == list(range(ctx.q))
        by_tau = dict(zip(taus.tolist(), e2_pairs(orbits)))
        back = e2_pairs(orbit_of_tau(ctx, np.arange(ctx.q)))
        assert back == [by_tau[tau] for tau in range(ctx.q)], ctx.q


def test_classify_every_enumerated_orbit():
    # the square classes of tau, (0, 0) exactly at tau in {0, -1}, and the
    # order of v agrees with them on every orbit
    for ctx in small_ctxs():
        orbits = all_orbits(ctx)
        taus = tau_of_orbit(ctx, orbits)
        a, b, agrees = classify_tau(ctx, taus, orbits)
        assert agrees.all(), ctx.q
        for tau, got in zip(taus.tolist(), zip(a.tolist(), b.tolist())):
            want = (0, 0) if tau in (0, ctx.minus_one) else \
                (ctx.legendre(tau), ctx.legendre(ctx.add(tau, ctx.one)))
            assert got == want, (ctx.q, tau)


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3)])
def test_suite_rows_equal_the_scalar_reference(p, n):
    # the array pass gives the rows of the scalar walk byte for byte
    got = list(sweeps.suite_correspondence(field(p, n)))
    want = correspondence_rows_reference(field(p, n))
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(3, 4), (5, 3)])
def test_suite_keeps_every_ok_flag_under_faults(p, n):
    # under every fault each row passes or fails as in the scalar walk; the
    # texts of failed rows may differ, as the array pass reports the first
    # failure of the first step that fails, not of the first tau
    for name, fault in field_faults(p ** n):
        flags = []
        for rows in (lambda c: list(sweeps.suite_correspondence(c)),
                     correspondence_rows_reference):
            ctx = mk_field(p, n)
            fault(ctx)
            flags.append([(r["case"], r["ok"]) for r in rows(ctx)])
        assert flags[0] == flags[1], (p ** n, name)


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3)])
def test_square_roots_are_the_canonical_roots(p, n):
    # the roots that roots_of_unity_union takes, sqrt_canonical on an array,
    # read no character: with chi negated at every element they are still
    # the sound field's canonical roots (-1 where the scalar call gives None)
    want = [-1 if r is None else r for r in map(field(p, n).sqrt_canonical, range(p ** n))]
    ctx = mk_field(p, n)
    chi = ctx.tables().chi
    chi[:] = [-c for c in chi]
    assert ctx.sqrt_canonical(np.arange(ctx.q)).tolist() == want


@pytest.mark.parametrize("p, n", [(13, 1), (3, 2), (3, 3)])
def test_correspondence_suite_is_one_array_pass(monkeypatch, p, n):
    # one call per field of each span target, and no scalar square root in
    # F_{q^2} or in F_q: those run on arrays only
    calls = {name: 0 for name in ("all_orbits", "orbit_of_tau", "classify_tau",
                                  "e2_sqrt", "sqrt_canonical")}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            arg = args[1] if owner is FieldCtx else None
            if not isinstance(getattr(arg, "lo", arg), np.ndarray):
                calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("all_orbits", "orbit_of_tau", "classify_tau"):
        counted(correspondence, name)
    for name in ("e2_sqrt", "sqrt_canonical"):
        counted(FieldCtx, name)
    rows = list(sweeps.suite_correspondence(field(p, n)))
    assert all(r["ok"] for r in rows), rows
    assert calls == {"all_orbits": 1, "orbit_of_tau": 1, "classify_tau": 1,
                     "e2_sqrt": 0, "sqrt_canonical": 0}


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3)])
def test_orbit_leaving_the_union_fails_rows_never_raises(monkeypatch, p, n):
    # the inverse of the array path returns 0, which lies in no group of
    # roots of unity and has the least key: every orbit then leaves the union
    monkeypatch.setattr(correspondence, "_inverse", lambda ctx, v: Ext2Elem(
        np.zeros_like(v.lo), np.zeros_like(v.hi)))
    with pytest.raises(IdentityFailure, match="an orbit leaves the groups"):
        all_orbits(mk_field(p, n))
    rows = sweeps.run_field(p, n, ("correspondence",))
    assert rows[0]["case"] == "orbit-count" and not rows[0]["ok"], rows[0]
    assert "an orbit leaves the groups" in rows[0]["actual"], rows[0]


def test_roots_of_unity_union_matches_generator_steps():
    for ctx in small_ctxs():
        union = e2_pairs(roots_of_unity_union(ctx))
        assert union == stepped_roots_of_unity_union(ctx), ctx.q
        assert union == roots_of_unity_union_reference(ctx), ctx.q


def test_norm_and_conjugate_give_the_unit_powers():
    # v^q = conj(v): v^(q+1) = N(v), v^(q-1) = conj(v)/v, and the doubled
    # exponents are their squares; all eight (e, target) pairs against
    # square-and-multiply, on every v of the union
    for ctx in small_ctxs():
        q = ctx.q
        union = roots_of_unity_union(ctx)
        for e in (q + 1, q - 1):
            for b in (1, -1):
                got = unit_power_is(ctx, union, e, np.full(len(union.lo), b)).tolist()
                assert got == [unit_order_test(ctx, v, e, b) for v in e2_pairs(union)]
        for v in e2_pairs(union):
            conj_ratio = e2_div(ctx, Ext2Elem(v.lo, ctx.neg(v.hi)), v)
            powers = {q + 1: ctx.e2_embed(ctx.e2_norm(v)), q - 1: conj_ratio}
            for e, w in powers.items():
                for b in (1, -1):
                    want = unit_order_test(ctx, v, e, b)
                    assert (w == ctx.e2_embed(ctx.from_int(b))) == want
                    assert (ctx.e2_mul(w, w) == ctx.e2_embed(ctx.from_int(b))) == \
                        unit_order_test(ctx, v, 2 * e, b), (q, v, 2 * e, b)


def test_unit_power_is_rejects_other_exponents():
    ctx = field(7)
    with pytest.raises(ValueError):
        unit_power_is(ctx, e2_array([ctx.e2_embed(ctx.one)]), 2 * (ctx.q + 1), 1)


def test_membership_is_the_generator_union():
    # over all of F_{q^2}: tau_of_orbit takes the stepped union at once and
    # rejects each other element with ValueError, as does the scalar test
    for ctx in small_ctxs()[:8] + [field(3, 2)]:
        union = stepped_roots_of_unity_union(ctx)
        tau_of_orbit(ctx, e2_array(union))
        for lo in range(ctx.q):
            for hi in range(ctx.q):
                v = Ext2Elem(lo, hi)
                assert in_unit_groups_reference(ctx, v) == (v in union), (ctx.q, v)
                if v not in union:
                    with pytest.raises(ValueError):
                        tau_of_orbit(ctx, e2_array([v]))


def test_ext2_generator_pinned():
    # the first generator in (lo, hi) code order, hi != 0
    assert ext2_generator(field(5)) == (1, 2)
    assert ext2_generator(field(3, 2)) == (1, 3)
    assert ext2_generator(field(13)) == (1, 2)


def test_classification_examples():
    # both squares -> v in F_q (v^(q-1) = 1); (0, 0) at tau in {0, -1}
    for ctx in small_ctxs()[:8]:
        taus = np.arange(ctx.q)
        reps = orbit_of_tau(ctx, taus)
        a, b, agrees = classify_tau(ctx, taus, reps)
        assert agrees.all(), ctx.q
        for tau, v in enumerate(e2_pairs(reps)):
            if tau in (0, ctx.minus_one):
                assert (a[tau], b[tau]) == (0, 0)
            elif (a[tau], b[tau]) == (1, 1):
                assert unit_order_test(ctx, v, ctx.q - 1, 1)


def test_classify_minus_half():
    # tau = -1/2 comes from a primitive eighth root; classes follow
    # chi(-2), chi(2)
    for q in (11, 19, 17, 23):
        ctx = field(q)
        tau = np.array([ctx.neg(ctx.inv(ctx.from_int(2)))])
        a, b, agrees = classify_tau(ctx, tau, orbit_of_tau(ctx, tau))
        assert agrees.all()
        assert (a[0], b[0]) == (ctx.legendre(ctx.from_int(-2)),
                                ctx.legendre(ctx.from_int(2)))


def test_set_descriptions_via_units():
    # A_{0,1} and A_{-2,2} as images of the unit circle conditions
    for ctx in [field(5), field(7), field(13), field(3, 2)]:
        union = e2_pairs(roots_of_unity_union(ctx))
        one2 = ctx.e2_embed(ctx.one)
        quarter = ctx.e2_embed(ctx.inv(ctx.from_int(4)))
        for sp in SIGN_PAIRS:
            a01, a22 = set(), set()
            for v in union:
                if e2_pow(ctx, v, 4) == one2:
                    continue
                if not unit_order_test(ctx, v, ctx.q - sp.e1 * sp.e2, sp.e2):
                    continue
                d = ctx.e2_sub(v, e2_inv(ctx, v))
                a01.add(e2_project(ctx, ctx.e2_mul(ctx.e2_mul(d, d), quarter)))
                v2 = ctx.e2_mul(v, v)
                a22.add(e2_project(ctx, ctx.e2_add(v2, e2_inv(ctx, v2))))
            assert a01 == set(enumerate_family(ctx, a_family(0, 1, sp)))
            two = ctx.from_int(2)
            assert a22 == set(enumerate_family(ctx, a_family(ctx.neg(two), two, sp)))


def test_orbit_count_examples():
    assert orbit_count_card(field(13), 1, 1) == 2
    assert orbit_count_card(field(13), 1, -1) == 3
    assert orbit_count_card(field(7), -1, -1) == 1
    assert len(enumerate_family(field(7), a_family(0, 1, (-1, -1)))) == 1


def test_orbit_count_matches_closed_cards():
    for ctx in small_ctxs():
        for sp in SIGN_PAIRS:
            assert orbit_count_card(ctx, sp.e1, sp.e2) == \
                card_closed(ctx, a_family(0, 1, sp))


@pytest.mark.parametrize("e1, e2", [(0, 1), (1, 2)])
def test_orbit_count_rejects_signs_other_than_plus_minus_one(e1, e2):
    # one bad sign for each half of the guard; without it the count is no
    # whole number of orbits, an IdentityFailure and not this ValueError
    with pytest.raises(ValueError, match="signs must be"):
        orbit_count_card(field(13), e1, e2)


def test_vw_relation_exists():
    # w = (2 + i(v - 1/v))/(v + 1/v) has w^2 in the orbit of the unit u
    # with <u> = r, for some branch pair (existential over the choices
    # of v within its orbit and of the square root i of -1)
    from charprod.closedform import normalized_frame

    for ctx in [field(5), field(7), field(11), field(13), field(3, 2)]:
        for tau in range(1, ctx.q):
            if tau == ctx.minus_one:
                continue
            frame = normalized_frame(ctx, tau)
            u_orbit = orbit_members(ctx, ext2_solve_unit(ctx, frame.r))
            v = _rep_of_tau(ctx, tau)
            i2 = ctx.e2_sqrt(ctx.minus_one)
            witnesses = []
            for vv in orbit_members(ctx, v):
                dv = ctx.e2_sub(vv, e2_inv(ctx, vv))
                sv = ctx.e2_add(vv, e2_inv(ctx, vv))
                for ii in (i2, ctx.e2_neg(i2)):
                    num = ctx.e2_add(ctx.e2_embed(ctx.from_int(2)),
                                     ctx.e2_mul(ii, dv))
                    try:
                        w = e2_div(ctx, num, sv)
                    except ZeroDivisionError:
                        continue
                    if ctx.e2_mul(w, w) in u_orbit:
                        witnesses.append((vv, ii))
            assert witnesses, (ctx.q, tau)


def test_all_square_class_power_is_mu():
    # for tau with both classes +1: u^m = mu, the class of 1 +- 1/sqrt(tau+1)
    for ctx in small_ctxs():
        from charprod.closedform import normalized_frame

        for tau in range(1, ctx.q):
            if tau == ctx.minus_one:
                continue
            if ctx.legendre(tau) != 1 or ctx.legendre(ctx.add(tau, ctx.one)) != 1:
                continue
            frame = normalized_frame(ctx, tau)
            u = ext2_solve_unit(ctx, frame.r)
            # mu via 1 + 1/c' with c' a root of 1 + 1/tau
            c_pr = ctx.sqrt_canonical(ctx.add(ctx.one, ctx.inv(tau)))
            mu = ctx.legendre(ctx.add(ctx.one, ctx.inv(c_pr)))
            assert unit_order_test(ctx, u, ctx.m, mu), (ctx.q, tau)
