import pytest

from charprod import correspondence, sweeps
from charprod.charsets import SIGN_PAIRS, a_family, card_closed, enumerate_family
from charprod.correspondence import (all_orbits, classify_tau, in_unit_groups,
                                     orbit_count_card, orbit_members,
                                     orbit_of_tau, roots_of_unity_union,
                                     tau_of_orbit, unit_power_is)
from charprod.ffield import Ext2Elem, IdentityFailure, mk_field
from helpers import (e2_div, e2_pow, ext2_generator, ext2_solve_unit, field,
                     small_ctxs, stepped_roots_of_unity_union, unit_of_order,
                     unit_order_test)


def test_tau_examples():
    for ctx in [field(7), field(13), field(3, 2)]:
        one = ctx.e2_embed(ctx.one)
        assert tau_of_orbit(ctx, one) == 0
        # primitive eighth root -> tau = -1/2
        zeta = unit_of_order(ctx, 8)
        want = ctx.neg(ctx.inv(ctx.from_int(2)))
        assert tau_of_orbit(ctx, zeta) == want
        # primitive cube root -> tau = -3/4
        if ctx.p != 3:
            omega = unit_of_order(ctx, 3)
            want = ctx.neg(ctx.div(ctx.from_int(3), ctx.from_int(4)))
            assert tau_of_orbit(ctx, omega) == want


def test_tau_of_orbit_rejects_foreign_units():
    # an element of order q^2 - 1 is in neither mu_{2q-2} nor mu_{2q+2}
    ctx = field(7)
    with pytest.raises(ValueError):
        tau_of_orbit(ctx, ext2_generator(ctx))


def test_orbit_of_tau_examples():
    c13 = field(13)
    rep = orbit_of_tau(c13, 0)
    assert set(orbit_members(c13, rep)) == \
        {c13.e2_embed(c13.one), c13.e2_embed(c13.minus_one)}
    rep = orbit_of_tau(c13, c13.minus_one)
    members = orbit_members(c13, rep)
    assert len(members) == 2
    for v in members:
        assert c13.e2_mul(v, v) == c13.e2_embed(c13.minus_one)
    # tau = -3/4 over F_7 is the orbit of the primitive cube roots
    c7 = field(7)
    tau = c7.neg(c7.div(c7.from_int(3), c7.from_int(4)))
    assert tau == 1
    rep = orbit_of_tau(c7, tau)
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
        for tau in range(ctx.q):
            rep = orbit_of_tau(ctx, tau)
            size = len(orbit_members(ctx, rep))
            if tau in (0, ctx.minus_one):
                assert size == 2
            else:
                assert size == 4


def test_bijection_small():
    for ctx in small_ctxs():
        orbits = all_orbits(ctx)
        assert len(orbits) == ctx.q
        taus = sorted(tau_of_orbit(ctx, o) for o in orbits)
        assert taus == list(range(ctx.q))
        by_tau = {tau_of_orbit(ctx, o): o for o in orbits}
        for tau in range(ctx.q):
            assert orbit_of_tau(ctx, tau) == by_tau[tau]


def test_classify_every_enumerated_orbit():
    # the square classes of tau, None exactly at tau in {0, -1}
    for ctx in small_ctxs():
        for v in all_orbits(ctx):
            tau = tau_of_orbit(ctx, v)
            want = None if tau in (0, ctx.minus_one) else \
                (ctx.legendre(tau), ctx.legendre(ctx.add(tau, ctx.one)))
            assert classify_tau(ctx, tau, v) == want, (ctx.q, v)


@pytest.mark.parametrize("p, n", [(13, 1), (3, 2)])
def test_correspondence_suite_builds_each_orbit_from_tau_once(monkeypatch, p, n):
    # the round trip builds each tau's orbit; the classification reads the
    # enumerated orbits and builds none.  tau is computed 2q times: once
    # per orbit in the image, once per tau in the round trip's own check,
    # and never again by the classification
    calls, tau_calls = [], []

    def counted(ctx, tau):
        calls.append(tau)
        return orbit_of_tau(ctx, tau)

    def counted_tau(ctx, v):
        tau_calls.append(v)
        return tau_of_orbit(ctx, v)

    monkeypatch.setattr(correspondence, "orbit_of_tau", counted)
    monkeypatch.setattr(correspondence, "tau_of_orbit", counted_tau)
    ctx = field(p, n)
    rows = list(sweeps.suite_correspondence(ctx))
    assert all(r["ok"] for r in rows), rows
    assert sorted(calls) == list(range(ctx.q))
    assert len(tau_calls) == 2 * ctx.q


def test_all_orbits_builds_each_orbit_once(monkeypatch):
    # the walk builds the orbit of each representative and of nothing else:
    # q orbit_members calls, one per orbit, on the representatives in order
    calls = []

    def counted(ctx, v):
        calls.append(v)
        return orbit_members(ctx, v)

    monkeypatch.setattr(correspondence, "orbit_members", counted)
    for ctx in small_ctxs():
        calls.clear()
        orbits = all_orbits(ctx)
        assert len(calls) == len(orbits) == ctx.q, ctx.q
        assert calls == orbits, ctx.q


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3)])
def test_orbit_leaving_the_union_fails_rows_never_raises(monkeypatch, p, n):
    # e2_inv of one context returns 0, which lies in no group of roots of
    # unity and has the least key: every orbit then leaves the union
    def corrupted(p, n=1):
        ctx = mk_field(p, n)
        monkeypatch.setattr(ctx, "e2_inv", lambda v: Ext2Elem(0, 0))
        return ctx

    with pytest.raises(IdentityFailure, match="an orbit leaves the groups"):
        all_orbits(corrupted(p, n))
    monkeypatch.setattr(sweeps, "mk_field", corrupted)
    rows = sweeps.run_field(p, n, ("correspondence",))
    assert rows[0]["case"] == "orbit-count" and not rows[0]["ok"], rows[0]
    assert "an orbit leaves the groups" in rows[0]["actual"], rows[0]


def test_roots_of_unity_union_matches_generator_steps():
    for ctx in small_ctxs():
        assert roots_of_unity_union(ctx) == stepped_roots_of_unity_union(ctx), ctx.q


def test_norm_and_conjugate_give_the_unit_powers():
    # v^q = conj(v): v^(q+1) = N(v), v^(q-1) = conj(v)/v, and the doubled
    # exponents are their squares; all eight (e, target) pairs against
    # square-and-multiply, on every v of the union
    for ctx in small_ctxs():
        q = ctx.q
        for v in roots_of_unity_union(ctx):
            conj_ratio = e2_div(ctx, Ext2Elem(v.lo, ctx.neg(v.hi)), v)
            powers = {q + 1: ctx.e2_embed(ctx.e2_norm(v)), q - 1: conj_ratio}
            for e, w in powers.items():
                for b in (1, -1):
                    want = unit_order_test(ctx, v, e, b)
                    assert unit_power_is(ctx, v, e, b) == want, (q, v, e, b)
                    assert (w == ctx.e2_embed(ctx.from_int(b))) == want
                    assert (ctx.e2_mul(w, w) == ctx.e2_embed(ctx.from_int(b))) == \
                        unit_order_test(ctx, v, 2 * e, b), (q, v, 2 * e, b)


def test_unit_power_is_rejects_other_exponents():
    ctx = field(7)
    with pytest.raises(ValueError):
        unit_power_is(ctx, ctx.e2_embed(ctx.one), 2 * (ctx.q + 1), 1)


def test_membership_is_the_generator_union():
    # over all of F_{q^2}: in_unit_groups holds exactly on the stepped
    # union, and tau_of_orbit rejects everything else with ValueError
    for ctx in small_ctxs()[:8] + [field(3, 2)]:
        union = set(stepped_roots_of_unity_union(ctx))
        for lo in range(ctx.q):
            for hi in range(ctx.q):
                v = Ext2Elem(lo, hi)
                assert in_unit_groups(ctx, v) == (v in union), (ctx.q, v)
                if v not in union:
                    with pytest.raises(ValueError):
                        tau_of_orbit(ctx, v)


def test_ext2_generator_pinned():
    # the first generator in canonical (lo, hi) order, hi != 0
    assert ext2_generator(field(5)) == (1, 2)
    assert ext2_generator(field(3, 2)) == (3, 1)
    assert ext2_generator(field(13)) == (1, 2)


def test_classification_examples():
    # both squares -> v in F_q (v^(q-1) = 1)
    for ctx in small_ctxs()[:8]:
        for tau in range(1, ctx.q):
            if tau == ctx.minus_one:
                continue
            v = orbit_of_tau(ctx, tau)
            cls = classify_tau(ctx, tau, v)
            if cls == (1, 1):
                assert unit_order_test(ctx, v, ctx.q - 1, 1)
        for tau in (0, ctx.minus_one):
            assert classify_tau(ctx, tau, orbit_of_tau(ctx, tau)) is None


def test_classify_minus_half():
    # tau = -1/2 comes from a primitive eighth root; classes follow
    # chi(-2), chi(2)
    for q in (11, 19, 17, 23):
        ctx = field(q)
        tau = ctx.neg(ctx.inv(ctx.from_int(2)))
        cls = classify_tau(ctx, tau, orbit_of_tau(ctx, tau))
        assert cls == (ctx.legendre(ctx.from_int(-2)),
                       ctx.legendre(ctx.from_int(2)))


def test_set_descriptions_via_units():
    # A_{0,1} and A_{-2,2} as images of the unit circle conditions
    for ctx in [field(5), field(7), field(13), field(3, 2)]:
        union = roots_of_unity_union(ctx)
        one2 = ctx.e2_embed(ctx.one)
        quarter = ctx.e2_embed(ctx.inv(ctx.from_int(4)))
        for sp in SIGN_PAIRS:
            a01, a22 = set(), set()
            for v in union:
                if e2_pow(ctx, v, 4) == one2:
                    continue
                if not unit_order_test(ctx, v, ctx.q - sp.e1 * sp.e2, sp.e2):
                    continue
                d = ctx.e2_sub(v, ctx.e2_inv(v))
                a01.add(ctx.e2_project(ctx.e2_mul(ctx.e2_mul(d, d), quarter)))
                v2 = ctx.e2_mul(v, v)
                a22.add(ctx.e2_project(ctx.e2_add(v2, ctx.e2_inv(v2))))
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
            v = orbit_of_tau(ctx, tau)
            i2 = ctx.e2_sqrt(ctx.minus_one)
            witnesses = []
            for vv in orbit_members(ctx, v):
                dv = ctx.e2_sub(vv, ctx.e2_inv(vv))
                sv = ctx.e2_add(vv, ctx.e2_inv(vv))
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
