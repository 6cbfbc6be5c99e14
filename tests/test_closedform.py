import gc
import itertools
import random
import weakref

import pytest

from charprod import charsets, cli, closedform, sweeps
from charprod.charsets import (SIGN_PAIRS, SignPair, a_family, brute_product,
                               card_closed, s1_family, s_family, t_family)
from charprod.closedform import (INF, all_square_class, closed_product,
                                 det_sqrt, mixed_class_root, normalized_frame,
                                 prod_S_single, prod_T_values,
                                 quadruple_from_one, rescale_T, swap_T)
from charprod.ffield import IdentityFailure, mk_field
from helpers import (SMALL_FIELDS, det_root_ext2, e2_div, e2_inv, e2_pow,
                     ext2_solve_unit, field, field_faults, named_ratio_row,
                     rescale_T_reference, sampled_faults, small_ctxs)


# ---------------------------------------------------------------------------
# single-condition products
# ---------------------------------------------------------------------------

def test_prod_S_single_examples():
    assert prod_S_single(field(13), 0, 1) == 12
    assert prod_S_single(field(7), 1, 1) == 3
    assert prod_S_single(field(13), 1, 1) == 7


def test_prod_S_single_all_small():
    for ctx in small_ctxs():
        for k in range(ctx.q):
            for s in (1, -1):
                assert prod_S_single(ctx, k, s) == \
                    brute_product(ctx, s1_family(k, s)).value


# ---------------------------------------------------------------------------
# relation solver
# ---------------------------------------------------------------------------

def test_quadruple_example_q13():
    quad = quadruple_from_one(field(13), 0, 4, (SignPair(1, 1), 3))
    assert quad == {SignPair(1, 1): 3, SignPair(1, -1): 12,
                    SignPair(-1, 1): 6, SignPair(-1, -1): 11}


def test_quadruple_degenerate_l_zero():
    c7 = field(7)
    seed = brute_product(c7, s_family(c7.neg(4), 0, (-1, -1))).value
    quad = quadruple_from_one(c7, c7.neg(4), 0, (SignPair(-1, -1), seed))
    for sp in SIGN_PAIRS:
        assert quad[sp] == brute_product(c7, s_family(c7.neg(4), 0, sp)).value


def test_quadruple_random_seeds():
    rng = random.Random(12)
    for ctx in small_ctxs():
        for _ in range(8):
            k, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
            if k == l:
                continue
            want = {sp: brute_product(ctx, s_family(k, l, sp)).value
                    for sp in SIGN_PAIRS}
            for seed_sp in SIGN_PAIRS:
                assert quadruple_from_one(ctx, k, l, (seed_sp, want[seed_sp])) == want


def test_quadruple_rejects_equal_params():
    with pytest.raises(ValueError):
        quadruple_from_one(field(7), 3, 3, (SignPair(1, 1), 1))
    with pytest.raises(ValueError):  # no sign pair: not on the chain of relations
        quadruple_from_one(field(7), 3, 4, (SignPair(1, 0), 1))


# ---------------------------------------------------------------------------
# normalization frames
# ---------------------------------------------------------------------------

def test_frame_examples():
    f = normalized_frame(field(13), 0)
    assert (f.j, f.l, f.r) == (0, 4, 2)
    f = normalized_frame(field(7), INF)
    c7 = field(7)
    assert (f.j, f.l, f.r) == (4, 0, c7.from_int(-2))
    f = normalized_frame(c7, 5)
    assert (f.j, f.l, f.r) == (1, 3, 1)


def test_frame_relations_all_tau():
    for ctx in small_ctxs():
        four = ctx.from_int(4)
        for tau in [INF] + [t for t in range(ctx.q) if t != ctx.minus_one]:
            f = normalized_frame(ctx, tau)
            assert ctx.add(f.j, f.l) == four
            assert f.r == ctx.sub(f.l, ctx.from_int(2))


def test_frame_carries_square_class():
    # cls is (chi(tau), chi(tau+1)); None at inf and (0, 1) at tau = 0
    for ctx in small_ctxs():
        assert normalized_frame(ctx, INF).cls is None
        assert normalized_frame(ctx, 0).cls == (0, 1)
        for tau in range(1, ctx.q):
            if tau != ctx.minus_one:
                assert normalized_frame(ctx, tau).cls == \
                    (ctx.legendre(tau), ctx.legendre(ctx.add(tau, ctx.one)))


def test_frame_rejects_minus_one():
    with pytest.raises(ValueError):
        normalized_frame(field(13), 12)
    with pytest.raises(ValueError):
        prod_T_values(field(13), 5, 5)  # j + l = 10 != 4


# ---------------------------------------------------------------------------
# deterministic square roots
# ---------------------------------------------------------------------------

def test_det_sqrt_examples_q7():
    c7 = field(7)
    r3 = det_sqrt(c7, normalized_frame(c7, 5))
    assert r3 == 6  # <u^2> with u = 3, and 6^2 = 1 = j
    r2 = det_sqrt(c7, normalized_frame(c7, 3))
    assert r2 == 6  # <4> = 4 + 2, and 6^2 = 1 = l
    fr = normalized_frame(c7, 2)
    r1 = det_sqrt(c7, fr)
    assert r1 == 4
    assert mixed_class_root(c7, fr) == 3  # 3^2 = 2 = tau, and chi(2) = 1


def test_det_sqrt_case_mismatch():
    c7 = field(7)
    # tau = 1 is all-square at q = 7; 0 and inf are in no class
    for tau in (1, 0, INF):
        with pytest.raises(ValueError):
            det_sqrt(c7, normalized_frame(c7, tau))
        with pytest.raises(ValueError):
            mixed_class_root(c7, normalized_frame(c7, tau))
    for tau in (2, 0, INF):
        with pytest.raises(ValueError):
            all_square_class(c7, normalized_frame(c7, tau))


def test_det_sqrt_named_roots_square_correctly():
    for ctx in small_ctxs():
        for tau in range(1, ctx.q):
            if tau == ctx.minus_one:
                continue
            cls = (ctx.legendre(tau), ctx.legendre(ctx.add(tau, ctx.one)))
            case = {(1, -1): "a1", (-1, 1): "a2", (-1, -1): "a3"}.get(cls)
            if case is None:
                continue
            frame = normalized_frame(ctx, tau)
            det_sqrt(ctx, frame)  # raises unless it squares correctly
            c = mixed_class_root(ctx, frame)
            if case == "a1":
                assert ctx.mul(c, c) == tau
            elif case == "a2":
                assert ctx.mul(c, c) == ctx.add(tau, ctx.one)
            else:
                assert ctx.mul(c, c) == ctx.div(tau, ctx.add(tau, ctx.one))


def test_det_sqrt_reciprocal_invariance():
    # the F_q ladder value equals the F_{q^2} one for either root u, 1/u
    # of u + 1/u = r, so the choice of u does not matter
    for ctx in small_ctxs():
        for tau in range(1, ctx.q):
            if tau == ctx.minus_one:
                continue
            cls = (ctx.legendre(tau), ctx.legendre(ctx.add(tau, ctx.one)))
            case = {(1, -1): "a1", (-1, 1): "a2", (-1, -1): "a3"}.get(cls)
            if case is None:
                continue
            frame = normalized_frame(ctx, tau)
            u = ext2_solve_unit(ctx, frame.r)
            got = det_sqrt(ctx, frame)
            assert got == det_root_ext2(ctx, case, u), (ctx.q, tau)
            assert got == det_root_ext2(ctx, case, e2_inv(ctx, u)), (ctx.q, tau)


# ---------------------------------------------------------------------------
# the main dispatch
# ---------------------------------------------------------------------------

def test_prod_T_closed_examples():
    c7 = field(7)
    assert prod_T_values(c7, 2, 2)[(-1, -1)] == 5
    assert prod_T_values(c7, 0, 4)[(-1, -1)] == 2
    assert prod_T_values(c7, 1, 3)[(-1, -1)] == 6


def test_prod_T_closed_rejects_unnormalized():
    with pytest.raises(ValueError):
        prod_T_values(field(13), 1, 1)[(1, 1)]


def test_master_small_sweep():
    # every tau, every sign pair, against the oracle
    for ctx in small_ctxs():
        for tau in [INF] + [t for t in range(ctx.q) if t != ctx.minus_one]:
            f = normalized_frame(ctx, tau)
            vals = prod_T_values(ctx, f.j, f.l)
            for sp in SIGN_PAIRS:
                want = brute_product(ctx, t_family(f.j, f.l, sp)).value
                assert vals[sp] == want, (ctx.q, tau, sp)


def test_prod_T_values_reads_the_square_class_once(monkeypatch):
    # one (chi(tau), chi(tau + 1)) read per tau off {0, inf}: the frame
    # carries the class, and the rows and root entry points read it there
    from charprod import closedform

    reads = []

    def counted(ctx, tau):
        reads.append(tau)
        return real(ctx, tau)

    real = closedform.square_classes
    monkeypatch.setattr(closedform, "square_classes", counted)
    for ctx in [field(13), field(3, 3)]:
        taus = [t for t in range(1, ctx.q) if t != ctx.minus_one]
        frames = [normalized_frame(ctx, tau) for tau in taus]
        ctx.t_rows.clear()  # rows kept by earlier calls are read, not built
        reads.clear()
        for f in frames:
            prod_T_values(ctx, f.j, f.l)
        assert reads == taus, ctx.q


def test_named_ratio_rows_match_oracle_and_dispatch():
    # the paper's q mod 8 / mod 12 rows at tau = 1, 3, 1/3 are served by
    # the square-class rows; SMALL_FIELDS has every unit residue mod 24
    checked = set()
    for ctx in small_ctxs():
        taus = [ctx.one] if ctx.p == 3 else [ctx.one, ctx.from_int(3),
                                             ctx.inv(ctx.from_int(3))]
        for tau in taus:
            frame = normalized_frame(ctx, tau)
            want = named_ratio_row(ctx, tau)
            assert prod_T_values(ctx, frame.j, frame.l) == want, (ctx.q, tau)
            for sp in SIGN_PAIRS:
                fam = t_family(frame.j, frame.l, sp)
                assert brute_product(ctx, fam).value == want[sp], (ctx.q, tau, sp)
        checked.add(ctx.q % 24)
    assert {1, 5, 7, 11, 13, 17, 19, 23} <= checked


def test_mixed_class_products_square_to_targets():
    # j square / l nonsquare: T^{--} squares to j; j nonsquare / l
    # square: T^{--} squares to l; both nonsquares: T^{+-} squares to j/l
    for ctx in small_ctxs():
        for tau in range(1, ctx.q):
            if tau == ctx.minus_one:
                continue
            frame = normalized_frame(ctx, tau)
            cj, cl = ctx.legendre(frame.j), ctx.legendre(frame.l)
            if (cj, cl) == (1, -1):
                v = prod_T_values(ctx, frame.j, frame.l)[(-1, -1)]
                assert ctx.mul(v, v) == frame.j
            elif (cj, cl) == (-1, 1):
                v = prod_T_values(ctx, frame.j, frame.l)[(-1, -1)]
                assert ctx.mul(v, v) == frame.l
            elif (cj, cl) == (-1, -1):
                v = prod_T_values(ctx, frame.j, frame.l)[(1, -1)]
                assert ctx.mul(v, v) == ctx.div(frame.j, frame.l)


def test_wilson_check_rejects_a_corrupted_row(monkeypatch):
    # one value of the tau = 0 row moved: the four products no longer
    # multiply to 1/l, and the call raises, each time, as nothing is kept
    real = closedform._specific_row

    def corrupted(ctx, frame):
        row = real(ctx, frame)
        row[SignPair(1, 1)] = ctx.add(row[SignPair(1, 1)], ctx.one)
        return row

    monkeypatch.setattr(closedform, "_specific_row", corrupted)
    ctx = mk_field(13)
    for _ in range(2):
        with pytest.raises(IdentityFailure, match="Wilson product of the four"):
            prod_T_values(ctx, 0, 4)


@pytest.mark.parametrize("p, n", SMALL_FIELDS)
def test_kept_rows_give_the_rows_of_rebuilt_ones(monkeypatch, p, n):
    # the tables and rescaling rows, sound and under every fault, are the
    # same when every prod_T_values call builds its row afresh and every
    # rescale_T call its rescaling: each clears what the context keeps for it
    real_values, real_rescale = closedform.prod_T_values, closedform.rescale_T

    def rebuilt(ctx, j, l):
        ctx.t_rows.clear()
        return real_values(ctx, j, l)

    def rescaled_afresh(ctx, j_prime, l_prime, signs):
        ctx.rescaled = (None, None)
        return real_rescale(ctx, j_prime, l_prime, signs)

    for name, fault in field_faults(p ** n):
        runs = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(closedform, "prod_T_values", rebuilt)
                monkeypatch.setattr(closedform, "rescale_T", rescaled_afresh)
            ctx = mk_field(p, n)
            fault(ctx)
            runs.append([*sweeps.suite_tables(ctx), *sweeps.suite_rescaling(ctx)])
        monkeypatch.undo()
        assert runs[0] == runs[1], (p ** n, name)


def test_kept_row_is_copied_and_holds_no_context():
    # a row read from the context's rows, kept by the array pass or by a
    # scalar build (tau = 0), is returned as a copy; the kept rows are int
    # tuples, and the context is freed together with them
    ctx = mk_field(13)
    closedform.prod_T_table(ctx)
    for j, l in ((1, 3), (0, 4)):
        first = prod_T_values(ctx, j, l)
        want = dict(first)
        first[SignPair(1, 1)] = 0
        assert prod_T_values(ctx, j, l) == want
        assert ctx.t_rows[l] == tuple(want[sp] for sp in SIGN_PAIRS)
    assert rescale_T(ctx, 2, 5, (1, -1)) == brute_product(ctx, t_family(2, 5, (1, -1))).value
    assert ctx.rescaled[0] == (2, 5)
    assert all(type(x) is int for row in ctx.t_rows.values() for x in row)
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(97, 1), (257, 1), (3, 4), (13, 3), (4093, 1)])
def test_table_rows_are_the_scalar_rows(p, n):
    # every row the array pass keeps is the row that prod_T_values builds as
    # a scalar on a cleared table: the pass keeps the row of every tau but
    # 0, -1 and inf on the sound field, and under each fault either none or
    # only rows whose scalar build passes and agrees; 97, 257 and 3^4 have
    # v2(q - 1) = 5, 8 and 4, where delta drives Tonelli-Shanks' steps
    for name, fault in sampled_faults(p ** n):
        ctx = mk_field(p, n)
        fault(ctx)
        closedform.prod_T_table(ctx)
        kept = dict(ctx.t_rows)
        if name == "sound":
            assert set(kept) == set(range(1, ctx.q)) - {ctx.from_int(4)}, p ** n
        for l, row in kept.items():
            ctx.t_rows.clear()
            scalar = prod_T_values(ctx, ctx.sub(ctx.from_int(4), l), l)
            assert scalar == dict(zip(SIGN_PAIRS, row)), (p ** n, name, l)


@pytest.mark.parametrize("p, n", SMALL_FIELDS + [(13, 3), (4093, 1)])
def test_tables_suite_builds_scalar_rows_only_at_zero_and_inf(monkeypatch, p, n):
    # on a sound field the pass keeps every other row, so a silent fall
    # back to scalar rows, correct but slow, fails here
    scalar = []
    for name in ("_all_square_row", "_mixed_class_row", "_specific_row"):
        def counted(ctx, frame, real=getattr(closedform, name)):
            if not hasattr(frame.tau, "shape"):
                scalar.append(frame.tau)
            return real(ctx, frame)

        monkeypatch.setattr(closedform, name, counted)
    rows = sweeps.run_field(p, n, ("tables",))
    assert rows and all(r["ok"] for r in rows), p ** n
    assert scalar == [INF, 0], p ** n


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3), (5, 2)])
def test_tables_suite_makes_each_code_text_once(monkeypatch, p, n):
    # the suite makes the text of every code once, and of every finite tau
    # once for its cases: 2q - 1 elem_str calls, not two per row more
    from charprod.ffield import FieldCtx

    calls = []
    real = FieldCtx.elem_str

    def counted(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(FieldCtx, "elem_str", counted)
    ctx = mk_field(p, n)
    ctx.tables()
    calls.clear()
    rows = list(sweeps.suite_tables(ctx))
    assert len(rows) == 4 * ctx.q and all(r["ok"] for r in rows)
    assert len(calls) == 2 * ctx.q - 1, (ctx.q, len(calls))


def test_one_off_calls_run_no_array_pass(monkeypatch, capsys):
    # only the tables suite builds the table; rescaling, reciprocity, intro
    # and eval build the rows they ask for, and no frame of q taus
    passes = []
    real = closedform.normalized_frame

    def frame(ctx, tau):
        if hasattr(tau, "shape"):
            passes.append(len(tau))
        return real(ctx, tau)

    monkeypatch.setattr(closedform, "normalized_frame", frame)
    for p, n in ((13, 1), (3, 3)):
        rows = sweeps.run_field(p, n, ("rescaling", "reciprocity", "intro"))
        assert rows and all(r["ok"] for r in rows), p ** n
    assert cli.main(["eval", "T 1 3 --", "--p", "13"]) == 0
    assert cli.main(["eval", "S 1 4 -+", "--p", "13"]) == 0
    assert passes == []
    sweeps.run_field(13, 1, ("tables",))
    assert passes == [11]


def test_rescale_examples():
    c7 = field(7)
    # lambda = 1 reduces to the normalized dispatch
    assert rescale_T(c7, 0, 4, (-1, -1)) == prod_T_values(c7, 0, 4)[(-1, -1)]
    assert rescale_T(c7, 4, 4, (-1, -1)) == 6
    assert brute_product(c7, t_family(4, 4, (-1, -1))).value == 6


def test_rescale_random_sweep():
    rng = random.Random(13)
    for ctx in small_ctxs():
        for _ in range(20):
            jp, lp = rng.randrange(ctx.q), rng.randrange(ctx.q)
            if ctx.add(jp, lp) == 0:
                continue
            for sp in SIGN_PAIRS:
                assert rescale_T(ctx, jp, lp, sp) == \
                    brute_product(ctx, t_family(jp, lp, sp)).value


def test_rescale_rejects_degenerate():
    with pytest.raises(ValueError):
        rescale_T(field(7), 3, 4, (1, 1))


def test_rescale_q3_negative_exponent_edge():
    # m = 1 at q = 3, so lambda's exponent, the closed cardinality
    # |T_{j',l'}^{e1,e2}| of _pair_card, is 0 or 1: the negative exponent
    # cannot occur, as the closed count of every T family of F_3 shows;
    # the oracle confirms each rescaled product
    c3 = field(3)
    for jp in range(3):
        for lp in range(3):
            if c3.add(jp, lp) == 0:
                continue
            for sp in SIGN_PAIRS:
                fam = t_family(jp, lp, sp)
                want = brute_product(c3, fam)
                assert 0 <= card_closed(c3, fam) == want.cardinality, fam
                assert rescale_T(c3, jp, lp, sp) == want.value


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the type and text of what it raises."""
    try:
        return call(*args)
    except (IdentityFailure, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p, n", [(13, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_rescale_T_is_the_full_rescaling_formula(p, n):
    # rescale_T returns at lambda = 1 the table entry as it stands; it gives
    # what the full formula gives, the value or the type and text of the
    # raise, for every sign pair, sound and under every sampled fault.
    # Every pair at 13, 3^2 and 3^3, seeded pairs at 5^2 and 7^2
    q = p ** n
    rng = random.Random(q)
    pairs = list(itertools.product(range(q), repeat=2))
    if q > 27:
        pairs = rng.sample(pairs, 60)
    at_one = set()
    for name, fault in sampled_faults(q):
        ctx = mk_field(p, n)
        fault(ctx)
        for jp, lp in pairs:
            if jp == ctx.neg(lp):
                continue
            at_one.add(ctx.add(jp, lp) == ctx.from_int(4))
            for sp in SIGN_PAIRS:
                assert _outcome(rescale_T, ctx, jp, lp, sp) == \
                    _outcome(rescale_T_reference, ctx, jp, lp, sp), (q, name, jp, lp, sp)
    assert at_one == {True, False}  # pairs at lambda = 1 and at lambda != 1


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3), (5, 2)])
def test_kept_rescaling_is_the_full_rescaling_formula(p, n):
    # the rescaling kept for the last pair is read only by that pair: over
    # interleaved pairs, A, B, A with all four sign pairs each, rescale_T
    # gives what the full formula gives, sound and under every sampled
    # fault; seeded pairs, some at lambda = 1 and some at j' + l' = 0
    q = p ** n
    rng = random.Random(q)
    pairs = rng.sample(list(itertools.product(range(q), repeat=2)), 24) + [(1, 3), (1, p - 1)]
    rng.shuffle(pairs)
    for name, fault in sampled_faults(q):
        ctx = mk_field(p, n)
        fault(ctx)
        for a, b in zip(pairs, pairs[1:]):
            for jp, lp in (a, b, a):
                for sp in SIGN_PAIRS:
                    got = _outcome(rescale_T, ctx, jp, lp, sp)
                    assert got == _outcome(rescale_T_reference, ctx, jp, lp, sp), \
                        (q, name, jp, lp, sp)


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3), (5, 2)])
def test_raising_pair_raises_at_every_call(p, n):
    # a pair that raises, in its rescaling or in its row, keeps nothing: it
    # raises the same again at every call, before and after a pair that
    # returns, and the context keeps the last pair that returned
    q = p ** n
    pairs = random.Random(q).sample(list(itertools.product(range(q), repeat=2)), 40)
    pairs.append((1, p - 1))  # 1 + (-1) = 0
    raised = set()
    for name, fault in sampled_faults(q):
        ctx = mk_field(p, n)
        fault(ctx)
        good = [(pair, sp) for pair in pairs for sp in SIGN_PAIRS
                if not isinstance(_outcome(rescale_T, ctx, *pair, sp), tuple)]
        for pair in pairs:
            for sp in SIGN_PAIRS:
                first = _outcome(rescale_T, ctx, *pair, sp)
                if not isinstance(first, tuple):
                    continue
                raised.add(first[1].split(" at q=")[0])
                for other in good[:2]:
                    rescale_T(ctx, *other[0], other[1])
                    assert ctx.rescaled[0] == other[0]
                    assert _outcome(rescale_T, ctx, *pair, sp) == first, (q, name, pair, sp)
                    assert ctx.rescaled[0] == other[0], (q, name, pair, sp)
    assert "j' + l' must be nonzero" in raised, q
    assert len(raised) > 1, q  # raises of the rows under faults too
    if n > 1:  # a swapped exp breaks the division by lambda itself
        assert "(j' + l')/lambda != 4" in raised, q


def test_tables_suite_rescales_once_per_tau(monkeypatch):
    # the four sign pairs of a tau share one rescaling: at 13, q = 13 of
    # them for the 4q = 52 rescale_T calls, where each call once made its own
    calls = {"rescale_T": 0, "_rescaling": 0}

    def counted(name):
        real = getattr(closedform, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(closedform, name, call)

    counted("rescale_T")
    counted("_rescaling")
    rows = sweeps.run_field(13, 1, ("tables",))
    assert len(rows) == 52 and all(r["ok"] for r in rows)
    assert calls == {"rescale_T": 52, "_rescaling": 13}


@pytest.mark.parametrize("p, n", [(13, 1), (3, 3), (5, 2)])
def test_tables_suite_rescales_without_a_count(monkeypatch, p, n):
    # every tables row has lambda = 1: 4q rescale_T calls and no _pair_card
    calls = {"rescale_T": 0, "_pair_card": 0}

    def counted(module, name):
        real = getattr(module, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, call)

    counted(closedform, "rescale_T")
    counted(closedform, "_pair_card")
    counted(charsets, "_pair_card")
    rows = sweeps.run_field(p, n, ("tables",))
    q = p ** n
    assert len(rows) == 4 * q and all(r["ok"] for r in rows)
    assert calls == {"rescale_T": 4 * q, "_pair_card": 0}, (q, calls)


def test_closed_product_matches_brute_every_family():
    # every A/S/S1/T family on the small fields with q <= 13, including
    # A families that contain 0 (closed value 0) and S1 with k = 0
    a_with_zero = s1_at_zero = 0
    for ctx in small_ctxs():
        if ctx.q > 13:
            continue
        for k in range(ctx.q):
            for e in (1, -1):
                fam = s1_family(k, e)
                assert closed_product(ctx, fam) == brute_product(ctx, fam).value
                s1_at_zero += k == 0
            for l in range(ctx.q):
                for sp in SIGN_PAIRS:
                    fams = [t_family(k, l, sp)] if ctx.add(k, l) != 0 else []
                    if k != l:
                        fams += [a_family(k, l, sp), s_family(k, l, sp)]
                    for fam in fams:
                        want = brute_product(ctx, fam).value
                        assert closed_product(ctx, fam) == want, (ctx.q, fam)
                        a_with_zero += fam.kind == "A" and want == 0
    assert a_with_zero and s1_at_zero
    # eval and table compare the library dispatch itself, not a copy
    from charprod import cli
    assert cli.closed_product is closed_product
    with pytest.raises(ValueError):
        closed_product(field(7), t_family(3, 4, (1, 1)))  # j + l = 0


def test_prod_S_closed_matches_brute():
    rng = random.Random(14)
    for ctx in small_ctxs():
        for _ in range(15):
            k, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
            if k == l:
                continue
            for sp in SIGN_PAIRS:
                fam = s_family(k, l, sp)
                assert closed_product(ctx, fam) == brute_product(ctx, fam).value


def test_swap_examples():
    assert swap_T(field(5), 1, 3, -1) == 1
    # swapping a symmetric pair is the identity
    c13 = field(13)
    for mu in (1, -1):
        assert swap_T(c13, 2, 2, mu) == rescale_T(c13, 2, 2, (mu, mu))


def test_swap_random():
    rng = random.Random(15)
    for ctx in small_ctxs():
        for _ in range(12):
            j, l = rng.randrange(ctx.q), rng.randrange(ctx.q)
            if ctx.add(j, l) == 0:
                continue
            for mu in (1, -1):
                assert swap_T(ctx, j, l, mu) == \
                    brute_product(ctx, t_family(l, j, (mu, mu))).value


def test_swap_rejects_degenerate():
    with pytest.raises(ValueError):
        swap_T(field(7), 3, 4, 1)
    with pytest.raises(ValueError):
        swap_T(field(7), 1, 1, 0)


# ---------------------------------------------------------------------------
# section-6 style identities
# ---------------------------------------------------------------------------

def test_two_plus_sqrt_classes_on_jl_pairs():
    # j + l = 4 with j, l nonzero squares: chi(2 + sqrt j) = chi(2) chi(2 + sqrt l)
    for ctx in small_ctxs():
        for j in range(1, ctx.q):
            l = ctx.sub(ctx.from_int(4), j)
            if l == 0 or ctx.legendre(j) != 1 or ctx.legendre(l) != 1:
                continue
            a = ctx.sqrt_canonical(j)
            b = ctx.sqrt_canonical(l)
            lhs = ctx.legendre(ctx.add(ctx.from_int(2), a))
            rhs = ctx.legendre(ctx.from_int(2)) * \
                ctx.legendre(ctx.add(ctx.from_int(2), b))
            assert lhs == rhs


def test_all_square_class_inconsistent_character():
    # chi(5) flipped at q = 13 after delta is cached puts tau = 4 in the
    # all-square class while l = 6 still reads as a nonsquare; that must
    # raise IdentityFailure, not multiply a None root
    ctx = mk_field(13)
    ctx.delta
    ctx.tables().chi[5] *= -1
    with pytest.raises(IdentityFailure, match="l is a nonsquare"):
        all_square_class(ctx, normalized_frame(ctx, 4))


def test_all_square_class_reads_chi_of_l_on_arrays():
    # chi(3) flipped at q = 13 leaves tau = 9 in the all-square class with
    # l = 3, a true square that reads as a nonsquare: the int's root is None,
    # while the array roots, which read no character, have one, so the
    # array call must raise where the int call does
    import numpy as np

    ctx = mk_field(13)
    ctx.delta
    ctx.tables().chi[3] *= -1
    for tau in (9, np.array([9])):
        frame = normalized_frame(ctx, tau)._replace(cls=(1, 1))
        with pytest.raises(IdentityFailure, match="l is a nonsquare"):
            all_square_class(ctx, frame)


def test_all_square_key_branch_independent():
    # the class of 1 + sqrt(l)/2 equals that of 1 - sqrt(l)/2 whenever
    # tau and tau+1 are both nonzero squares
    for ctx in small_ctxs():
        half = ctx.inv(ctx.from_int(2))
        for tau in range(1, ctx.q):
            if tau == ctx.minus_one:
                continue
            if ctx.legendre(tau) != 1 or ctx.legendre(ctx.add(tau, ctx.one)) != 1:
                continue
            frame = normalized_frame(ctx, tau)
            root = ctx.sqrt_canonical(frame.l)
            for s in (root, ctx.neg(root)):
                plus = ctx.legendre(ctx.add(ctx.one, ctx.mul(s, half)))
                minus = ctx.legendre(ctx.sub(ctx.one, ctx.mul(s, half)))
                assert plus == minus != 0
            mu = all_square_class(ctx, frame)
            assert mu in (1, -1)
            assert mu == ctx.legendre(ctx.sub(ctx.one, ctx.mul(root, half)))


def test_sklu_products_via_unit_powers():
    # prod S_{r-2,r+2}^{-eps,-} = <(-u)^m> and the E-shaped form for
    # signs (eps, +), whenever r avoids the exceptional root sets
    for ctx in small_ctxs():
        two = ctx.from_int(2)
        m = ctx.m
        for r in range(ctx.q):
            u = ext2_solve_unit(ctx, r)
            k, l = ctx.sub(r, two), ctx.add(r, two)
            mu = e2_pow(ctx, ctx.e2_neg(u), m)
            mui = e2_inv(ctx, mu)
            want1 = brute_product(ctx, s_family(k, l, (-ctx.eps, -1))).value
            val1 = ctx.e2_add(mu, mui)
            if ctx.legendre(ctx.add(r, ctx.from_int(-2))) != -ctx.eps \
                    or ctx.legendre(ctx.add(r, two)) != -1:
                # r outside A_{-2,2}^{-eps,-}: identity must hold
                assert val1 == ctx.e2_embed(want1), (ctx.q, r)
            if r not in (two, ctx.neg(two)):
                den = ctx.e2_sub(u, e2_inv(ctx, u))
                val2 = ctx.e2_neg(e2_div(ctx, ctx.e2_sub(mu, mui), den))
                want2 = brute_product(ctx, s_family(k, l, (ctx.eps, 1))).value
                if ctx.legendre(ctx.sub(r, two)) != ctx.eps \
                        or ctx.legendre(l) != 1:
                    assert val2 == ctx.e2_embed(want2), (ctx.q, r)
