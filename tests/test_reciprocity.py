import pytest

from charprod.closedform import rescale_T
from charprod.ffield import mk_field
from charprod.reciprocity import (TOWER_BASES, TowerSpec,
                                  prod_T_quadratic_irrational,
                                  radical_tower_membership,
                                  special_angle_bracket, tower_congruences)
from charprod.sweeps import prime_powers
from helpers import field, run_python


def test_sqrt2_class_examples():
    # level 1 of the sqrt2 tower is the class of 2 + sqrt2: a square
    # exactly when q = +-1 (mod 16)
    spec = TowerSpec("sqrt2", 2)
    c17 = field(17)
    assert c17.sqrt_canonical(2) == 6
    assert radical_tower_membership(c17, spec) == [True, True, False]
    c7 = field(7)
    assert c7.sqrt_canonical(2) == 3
    assert radical_tower_membership(c7, spec) == [True, False, False]
    assert radical_tower_membership(field(23), spec) == [True, False, False]
    assert radical_tower_membership(field(13), spec) == [False, False, False]


def _run_optimized(code: str) -> list[str]:
    """Run code under ``python -O`` (asserts stripped); its stdout lines."""
    proc = run_python(code, "-O")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_sqrt2_class_check_survives_python_O():
    # a character corrupted only at 2 + sqrt2 (q = 7) must be caught
    # even when the interpreter strips assert statements
    code = """
import sys
from charprod.ffield import IdentityFailure, mk_field
from charprod.reciprocity import TowerSpec, radical_tower_membership
ctx = mk_field(7)
two = ctx.from_int(2)
bad = ctx.add(two, ctx.sqrt_canonical(two))
real = ctx.legendre
ctx.legendre = lambda a: -real(a) if a == bad else real(a)
try:
    print("returned", radical_tower_membership(ctx, TowerSpec("sqrt2", 2)))
except IdentityFailure as exc:
    print("raised", exc)
print("optimize", sys.flags.optimize)
"""
    assert _run_optimized(code) == [
        "raised square class depends on the root choice at q=7", "optimize 1"]


def test_reciprocity_checks_survive_python_O():
    # at q = 17, an oracle off by one must fail both quadirr[sqrt2] rows
    # and a flipped chi(2) must fail the eighth-root bracket, asserts or not
    code = """
import sys
from charprod import reciprocity, sweeps
from charprod.ffield import IdentityFailure, mk_field
ctx = mk_field(17)
real_brute = reciprocity.brute_product
def bad_brute(c, fam):
    rep = real_brute(c, fam)
    return rep._replace(value=c.add(rep.value, c.one))
reciprocity.brute_product = bad_brute
for row in sweeps.suite_reciprocity(ctx):
    if row["case"].startswith("quadirr[sqrt2]"):
        print(row["case"], row["ok"])
ctx = mk_field(17)  # fresh: delta is picked with the flipped chi(2)
real_chi = ctx.legendre
ctx.legendre = lambda a: -real_chi(a) if a == 2 else real_chi(a)
try:
    print("returned", reciprocity.special_angle_bracket(ctx, 8))
except IdentityFailure as exc:
    print("raised", exc)
print("optimize", sys.flags.optimize)
"""
    assert _run_optimized(code) == [
        "quadirr[sqrt2]root+ False", "quadirr[sqrt2]root- False",
        "raised bracket rationality criterion is off at q=17, d=8", "optimize 1"]


def test_inconsistent_character_fails_rows_not_verify(monkeypatch, capsys):
    # chi(2) flipped at q = 17 after delta is cached: neither 2 nor 2/delta
    # reads as a square, so e2_sqrt(2) has no root; the reciprocity suite
    # must report failed rows (the bracket and the 2 + sqrt2 class) and
    # verify must exit 1, not crash
    from charprod import sweeps
    from charprod.cli import main
    from charprod.ffield import IdentityFailure

    real_mk_field = sweeps.mk_field

    def corrupted(p, n=1):
        ctx = real_mk_field(p, n)
        ctx.delta
        ctx.tables().chi[2] *= -1
        return ctx

    with pytest.raises(IdentityFailure):
        corrupted(17).e2_sqrt(2)
    rows = {r["case"]: r["actual"] for r in sweeps.suite_reciprocity(corrupted(17))}
    assert rows["special-angle[8]"] == \
        "failed: neither 2 nor 2/delta is a square at q=17"
    assert rows["biquad-sqrt2"].startswith("failed:")
    monkeypatch.setattr(sweeps, "mk_field", corrupted)
    assert main(["verify", "--qmin", "17", "--qmax", "17",
                 "--suites", "reciprocity"]) == 1


def test_sqrt2_class_root_choice_free():
    # the class of 2 + sqrt2 never depends on which root is picked,
    # since (2 + s)(2 - s) = 2 is a square whenever s exists
    for q, p, n in prime_powers(3, 400):
        ctx = mk_field(p, n)
        s = ctx.sqrt_canonical(ctx.from_int(2))
        if s is None:
            continue
        assert ctx.legendre(ctx.add(ctx.from_int(2), s)) == \
            ctx.legendre(ctx.add(ctx.from_int(2), ctx.neg(s)))


def test_tower_examples():
    assert radical_tower_membership(field(17), TowerSpec("sqrt2", 5)) == \
        [True, True, False, False, False, False]
    assert radical_tower_membership(field(11), TowerSpec("sqrt3", 5)) == \
        [True, False, False, False, False, False]
    # golden at q=11: b0 = (1-4)/2 = 4, next level off since 11 != +-1 mod 20
    c11 = field(11)
    assert c11.sqrt_canonical(5) == 4
    assert radical_tower_membership(c11, TowerSpec("golden", 5)) == \
        [True, False, False, False, False, False]


def test_tower_congruence_lists():
    assert tower_congruences(17, TowerSpec("sqrt2", 3)) == [True, True, False, False]
    # 31 = -1 mod 32, so the sqrt2 tower persists two levels deep
    assert tower_congruences(31, TowerSpec("sqrt2", 3)) == [True, True, True, False]
    assert tower_congruences(13, TowerSpec("sqrt2", 2)) == [False, False, False]


def test_tower_characteristic_clash():
    with pytest.raises(ValueError):
        radical_tower_membership(field(3), TowerSpec("sqrt3", 2))
    with pytest.raises(ValueError):
        radical_tower_membership(field(5), TowerSpec("golden", 2))
    with pytest.raises(ValueError, match="unknown tower base 'bracket'"):
        radical_tower_membership(field(7), TowerSpec("bracket", 4))


def test_tower_spec_replace_checks_the_base():
    spec = TowerSpec("sqrt2", 2)
    assert spec._replace(depth=3) == TowerSpec("sqrt2", 3) == ("sqrt2", 3)
    with pytest.raises(ValueError, match="unknown tower base 'bracket'"):
        spec._replace(base="bracket")


def test_tower_membership_sweep():
    for q, p, n in prime_powers(3, 300, None):
        ctx = mk_field(p, n)
        for base, (k, _) in TOWER_BASES.items():
            if (2 * k) % p == 0:
                continue
            spec = TowerSpec(base, 5)
            assert radical_tower_membership(ctx, spec) == \
                tower_congruences(q, spec)


def test_special_angle_examples():
    sa = special_angle_bracket(field(7), 8)
    assert sa.in_base and sa.base_value == 3  # 3^2 = 2 mod 7
    sa = special_angle_bracket(field(5), 12)
    assert not sa.in_base
    b = sa.bracket
    c5 = field(5)
    assert c5.e2_mul(b, b) == c5.e2_embed(c5.from_int(3))
    sa = special_angle_bracket(field(11), 10)
    assert sa.in_base and sa.base_value == 4


def test_special_angle_sweep():
    for q, p, n in prime_powers(3, 250, None):
        ctx = mk_field(p, n)
        for d in (8, 10, 12):
            if d % p == 0:
                continue
            special_angle_bracket(ctx, d)  # internal asserts do the work


def test_special_angle_rejects_bad_d():
    with pytest.raises(ValueError):
        special_angle_bracket(field(7), 9)
    with pytest.raises(ValueError):
        special_angle_bracket(field(5), 10)
    with pytest.raises(ValueError):
        special_angle_bracket(field(3), 12)


def test_quadratic_irrational_examples():
    # q = 17 = 1 mod 16: T^{--} = (-1)^1 * 2 = -2 = 15
    c17 = field(17)
    out = prod_T_quadratic_irrational(c17, "sqrt2")
    assert out.value == 15 and out.signs == (-1, -1)
    # q = 41 = 8+1 mod 16: T^{++} = (-1)^3 * sqrt2 = -sqrt2
    c41 = mk_field(41)
    out = prod_T_quadratic_irrational(c41, "sqrt2")
    s = c41.sqrt_canonical(2)
    assert out.signs == (1, 1) and out.value == c41.neg(s)
    # golden at q = 11 (11 = +-1 mod 10 but not mod 20): T^{++} = -eps*r = 4
    out = prod_T_quadratic_irrational(field(11), "golden")
    assert out.signs == (1, 1) and out.value == 4


def test_quadratic_irrational_preconditions():
    with pytest.raises(ValueError):
        prod_T_quadratic_irrational(field(13), "sqrt2")  # chi(2) = -1 at 13
    with pytest.raises(ValueError):
        prod_T_quadratic_irrational(field(7), "sqrt3")   # chi(3) = -1 at 7
    with pytest.raises(ValueError):
        prod_T_quadratic_irrational(field(7), "moon")


def test_quadratic_irrational_both_roots_sweep():
    for q, p, n in prime_powers(3, 300, None):
        ctx = mk_field(p, n)
        ctx.tables()
        for base, (_, rad) in TOWER_BASES.items():
            if rad % p == 0 or ctx.legendre(ctx.from_int(rad)) != 1:
                continue
            for rs in (1, -1):
                prod_T_quadratic_irrational(ctx, base, root_sign=rs)


def test_quadratic_irrational_agrees_with_rescale():
    # the parameters are in F_q by construction, so the general dispatch
    # must give the same value
    for q, p, n in prime_powers(3, 200):
        ctx = mk_field(p, n)
        for base, (_, rad) in TOWER_BASES.items():
            if rad % p == 0 or ctx.legendre(ctx.from_int(rad)) != 1:
                continue
            out = prod_T_quadratic_irrational(ctx, base)
            assert rescale_T(ctx, out.j, out.l, out.signs) == out.value
