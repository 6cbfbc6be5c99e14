"""Mutation check: every one-token edit of a closed form fails a sweep row.

Each mutant replaces one token of a closed-form function's source (a
flipped sign, a swapped sign pair, a dropped guard), compiles the edited
source in the function's own module, and monkeypatches it into every
``charprod`` module that holds the function.  ``sweeps.run_field`` over
``SMALL_FIELDS`` must then fail at least one row.  A mutant that no row
catches stays in the list, marked as a strict xfail: a change that makes
the sweeps catch it then has to remove the mark.
"""

import inspect
import sys
import textwrap

import pytest

from charprod import charsets, closedform, correspondence, sweeps
from helpers import SMALL_FIELDS


def _mutant(mutant_id, module, name, token, replacement, survives=""):
    """``token`` replaced by ``replacement`` in ``module.name``; ``survives``
    says why no sweep row catches it, for a strict xfail."""
    marks = pytest.mark.xfail(strict=True, reason=survives) if survives else ()
    return pytest.param(module, name, token, replacement, id=mutant_id, marks=marks)


MUTANTS = [
    # the single products and the quadruple completion: only the rescaling
    # suite's seeded samples reach them
    _mutant("S1-k0-signs-swapped", closedform, "prod_S_single",
            "ctx.neg(eps_elem) if sign == 1", "ctx.neg(eps_elem) if sign == -1"),
    _mutant("S1-square-minus-negated", closedform, "prod_S_single",
            "return ctx.mul(eps_elem, two)", "return ctx.neg(ctx.mul(eps_elem, two))"),
    _mutant("S1-nonsquare-plus-unnegated", closedform, "prod_S_single",
            "ctx.neg(ctx.mul(eps_elem, two))", "ctx.mul(eps_elem, two)"),
    _mutant("S1-nonsquare-minus-unnegated", closedform, "prod_S_single",
            "return ctx.neg(ctx.div(eps_elem", "return (ctx.div(eps_elem"),
    _mutant("quadruple-f_plus-no-l-guard", closedform, "quadruple_from_one",
            "== 1 and l != 0)", "== 1)"),
    _mutant("quadruple-f_minus-no-k-guard", closedform, "quadruple_from_one",
            "== -1 and k != 0)", "== -1)"),
    _mutant("quadruple-f_minus2-no-l-guard", closedform, "quadruple_from_one",
            "== -1 and l != 0)", "== -1)",
            survives="no seeded quadruple has l = 0 with chi(k) = -1"),
    # the normalized rows
    _mutant("tau0-row-without-chi2", closedform, "_specific_row",
            "c = el(e * chi2)", "c = el(e)"),
    _mutant("inf-row-unnegated", closedform, "_specific_row",
            "_sign_row(ctx.neg(ctx.div(c, el(4)))", "_sign_row((ctx.div(c, el(4)))"),
    _mutant("all-square-class-flipped", closedform, "_all_square_row",
            "all_square_class(ctx, frame) == 1", "all_square_class(ctx, frame) == -1"),
    _mutant("a3-chi2-flipped", closedform, "det_sqrt",
            "ctx.legendre(ctx.from_int(2)) == 1", "ctx.legendre(ctx.from_int(2)) == -1"),
    _mutant("mixed-root-chi2-flipped", closedform, "mixed_class_root",
            "ctx.legendre(two) == 1", "ctx.legendre(two) == -1"),
    _mutant("mixed-row-unnegated", closedform, "_mixed_class_row", "ctx.neg(c),", "(c),"),
    # rescaling, swapping and the S families
    _mutant("rescale-sign-pair-swapped", closedform, "rescale_T",
            "SignPair(nu * e1, nu * e2)", "SignPair(nu * e2, nu * e1)"),
    _mutant("rescale-card-plus-one", closedform, "rescale_T",
            "ctx.pow(lam, card)", "ctx.pow(lam, card + 1)"),
    _mutant("swap-sign-never-flipped", closedform, "swap_T",
            "factor = -factor", "factor = factor"),
    _mutant("S-as-T-without-eps", closedform, "closed_product",
            "(ctx.eps * e1, e2)", "(e1, e2)"),
    _mutant("A-zero-member-test-negated", closedform, "closed_product",
            "== tuple(fam.signs)", "!= tuple(fam.signs)",
            survives="no suite hands closed_product an A family"),
    # the closed cardinalities and the orbit count
    _mutant("pair-card-eps-term-sign", charsets, "_pair_card",
            "(s1 == -1) * ((ctx.eps - 1) // 2)", "(s1 == 1) * ((ctx.eps - 1) // 2)"),
    _mutant("single-card-sign", charsets, "_single_card",
            "// 2 - (ck == e)", "// 2 + (ck == e)"),
    _mutant("orbit-card-mu4-sign", correspondence, "orbit_count_card",
            "if b == 1:", "if b == -1:"),
    _mutant("orbit-card-exponent-sign", correspondence, "orbit_count_card",
            "a = -e1 * e2", "a = e1 * e2"),
    _mutant("orbit-card-mu4-units-dropped", correspondence, "orbit_count_card",
            "if b == 1:", "if b == 2:"),
    _mutant("orbit-card-mu4-fourth-roots-dropped", correspondence, "orbit_count_card",
            "(-1) ** ((q + a) // 2)", "(-2) ** ((q + a) // 2)"),
]


def _apply(monkeypatch, module, name, token, replacement):
    """Patch ``module.name``, with ``token`` replaced once in its source,
    into every charprod module that holds the original function."""
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(token) == 1, (name, token)
    scope = {}
    exec(compile(source.replace(token, replacement), inspect.getsourcefile(original), "exec"),
         vars(module), scope)
    holders = [mod for key, mod in sys.modules.items()
               if key.split(".")[0] == "charprod" and getattr(mod, name, None) is original]
    for mod in holders:
        monkeypatch.setattr(mod, name, scope[name])
    assert module in holders


@pytest.mark.parametrize("module, name, token, replacement", MUTANTS)
def test_mutant_fails_a_sweep_row(monkeypatch, module, name, token, replacement):
    _apply(monkeypatch, module, name, token, replacement)
    assert any(not row["ok"] for p, n in SMALL_FIELDS
               for row in sweeps.run_field(p, n, sweeps.ALL_SUITES))
