"""Products of quadratic-character set families over odd finite fields.

Closed formulas for products like prod{a : chi(j-a) = e1, chi(l+a) = e2},
the Dickson-polynomial identities behind them, an orbit correspondence
for the cardinalities, deterministic square roots, and a brute-force
oracle plus sweep harness that re-verifies every formula exhaustively.

Importing the package loads neither numpy nor a process pool: numpy loads
with the first field tables or code array, and ``run_verify`` loads its
pool only when it runs more than one field on more than one worker.
"""

from .charsets import (SIGN_PAIRS, ProductReport, SetFamily, SignPair,
                       a_family, brute_product, card_closed,
                       enumerate_family, s1_family, s_family, t_family,
                       vanishing_poly)
from .closedform import (INF, NormalizedFrame, closed_product, det_sqrt,
                         normalized_frame, prod_S_single, prod_T_values,
                         quadruple_from_one, rescale_T, swap_T)
from .correspondence import (classify_tau, orbit_count_card, orbit_of_tau,
                             tau_of_orbit)
from .dickson import dickson_first, dickson_second
from .ffield import Ext2Elem, FieldCtx, FieldError, IdentityFailure, mk_field
from .reciprocity import (TowerSpec, prod_T_quadratic_irrational,
                          radical_tower_membership, special_angle_bracket)
from .sweeps import ALL_SUITES, SweepConfig, run_verify

__version__ = "0.1.0"

__all__ = [
    "ALL_SUITES", "Ext2Elem", "FieldCtx", "FieldError", "INF",
    "IdentityFailure", "NormalizedFrame", "ProductReport",
    "SIGN_PAIRS", "SetFamily", "SignPair", "SweepConfig", "TowerSpec",
    "a_family", "brute_product", "card_closed", "classify_tau",
    "closed_product", "det_sqrt", "dickson_first", "dickson_second",
    "enumerate_family", "mk_field", "normalized_frame",
    "orbit_count_card", "orbit_of_tau", "prod_S_single",
    "prod_T_quadratic_irrational", "prod_T_values",
    "quadruple_from_one", "radical_tower_membership", "rescale_T",
    "run_verify", "s1_family", "s_family", "special_angle_bracket",
    "swap_T", "t_family", "tau_of_orbit", "vanishing_poly",
]
