"""Exact coefficients and progression sums of truncated q-products.

The package expands prod_{a=1..n} (1 - q^a)^s over exact integers, extracts
sums of coefficients along arithmetic progressions of exponents, evaluates
the matching character-sum and trigonometric formulas in floating point and
rounds them to integers under a first-order error estimate (not a proven
bound), verifies the cycle-type sieve identities behind them, checks the
classical series expansions (pentagonal numbers, the cube identity, the
two-variable square identity, the 24th-power tau truncation), and measures
the exp(s*K*n) growth of the maximum coefficient.
"""

from .asymptotics import (
    AsymptoticFit,
    K_REFERENCE,
    SudlerConstant,
    asymptotic_fit,
    max_abs_coefficient,
    max_abs_profile,
    sandwich_inequality_check,
    sudler_constant,
    unit_circle_max,
)
from .characters import (
    CharacterIndex,
    character_group,
    character_sum_main00,
    closed_form_main1,
    divisor_coefficients_div1,
    euler_phi,
    midpoint_zero_peak1,
    mobius,
    ramanujan_sum,
    single_coefficient_main0,
    small_modulus_vanishing,
    tau_progression,
    trig_form_main0000,
    vanishing_predicate_main000,
)
from .errors import PrecisionError, ResourceLimitError
from .partitions import (
    ParityCounts,
    SeriesTerm,
    cauchy_identity_check,
    hecke_rogers_series,
    jacobi_series,
    parity_counts,
    pentagonal_series,
    q_binomial,
    series_to_coeffs,
    stable_prefix_check,
    truncated_tau,
)
from .poly import (
    IntPolynomial,
    ProductSpec,
    ProgressionQuery,
    cyclic_reduce,
    expand_restricted_product,
    progression_sum_oracle,
    reverse_negate_check,
)
from .sieve import (
    CycleType,
    egf_consistency_check,
    enumerate_cycle_types,
    f_psi_distinct_bruteforce,
    f_psi_sieve,
    prop_lws_check,
    restricted_count_identity_check,
    z_polynomial,
)

__version__ = "0.1.0"
