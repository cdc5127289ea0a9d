"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here; the exact checks compare Python ints.

Criteria 01-04 and 11 build no grid of their own: they run the checks of
``qproduct verify`` (the table ``cli._CHECKS``) at their bounds, through
verify_check, and pin each check's case count, so each theorem's grid is
written in one place.
"""

import itertools
import math

import numpy as np

from qproduct import cli
from qproduct.characters import (
    closed_form_main1,
    divisor_coefficients_div1,
    midpoint_zero_peak1,
    ramanujan_sum,
    tau_progression,
    euler_phi,
)
from qproduct.asymptotics import (
    K_REFERENCE,
    asymptotic_fit,
    sudler_constant,
)
from qproduct.characters import CharacterIndex
from qproduct.partitions import (
    hecke_rogers_series,
    jacobi_series,
    parity_counts,
    pentagonal_series,
    series_to_coeffs,
    stable_prefix_check,
)
from qproduct.poly import (
    ProductSpec,
    _multiply_in_place,
    expand_restricted_product,
)
from qproduct.sieve import (
    f_psi_distinct_bruteforce,
    f_psi_sieve,
    f_psi_via_cycle_index,
    prop_lws_check,
    restricted_count_identity_check,
)

SIEVE_TOL = 1e-9
DIV1_PEAK1_DEGREE_CAP = 10**4


def report(num: int, name: str, ok: bool) -> None:
    print(f"[acceptance] criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def verify_check(label: str, smax: int, nmax: int, cases: int) -> bool:
    """Run `qproduct verify --theorem label` at these bounds, as the CLI does.

    The grid is the one in cli._CHECKS; True when the check passes over
    exactly `cases` cases, so a grid that shrinks fails here too.
    """
    argv = ["verify", "--theorem", label, "--smax", str(smax), "--nmax", str(nmax)]
    result = cli._run_check(label, cli.build_parser().parse_args(argv))
    print(
        f"[acceptance]   {label}: {result['cases']} cases (expected {cases}), "
        f"{result['failure_count']} failed"
    )
    return result["passed"] and result["cases"] == cases


def test_criterion_01_formula_oracle_equivalence():
    """character_sum_main00 and trig_form_main0000 equal the oracle exactly
    for 1 <= s <= 3, 1 <= n <= 10, 1 <= N <= degree+1, 0 <= j < N
    (verify main00 and main0000)."""
    ok = all([verify_check("main00", 3, 10, 57_604), verify_check("main0000", 3, 10, 57_604)])
    report(1, "formula-oracle equivalence", ok)


def test_criterion_02_coefficient_recovery():
    """single_coefficient_main0 recovers every coefficient for s <= 2, n <= 8
    (verify main0)."""
    report(2, "coefficient recovery", verify_check("main0", 2, 8, 376))


def test_criterion_03_closed_form():
    """closed_form_main1 equals the oracle for s <= 4, n <= 30, all j (verify
    main1), including the phi(n+1) case at j = 0."""
    ok = verify_check("main1", 4, 30, 1_980)
    for s, n in itertools.product(range(1, 5), range(1, 31)):
        if closed_form_main1(ProductSpec(s, n), 0) != (n + 1) ** (s - 1) * euler_phi(n + 1):
            ok = False
    report(3, "closed form at modulus n+1", ok)


def test_criterion_04_vanishing_suites():
    """Zero progression sums: 2j = degree (mod N) with odd s*n for n <= 15
    (verify main000), and every residue at moduli N <= n-1 for n <= 12
    (verify main00cor)."""
    ok = all([verify_check("main000", 3, 15, 1_636), verify_check("main00cor", 3, 12, 198)])
    report(4, "vanishing suites", ok)


def test_criterion_05_divisor_and_midpoint():
    """Divisor pair (t_D, t_{N-D}) = (-1, 1) and zero midpoint coefficient for
    every admissible (s, n) with degree <= 10^4.

    For n = 1 the expansion is the binomial row, so the targeted coefficients
    come straight from the binomial theorem.  For n >= 3 one exact product per
    n, in one zero-padded array, is walked upward in s by multiplying by
    (1-q^a)^2 in place, which is the expansion itself at each odd s;
    per-operation entry points are exercised on the smaller specs.
    """
    ok = True
    pairs = 0
    # n = 1: t_j = (-1)^j C(s, j), so t_s = -1 (s odd) and t_0 = 1
    s = 1
    while s <= DIV1_PEAK1_DEGREE_CAP:
        if (-1) ** s * math.comb(s, s) != -1 or math.comb(s, 0) != 1:
            ok = False
        pairs += 1
        s += 2
    # n >= 3 odd: incremental exact products
    for n in range(3, 141, 2):
        if n * (n + 1) // 2 > DIV1_PEAK1_DEGREE_CAP:
            break
        arr = np.zeros(DIV1_PEAK1_DEGREE_CAP + 1, dtype=object)
        arr[0] = 1
        end = 1
        for a in range(1, n + 1):
            end = _multiply_in_place(arr, a, 1, end)
        s = 1
        while s * n * (n + 1) // 2 <= DIV1_PEAK1_DEGREE_CAP:
            degree = s * n * (n + 1) // 2
            divisors = [d for d in range(1, degree + 1)
                        if degree % d == 0 and 2 * d > degree]
            if divisors != [degree]:
                ok = False
            if arr[degree] != -1 or arr[0] != 1:
                ok = False
            if n % 4 == 3 and arr[degree // 2] != 0:
                ok = False
            pairs += 1
            if (s + 2) * n * (n + 1) // 2 <= DIV1_PEAK1_DEGREE_CAP:
                for a in range(1, n + 1):
                    end = _multiply_in_place(arr, a, 2, end)
            s += 2
    # operation entry points on the smaller admissible specs
    for s, n in itertools.product(range(1, 8, 2), range(1, 16, 2)):
        spec = ProductSpec(s, n)
        if spec.degree > 600:
            continue
        if divisor_coefficients_div1(spec) != (-1, 1):
            ok = False
        if n % 4 == 3 and midpoint_zero_peak1(spec) != 0:
            ok = False
    print(f"[acceptance]   criterion 05 covered {pairs} admissible (s, n) pairs")
    report(5, "divisor and midpoint coefficients", ok)


def test_criterion_06_sieve_identities():
    """Sieve agrees with distinct-tuple brute force within 1e-9 for n <= 6,
    k <= n, all characters of Z_N with N <= 8; the subset-count identity holds
    on the enumerable grid (n <= 6, s <= 2)."""
    ok = True
    for n in range(1, 7):
        for k in range(1, n + 1):
            for modulus in range(1, 9):
                for r in range(modulus):
                    psi = CharacterIndex(r, modulus)
                    brute = f_psi_distinct_bruteforce(n, k, psi)
                    if abs(f_psi_sieve(n, k, psi) - brute) > SIEVE_TOL:
                        ok = False
                    if abs(f_psi_via_cycle_index(n, k, psi) - brute) > SIEVE_TOL:
                        ok = False
                    if not prop_lws_check(n, k, psi):
                        ok = False
    for n in range(1, 7):
        for modulus in (1, 2, 3, 5, 8):
            for j in range(modulus):
                for k1 in range(n + 1):
                    if not restricted_count_identity_check(1, n, modulus, j, (k1,)):
                        ok = False
        for modulus in (2, 4, 7):
            for k1, k2 in itertools.product(range(min(n, 4) + 1), repeat=2):
                if not restricted_count_identity_check(2, n, modulus, 1 % modulus, (k1, k2)):
                    ok = False
    report(6, "sieve identities", ok)


def test_criterion_07_partition_parity():
    """even - odd parity counts equal the oracle coefficient for s <= 3, n <= 8."""
    ok = True
    for s, n in itertools.product(range(1, 4), range(1, 9)):
        spec = ProductSpec(s, n)
        p = expand_restricted_product(spec)
        for j in range(spec.degree + 1):
            if parity_counts(s, n, j).difference != p[j]:
                ok = False
    report(7, "partition parity", ok)


def test_criterion_08_classical_series():
    """Pentagonal (s=1) and two-variable (s=2) prefixes match up to exponent n
    for n <= 30; the cube series matches under the standard exponents and
    fails at q^0 under the as-printed exponents."""
    ok = True
    for n in range(1, 31):
        if not stable_prefix_check(1, n, pentagonal_series(n)):
            ok = False
        if not stable_prefix_check(2, n, hecke_rogers_series(n)):
            ok = False
        if not stable_prefix_check(3, n, jacobi_series(n, "standard")):
            ok = False
    printed = series_to_coeffs(jacobi_series(0, "as-printed"), 0)
    if printed[0] == expand_restricted_product(ProductSpec(3, 1))[0]:
        ok = False  # the as-printed exponents must NOT match at q^0
    report(8, "classical series prefixes", ok)


def test_criterion_09_sudler_constant():
    """Computed K within 5e-5 of the 0.19861 anchor."""
    result = sudler_constant()
    report(9, "Sudler constant", abs(result.value - K_REFERENCE) <= 5e-5)


def test_criterion_10_asymptotic_slope():
    """Slope of log max-coefficient: within 0.02 of K for s = 1 over
    n = 100..300 step 25; slope/2 within 0.03 of K for s = 2 over 50..150."""
    fit1 = asymptotic_fit(1, 100, 300, 25)
    fit2 = asymptotic_fit(2, 50, 150, 25)
    ok = abs(fit1.slope - K_REFERENCE) <= 0.02
    ok = ok and abs(fit2.slope / 2 - K_REFERENCE) <= 0.03
    print(
        f"[acceptance]   slopes: s=1 {fit1.slope:.5f}, s=2 {fit2.slope / 2:.5f} "
        f"(target {K_REFERENCE})"
    )
    report(10, "asymptotic slope", ok)


def test_criterion_11_tau_progressions():
    """Progression sums of the 24th-power truncation mod n+1 equal the oracle
    for n <= 6 (verify tau), and the closed form (n+1)^23 * c_{n+1}(j), with the printed
    (n+1)^23 * {phi(n+1), -1} shape holding whenever n+1 is prime.  Exact
    big-integer comparison."""
    ok = verify_check("tau", 1, 6, 27)
    for n in range(1, 7):
        base = (n + 1) ** 23
        row = [tau_progression(n, j) for j in range(n + 1)]
        if row != [base * ramanujan_sum(n + 1, j) for j in range(n + 1)]:
            ok = False
        if row[0] != base * euler_phi(n + 1):
            ok = False
        if n + 1 in (2, 3, 5, 7):
            if any(row[j] != -base for j in range(1, n + 1)):
                ok = False
    report(11, "tau progression sums", ok)
