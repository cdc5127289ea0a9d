"""Character-sum and trigonometric formulas against the exact oracle."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import mp_char_factor, mp_sin, poly_mul, table_mp
from qproduct import characters, poly
from qproduct.errors import PrecisionError, ResourceLimitError
from qproduct.characters import (
    _CHAR_FACTOR,
    _FAST_SN_LIMIT,
    _GUARD_BITS,
    _SIN,
    _TRIG_FACTOR,
    FAST_PRECISION_BITS,
    MP_PRECISION_LADDER,
    RESIDUAL_THRESHOLD,
    CharacterIndex,
    _ladder,
    _roots,
    _table_f64,
    _table_fixed,
    _unrounded_sum,
    character_group,
    character_sum_main00,
    character_sum_with_precision,
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
    trig_form_with_precision,
    vanishing_predicate_main000,
)
from qproduct.poly import (
    ProductSpec,
    ProgressionQuery,
    cyclic_reduce,
    expand_restricted_product,
    progression_sum_oracle,
)


def oracle_row(spec, modulus):
    return cyclic_reduce(expand_restricted_product(spec), modulus).coeffs


def test_character_index_basics():
    psi = CharacterIndex(2, 6)
    assert psi.order == 3
    assert CharacterIndex(0, 6).is_trivial
    assert abs(psi.value(3) - complex(1, 0)) < 1e-12  # 2*3 = 0 mod 6
    assert len(character_group(5)) == 4
    assert len(character_group(5, include_trivial=True)) == 5
    with pytest.raises(ValueError):
        CharacterIndex(6, 6)


@pytest.mark.parametrize("r,modulus", [(1.5, 3), (True, 2), (1, 3.0), (0, True), ("1", 3)])
def test_character_index_rejects_non_int(r, modulus):
    with pytest.raises(ValueError):
        CharacterIndex(r, modulus)


@pytest.mark.parametrize("helper", [euler_phi, mobius])
@pytest.mark.parametrize("m", [2.5, 6.0, True, False, "6"])
def test_number_theory_helpers_reject_non_int(helper, m):
    with pytest.raises(ValueError, match="must be an int"):
        helper(m)


def test_number_theory_helpers():
    assert [euler_phi(m) for m in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert [mobius(m) for m in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert [ramanujan_sum(4, j) for j in range(4)] == [2, 0, -2, 0]
    assert [ramanujan_sum(5, j) for j in range(5)] == [4, -1, -1, -1, -1]


def test_character_sum_examples():
    assert character_sum_main00(ProductSpec(1, 4), ProgressionQuery(5, 0)) == 4
    assert character_sum_main00(ProductSpec(1, 3), ProgressionQuery(3, 0)) == 0
    # oracle t_1 + t_4 = -2 + (-1) over (1-q)^2 (1-q^2)^2
    assert character_sum_main00(ProductSpec(2, 2), ProgressionQuery(3, 1)) == -3


def test_trig_form_examples():
    assert trig_form_main0000(ProductSpec(1, 3), ProgressionQuery(6, 0)) == 0
    assert trig_form_main0000(ProductSpec(1, 4), ProgressionQuery(5, 2)) == -1
    # degree-6 polynomial: only exponent 0 lies in the class 0 mod 7
    assert trig_form_main0000(ProductSpec(2, 2), ProgressionQuery(7, 0)) == 1


@pytest.mark.parametrize("s,n", list(itertools.product(range(1, 3), range(1, 7))))
def test_formula_oracle_agreement(s, n):
    spec = ProductSpec(s, n)
    for modulus in range(1, spec.degree + 2):
        row = oracle_row(spec, modulus)
        for j in range(modulus):
            query = ProgressionQuery(modulus, j)
            assert character_sum_main00(spec, query) == row[j]
            assert trig_form_main0000(spec, query) == row[j]


def test_single_coefficient_examples():
    spec = ProductSpec(1, 3)
    assert single_coefficient_main0(spec, 0) == 1
    assert single_coefficient_main0(spec, 3) == 0
    assert single_coefficient_main0(spec, 6) == -1
    with pytest.raises(ValueError):
        single_coefficient_main0(spec, 7)


@pytest.mark.parametrize("s,n", [(1, 5), (2, 4)])
def test_single_coefficient_recovers_all(s, n):
    spec = ProductSpec(s, n)
    p = expand_restricted_product(spec)
    for j in range(spec.degree + 1):
        assert single_coefficient_main0(spec, j) == p[j]


def test_closed_form_examples():
    assert closed_form_main1(ProductSpec(1, 4), 0) == 4
    assert closed_form_main1(ProductSpec(2, 2), 0) == 6
    assert closed_form_main1(ProductSpec(24, 4), 3) == -(5**23)
    with pytest.raises(ValueError):
        closed_form_main1(ProductSpec(1, 4), 5)


@pytest.mark.parametrize("s,n", list(itertools.product(range(1, 4), range(1, 13))))
def test_closed_form_matches_oracle(s, n):
    spec = ProductSpec(s, n)
    row = oracle_row(spec, n + 1)
    for j in range(n + 1):
        assert closed_form_main1(spec, j) == row[j]


def test_closed_form_prime_modulus_shape():
    # for prime n+1 the nonzero residues share the single value -(n+1)^(s-1)
    for s, n in [(1, 4), (3, 6), (2, 10)]:
        vals = {closed_form_main1(ProductSpec(s, n), j) for j in range(1, n + 1)}
        assert vals == {-((n + 1) ** (s - 1))}


@pytest.mark.parametrize("s,n", [(1, 3), (1, 5), (3, 3), (1, 9)])
def test_residue_sums_cancel(s, n):
    spec = ProductSpec(s, n)
    for modulus in (2, 3, n + 1, spec.degree + 1):
        total = sum(
            character_sum_main00(spec, ProgressionQuery(modulus, j))
            for j in range(modulus)
        )
        assert total == 0


def test_vanishing_predicate():
    assert vanishing_predicate_main000(ProductSpec(1, 3), ProgressionQuery(4, 1))
    assert progression_sum_oracle(ProductSpec(1, 3), ProgressionQuery(4, 1)) == 0
    assert vanishing_predicate_main000(ProductSpec(1, 3), ProgressionQuery(3, 0))
    assert not vanishing_predicate_main000(ProductSpec(1, 3), ProgressionQuery(4, 0))
    with pytest.raises(ValueError):
        vanishing_predicate_main000(ProductSpec(2, 3), ProgressionQuery(4, 1))


@pytest.mark.parametrize("s,n", [(1, 5), (1, 9), (3, 5)])
def test_vanishing_sweep(s, n):
    spec = ProductSpec(s, n)
    for modulus in range(1, spec.degree + 2):
        row = oracle_row(spec, modulus)
        for j in range(modulus):
            if vanishing_predicate_main000(spec, ProgressionQuery(modulus, j)):
                assert row[j] == 0


def test_small_modulus_vanishing():
    assert small_modulus_vanishing(ProductSpec(1, 5), 3)
    assert small_modulus_vanishing(ProductSpec(2, 4), 2)
    assert small_modulus_vanishing(ProductSpec(1, 6), 5)
    with pytest.raises(ValueError):
        small_modulus_vanishing(ProductSpec(1, 5), 5)
    with pytest.raises(ValueError):
        small_modulus_vanishing(ProductSpec(1, 5), 0)


def test_divisor_coefficients():
    assert divisor_coefficients_div1(ProductSpec(1, 3)) == (-1, 1)
    assert divisor_coefficients_div1(ProductSpec(3, 1)) == (-1, 1)
    assert divisor_coefficients_div1(ProductSpec(1, 5)) == (-1, 1)
    with pytest.raises(ValueError):
        divisor_coefficients_div1(ProductSpec(2, 3))  # even s


def test_divisor_range_admits_only_the_degree():
    # every proper divisor is at most degree/2, so D = degree is the only choice
    for s, n in [(1, 3), (1, 5), (3, 3), (1, 7)]:
        big_n = ProductSpec(s, n).degree
        admissible = [d for d in range(1, big_n + 1) if big_n % d == 0 and 2 * d > big_n]
        assert admissible == [big_n]


def test_midpoint_zero():
    assert midpoint_zero_peak1(ProductSpec(1, 3)) == 0
    assert midpoint_zero_peak1(ProductSpec(1, 7)) == 0
    assert midpoint_zero_peak1(ProductSpec(3, 3)) == 0
    with pytest.raises(ValueError):
        midpoint_zero_peak1(ProductSpec(1, 5))  # n = 1 mod 4
    with pytest.raises(ValueError):
        midpoint_zero_peak1(ProductSpec(2, 3))  # even s


def test_tau_progression_values():
    assert tau_progression(2, 0) == 2 * 3**23
    assert tau_progression(2, 1) == -(3**23)
    assert tau_progression(1, 0) == 2**23
    with pytest.raises(ValueError):
        tau_progression(2, 3)


def test_tau_cross_check_follows_the_oracle_cap(monkeypatch):
    spec = ProductSpec(24, 5)
    # one below degree + 1: the oracle cannot run, the closed form is returned
    monkeypatch.setenv("QPRODUCT_COEFF_CAP", str(24 * 5 * 6 // 2))
    for j in range(6):
        assert tau_progression(5, j) == closed_form_main1(spec, j)


def test_closed_forms_build_no_cyclic_row(monkeypatch):
    # tau_progression and the vanishing predicate expand nothing: verify
    # checks them against the exact rows, so they never build one themselves
    def no_row(*args):
        raise AssertionError("cyclic row built")

    monkeypatch.setattr(poly, "_cyclic_row", no_row)
    assert tau_progression(900, 0) == 901**23 * euler_phi(901)
    assert tau_progression(5, 3) == closed_form_main1(ProductSpec(24, 5), 3)
    assert vanishing_predicate_main000(ProductSpec(1, 3), ProgressionQuery(4, 1))


# differential tests of the closed forms and corollary readers against the
# exact oracles, on randomized inputs


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(1, 60))
@example(1)
@example(60)
def test_tau_progression_matches_oracle(n):
    spec = ProductSpec(24, n)
    for j in range(n + 1):
        assert tau_progression(n, j) == progression_sum_oracle(spec, ProgressionQuery(n + 1, j))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.integers(0, 3), st.integers(0, 5))
@example(0, 0)  # s = n = 1
@example(3, 5)  # s = 7, n = 11
def test_vanishing_predicate_implies_zero_oracle_sum(half_s, half_n):
    spec = ProductSpec(2 * half_s + 1, 2 * half_n + 1)  # odd s*n
    for modulus in range(1, spec.degree + 3):
        for j in range(modulus):
            query = ProgressionQuery(modulus, j)
            if vanishing_predicate_main000(spec, query):
                assert progression_sum_oracle(spec, query) == 0


def _fold(spec):
    """Coefficients of the product by a plain poly_mul fold of its factors."""
    p = [1]
    for a in range(1, spec.n + 1):
        for _ in range(spec.s):
            p = poly_mul(p, [1] + [0] * (a - 1) + [-1])
    return p


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.integers(0, 4), st.integers(0, 7))
@example(0, 0)
@example(4, 7)  # s = 9, n = 15
def test_divisor_coefficients_match_fold(half_s, half_n):
    spec = ProductSpec(2 * half_s + 1, 2 * half_n + 1)
    p = _fold(spec)
    assert divisor_coefficients_div1(spec) == (p[spec.degree], p[0])


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.integers(0, 4), st.integers(0, 3))
@example(0, 0)  # s = 1, n = 3
@example(4, 3)  # s = 9, n = 15
def test_midpoint_coefficient_matches_fold(half_s, quarter_n):
    spec = ProductSpec(2 * half_s + 1, 4 * quarter_n + 3)
    assert midpoint_zero_peak1(spec) == _fold(spec)[spec.degree // 2]


def test_precision_escalation_beyond_double():
    # magnitudes around 2^96 force the fixed-point rungs; result stays exact
    spec = ProductSpec(24, 4)
    query = ProgressionQuery(25, 3)
    value, bits = character_sum_with_precision(spec, query)
    assert value == progression_sum_oracle(spec, query)
    assert bits > 53
    tvalue, tbits = trig_form_with_precision(spec, query)
    assert tvalue == value
    assert tbits > 53


# (s, n, N, j) -> the rung both routes accept; with degree < 12000 the value is
# also compared with the exact oracle (the two largest cost seconds there).
@pytest.mark.parametrize(
    "s,n,modulus,j,bits",
    [
        (1, 1, 2, 0, 53),
        (31, 35, 2, 1, 64),
        (27, 5, 9, 7, 128),
        (40, 9, 12, 8, 256),
        (27, 29, 36, 18, 512),
        (38, 37, 49, 23, 1024),
    ],
)
def test_precision_ladder_rungs(s, n, modulus, j, bits):
    spec, query = ProductSpec(s, n), ProgressionQuery(modulus, j)
    value, char_bits = character_sum_with_precision(spec, query)
    assert trig_form_with_precision(spec, query) == (value, char_bits)
    assert char_bits == bits
    if spec.degree < 12000:
        assert value == progression_sum_oracle(spec, query)


@st.composite
def _queries(draw):
    spec = ProductSpec(draw(st.integers(1, 6)), draw(st.integers(1, 12)))
    modulus = draw(st.integers(1, spec.degree + 3))
    return spec, ProgressionQuery(modulus, draw(st.integers(0, modulus - 1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_queries())
@example((ProductSpec(3, 4), ProgressionQuery(1, 0)))  # N = 1: empty sum
@example((ProductSpec(2, 5), ProgressionQuery(31, 30)))  # N = degree+1, j = N-1
@example((ProductSpec(6, 12), ProgressionQuery(471, 470)))  # N > degree+1, j = N-1
@example((ProductSpec(5, 7), ProgressionQuery(142, 3)))  # N > degree+1
def test_routes_match_oracle(case):
    spec, query = case
    exact = progression_sum_oracle(spec, query)
    assert character_sum_main00(spec, query) == exact
    assert trig_form_main0000(spec, query) == exact


def test_precision_failure_is_reported():
    # (1-q)^4000 at modulus 3: character terms of size ~3^2000 overwhelm 1024 bits
    with pytest.raises(PrecisionError):
        character_sum_main00(ProductSpec(4000, 1), ProgressionQuery(3, 0))


def test_precision_failure_texts_are_pinned():
    # past 1024 bits both routes report the estimate at 1024 bits
    spec, query = ProductSpec(60, 49), ProgressionQuery(60, 26)
    for route in (character_sum_with_precision, trig_form_with_precision):
        with pytest.raises(PrecisionError) as info:
            route(spec, query)
        assert str(info.value) == (
            "certified rounding failed at 1024 bits (error estimate 2^1.1)"
        )


@pytest.mark.parametrize("s,n,modulus", [(60, 49, 60), (4000, 1, 3), (40, 120, 397)])
def test_hopeless_ladder_raises_before_any_table(monkeypatch, s, n, modulus):
    # a ladder whose last rung fails the estimate cannot accept: no table is built
    def no_table(*args):
        raise AssertionError("table built")

    monkeypatch.setattr(characters, "_table_f64", no_table)
    monkeypatch.setattr(characters, "_table_fixed", no_table)
    for route in (character_sum_with_precision, trig_form_with_precision):
        with pytest.raises(PrecisionError, match=r"^certified rounding failed at 1024 bits"):
            route(ProductSpec(s, n), ProgressionQuery(modulus, 0))


@pytest.mark.parametrize(
    "modulus,bits",
    [(1, 96), (2, 96), (3, 96), (4, 128), (5, 96), (12, 1056), (97, 160), (400, 288), (400, 1056)],
)
def test_root_table_is_within_its_bound(modulus, bits):
    # every root within 0.52 units of 2^-bits, and exact where cos or sin is 0 or +-1
    cos, sin = _roots(modulus, bits)
    assert len(cos) == len(sin) == 2 * modulus
    one = 2**bits
    with mpmath.workprec(bits + 64):
        for k in range(2 * modulus):
            x = mpmath.mpf(k) / modulus
            assert abs(cos[k] - one * mpmath.cospi(x)) <= 0.52
            assert abs(sin[k] - one * mpmath.sinpi(x)) <= 0.52
            if (2 * k) % modulus == 0:
                assert (cos[k], sin[k]) == (one * mpmath.cospi(x), one * mpmath.sinpi(x))


def _first_order_bound(moduli, s, u):
    """The bound stated above characters._Form for one table entry, relative to it.

    2u/|v| for every factor and every truncated product v, carried through the
    products and squarings _table_fixed makes.
    """
    partial, rel = moduli[0], 2 * u / moduli[0]
    for m in moduli[1:]:
        partial *= m
        rel += 2 * u / m + 2 * u / partial
    table, table_rel = partial, rel
    for bit in bin(s)[3:]:
        table *= table
        table_rel = 2 * table_rel + 2 * u / table
        if bit == "1":
            table *= partial
            table_rel += rel + 2 * u / table
    return table_rel


@pytest.mark.parametrize("prec", [64, 128, 256])
@pytest.mark.parametrize("factor", [_CHAR_FACTOR, _TRIG_FACTOR], ids=["char", "sin"])
@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(st.integers(1, 5), st.integers(1, 9), st.integers(1, 40))
@example(2, 3, 1)  # N = 1: empty table
@example(3, 1, 2)  # N = 2, n = 1
@example(1, 2, 7)  # odd N, n = 2
@example(2, 3, 12)  # even N, n = 3: a*r runs past 2N
def test_mp_table_matches_direct_products(factor, prec, s, n, modulus):
    # the fixed-point table against mpmath products at 64 more bits (whose own
    # error is the estimate's form at that precision): within the stated bound
    bits = prec + _GUARD_BITS
    # the fixed-point trig factor is 2 sin
    mp_factor, scale = (mp_char_factor, 1) if factor is _CHAR_FACTOR else (mp_sin, 2)
    re, im = _table_fixed(factor.fixed, s, n, modulus, bits)
    assert len(re) == modulus // 2
    with mpmath.workprec(bits + 64):
        u = mpmath.mpf(2) ** -bits
        direct = table_mp(mp_factor, s, n, modulus, bits + 64)
        for r, d in enumerate(direct, 1):
            got = mpmath.mpc(re[r - 1], 0 if im is None else im[r - 1]) * u
            moduli = [scale * abs(mp_factor(a * r, modulus)) for a in range(1, n + 1)]
            if min(moduli) == 0:
                assert got == 0
                continue
            want = d * scale ** (s * n)
            mp_error = abs(want) * 2 ** (1 - bits - 64) * (4 * s * n + 16)
            bound = mpmath.expm1(_first_order_bound(moduli, s, u)) * abs(want)
            assert abs(got - want) <= bound + mp_error


def _estimate(trig, lead, spec, modulus, prec):
    """The error estimate of _rounded_sum at one rung, from the double or mpmath tables."""
    sn = spec.s * spec.n
    weights = [2] * (modulus // 2)
    if modulus % 2 == 0:
        weights[-1] = 1
    if prec == FAST_PRECISION_BITS:
        table = _table_f64((_SIN if trig else _CHAR_FACTOR).f64, spec.s, spec.n, modulus)
        with np.errstate(over="ignore", invalid="ignore"):
            scale = abs(lead) * float((np.array(weights) * np.abs(table)).sum()) / modulus
        return scale * 2.0 ** (1 - prec) * (4 * sn + 16)
    with mpmath.workprec(prec):
        table = table_mp(mp_sin if trig else mp_char_factor, spec.s, spec.n, modulus, prec)
        scale = abs(lead) * sum(w * abs(t) for w, t in zip(weights, table)) / modulus
    with mpmath.workprec(prec + 16):
        return scale * 2.0 ** (1 - prec) * (4 * sn + 16)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    st.builds(ProductSpec, st.integers(1, 40), st.integers(1, 45)),
    st.integers(2, 130),
    st.booleans(),
)
# a*r = N (mod 2N) at a = 207: the sine factor is exactly zero in mpmath but
# 1.2e-16 in numpy, and unmasked it would predict that the 64-bit rung fails
@example(ProductSpec(6, 379), 207, True)
def test_skipped_rungs_fail_the_estimate(spec, modulus, trig):
    # a skipped rung must fail err < 0.25, so skipping never moves the accepted rung
    sn = spec.s * spec.n
    lead = (-1) ** ((sn + 1) // 2) * 2**sn if trig else 1
    full = MP_PRECISION_LADDER
    if sn <= _FAST_SN_LIMIT:
        full = (FAST_PRECISION_BITS, *full)
    ladder = _ladder(spec, modulus)[0]
    skipped = full[: len(full) - len(ladder)]
    assert skipped + ladder == full
    for prec in skipped:
        assert not _estimate(trig, lead, spec, modulus, prec) < RESIDUAL_THRESHOLD


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    st.builds(ProductSpec, st.integers(1, 40), st.integers(1, 45)),
    st.integers(2, 130),
    st.booleans(),
)
@example(ProductSpec(6, 379), 207, True)  # every r has a factor that is exactly zero
@example(ProductSpec(1, 733), 400, True)  # the same, on the double rung
def test_ladder_estimate_is_the_table_estimate(spec, modulus, trig):
    # the one estimate of _ladder equals the one the tables give at each rung
    sn = spec.s * spec.n
    lead = (-1) ** ((sn + 1) // 2) * 2**sn if trig else 1
    rungs = [prec for prec in MP_PRECISION_LADDER if prec <= 256]
    if sn <= _FAST_SN_LIMIT:
        rungs.insert(0, FAST_PRECISION_BITS)
    log2_err = _ladder(spec, modulus)[1]
    for prec in rungs:
        expected = mpmath.mpf(_estimate(trig, lead, spec, modulus, prec))
        if not mpmath.isfinite(expected):
            continue
        got = mpmath.mpf(2) ** (log2_err - prec)
        if expected <= 1e-6:
            assert abs(got - expected) <= 1e-6
        else:
            assert abs(got - expected) <= 1e-9 * expected


def _sum_arguments(route, spec, query):
    """The (factor, phase, x, lead, spec, N) a route hands to _rounded_sum."""
    seen = []
    with patch.object(characters, "_rounded_sum", lambda *args: seen.append(args) or (0, 0)):
        route(spec, query)
    return seen[0]


@st.composite
def _audit_queries(draw):
    # n up to 60 or N/2 + 2, where prefix products dip far below the final one
    modulus = draw(st.integers(2, 300))
    spec = ProductSpec(draw(st.integers(1, 30)), draw(st.integers(1, max(60, modulus // 2 + 2))))
    return spec, ProgressionQuery(modulus, draw(st.integers(0, modulus - 1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_audit_queries())
@example((ProductSpec(27, 29), ProgressionQuery(36, 18)))  # accepted at 512 bits
@example((ProductSpec(30, 60), ProgressionQuery(300, 299)))
# n near N/2: for r = 1 the prefix products dip about 2^(0.23 N) below the
# final product; with a fixed 32 guard bits the first sum stayed within the
# estimate by only 2^3.4 and the other three exceeded it by 2^10 to 2^21
@example((ProductSpec(10, 100), ProgressionQuery(200, 7)))
@example((ProductSpec(7, 150), ProgressionQuery(300, 1)))
@example((ProductSpec(1, 142), ProgressionQuery(285, 3)))
@example((ProductSpec(30, 125), ProgressionQuery(250, 100)))
def test_every_rung_is_within_the_estimate(case):
    # at every rung of the full ladder, both routes' unrounded sums are within
    # 2^(log2_err - prec) of the exact sum, and each route accepts the first
    # rung _ladder keeps, or raises when even that fails the estimate
    spec, query = case
    exact = progression_sum_oracle(spec, query)
    ladder, log2_err, _ = _ladder(spec, query.modulus)
    full = MP_PRECISION_LADDER
    if spec.s * spec.n <= _FAST_SN_LIMIT:
        full = (FAST_PRECISION_BITS, *full)
    for route in (character_sum_with_precision, trig_form_with_precision):
        arguments = _sum_arguments(route, spec, query)
        for prec in full:
            num, den = _unrounded_sum(*arguments, prec)
            if prec == FAST_PRECISION_BITS and not math.isfinite(num):
                continue
            error = abs(num - exact * den)
            assert error == 0 or math.log2(error) - math.log2(den) <= log2_err - prec
        if log2_err - ladder[0] < math.log2(RESIDUAL_THRESHOLD):
            assert route(spec, query) == (exact, ladder[0])
        else:
            with pytest.raises(PrecisionError):
                route(spec, query)


@pytest.mark.parametrize("s, n, modulus", [(7, 150, 300), (10, 100, 200)])
def test_routes_match_oracle_rows_at_half_modulus(s, n, modulus):
    # n = N/2 at the first rung: with 32 fixed guard bits the trig route got 68
    # of the 300 residues of (7, 150, 300) wrong at 64 bits
    spec, row = ProductSpec(s, n), oracle_row(ProductSpec(s, n), modulus)
    first = _ladder(spec, modulus)[0][0]
    for j in range(modulus):
        query = ProgressionQuery(modulus, j)
        assert character_sum_with_precision(spec, query) == (row[j], first)
        assert trig_form_with_precision(spec, query) == (row[j], first)


@pytest.mark.parametrize("spec, modulus", [(ProductSpec(1, 733), 400), (ProductSpec(2, 371), 201)])
def test_sine_factor_is_exactly_zero_on_the_double_rung(spec, modulus):
    # every r has a factor sin(pi*a*r/N) with a*r = N (mod 2N); a stray 1.2e-16
    # there, times 2^(s*n), would be rounded into a wrong integer
    row = oracle_row(spec, modulus)
    for j in range(modulus):
        query = ProgressionQuery(modulus, j)
        assert trig_form_with_precision(spec, query) == (row[j], 53)


def test_character_tables_follow_the_coefficient_cap(monkeypatch):
    # n * floor(N/2) table entries are checked against the cap before any table
    monkeypatch.setenv("QPRODUCT_COEFF_CAP", "100")
    spec = ProductSpec(1, 2)
    for route in (character_sum_with_precision, trig_form_with_precision):
        for modulus in (100, 101):
            query = ProgressionQuery(modulus, 0)
            assert route(spec, query) == (progression_sum_oracle(spec, query), 53)
        for modulus in (102, 1000):
            with pytest.raises(ResourceLimitError, match="cap is 100"):
                route(spec, ProgressionQuery(modulus, 0))


def test_table_cache_memory_stays_bounded():
    # each table at N near 10^6 holds 5*10^5 complex doubles (8 MB); a cache
    # bounded only by count keeps all twelve, and the traced peak passes 110 MB.
    # tracemalloc, since a child's ru_maxrss can inherit this process's peak.
    script = (
        "import tracemalloc\n"
        "from qproduct.characters import character_sum_with_precision\n"
        "from qproduct.poly import ProductSpec, ProgressionQuery\n"
        "tracemalloc.start()\n"
        "for i in range(12):\n"
        "    character_sum_with_precision(ProductSpec(1, 1), ProgressionQuery(10**6 + i, 0))\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True,
    )
    assert int(proc.stdout) < 88 * 2**20


def test_table_temporaries_stay_bounded():
    # n * floor(N/2) = 5*10^6 entries at (1, 40, 250000): the whole k = a*r
    # matrix and its temporaries peaked at 192 MB (character) and 154 MB
    # (trig) traced; column blocks of at most 2^20 entries keep both near 40 MB
    script = (
        "import tracemalloc\n"
        "from qproduct.characters import character_sum_with_precision, trig_form_with_precision\n"
        "from qproduct.poly import ProductSpec, ProgressionQuery\n"
        "tracemalloc.start()\n"
        "for route in (character_sum_with_precision, trig_form_with_precision):\n"
        "    tracemalloc.reset_peak()\n"
        "    route(ProductSpec(1, 40), ProgressionQuery(250000, 0))\n"
        "    print(tracemalloc.get_traced_memory()[1])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True,
    )
    peaks = [int(line) for line in proc.stdout.split()]
    assert len(peaks) == 2 and max(peaks) < 100 * 2**20


def test_double_rung_query_arrays_stay_bounded():
    # one query at (1, 2, N = 2*10^6) with its table already cached: the pair
    # weights as a list of 10^6 ints beside the phase temporaries peaked at
    # 53.4 MiB (character) and 30.6 MiB (trig) traced; a float array built
    # after the phases peaks at 45.8 and 23.0 MiB
    script = (
        "import tracemalloc\n"
        "from qproduct.characters import character_sum_with_precision, trig_form_with_precision\n"
        "from qproduct.poly import ProductSpec, ProgressionQuery\n"
        "for route in (character_sum_with_precision, trig_form_with_precision):\n"
        "    route(ProductSpec(1, 2), ProgressionQuery(2_000_000, 0))\n"
        "    tracemalloc.start()\n"
        "    print(route(ProductSpec(1, 2), ProgressionQuery(2_000_000, 1))[1])\n"
        "    print(tracemalloc.get_traced_memory()[1])\n"
        "    tracemalloc.stop()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True,
    )
    char_bits, char_peak, trig_bits, trig_peak = map(int, proc.stdout.split())
    assert char_bits == trig_bits == FAST_PRECISION_BITS
    assert char_peak < 50 * 2**20 and trig_peak < 27 * 2**20
