"""Partition parity counts, Gaussian binomials, and the classical series."""

import itertools
import math

import pytest

from oracles import poly_mul
from qproduct.errors import ResourceLimitError
from qproduct.partitions import (
    cauchy_identity_check,
    hecke_rogers_series,
    jacobi_series,
    parity_counts,
    pentagonal_series,
    q_binomial,
    series_to_coeffs,
    series_to_csv,
    stable_prefix_check,
    truncated_tau,
)
from qproduct.poly import ProductSpec, expand_restricted_product


def test_parity_examples():
    assert (parity_counts(1, 3, 0).even, parity_counts(1, 3, 0).odd) == (1, 0)
    pc = parity_counts(1, 3, 3)  # {1,2} even vs {3} odd
    assert (pc.even, pc.odd) == (1, 1) and pc.difference == 0
    pc = parity_counts(1, 3, 6)  # only {1,2,3}
    assert (pc.even, pc.odd) == (0, 1) and pc.difference == -1
    with pytest.raises(ValueError):
        parity_counts(1, 3, 7)


@pytest.mark.parametrize("s,n", list(itertools.product(range(1, 3), range(1, 7))))
def test_parity_difference_is_the_coefficient(s, n):
    spec = ProductSpec(s, n)
    p = expand_restricted_product(spec)
    for j in range(spec.degree + 1):
        assert parity_counts(s, n, j).difference == p[j]


@pytest.mark.parametrize("s,n", [(1, 4), (2, 3), (3, 2)])
def test_parity_total_counts_subset_tuples(s, n):
    # even + odd is the coefficient of q^j in prod (1 + q^a)^s
    total_poly = [1]
    for a in range(1, n + 1):
        factor = [0] * (a + 1)
        factor[0], factor[a] = 1, 1
        for _ in range(s):
            total_poly = poly_mul(total_poly, factor)
    for j in range(len(total_poly)):
        pc = parity_counts(s, n, j)
        assert pc.even + pc.odd == total_poly[j]
        assert pc.even >= 0 and pc.odd >= 0


def test_q_binomial_examples():
    assert q_binomial(2, 1).coeffs == [1, 1]
    assert q_binomial(4, 2).coeffs == [1, 1, 2, 1, 1]
    assert q_binomial(3, 5).is_zero()
    with pytest.raises(ValueError):
        q_binomial(-1, 2)


@pytest.mark.parametrize("m", list(range(0, 9)))
def test_q_binomial_symmetry_and_palindromy(m):
    for r in range(m + 1):
        p = q_binomial(m, r)
        assert p == q_binomial(m, m - r)
        assert p.degree == r * (m - r)
        coeffs = p.coeffs[: p.degree + 1]
        assert all(c > 0 for c in coeffs)
        assert coeffs == coeffs[::-1]
        # value at q = 1 is the ordinary binomial coefficient
        assert sum(coeffs) == math.comb(m, r)


@pytest.mark.parametrize("n", list(range(1, 21)))
def test_cauchy_identity(n):
    assert cauchy_identity_check(n)


def test_pentagonal_series():
    assert [(t.exponent, t.coefficient) for t in pentagonal_series(5)] == [
        (0, 1), (1, -1), (2, -1), (5, 1),
    ]
    assert [(t.exponent, t.coefficient) for t in pentagonal_series(0)] == [(0, 1)]
    terms15 = {t.exponent: t.coefficient for t in pentagonal_series(15)}
    assert terms15[7] == 1 and terms15[12] == -1 and terms15[15] == -1


def test_jacobi_series_conventions():
    std = [(t.exponent, t.coefficient) for t in jacobi_series(3, "standard")]
    assert std == [(0, 1), (1, -3), (3, 5)]
    std6 = {t.exponent: t.coefficient for t in jacobi_series(6, "standard")}
    assert std6[6] == -7
    # the as-printed exponents collide at zero: 1 + (-3)
    printed = jacobi_series(0, "as-printed")
    assert [(t.exponent, t.coefficient) for t in printed] == [(0, -2)]
    with pytest.raises(ValueError):
        jacobi_series(3, "other")


def test_hecke_rogers_series():
    coeffs = series_to_coeffs(hecke_rogers_series(2), 2)
    assert coeffs == [1, -2, -1]


def test_series_to_coeffs_checks_the_cap_before_allocating(monkeypatch):
    monkeypatch.setenv("QPRODUCT_COEFF_CAP", "8")
    assert series_to_coeffs(hecke_rogers_series(2), 7) == [1, -2, -1, 0, 0, 0, 0, 0]
    with pytest.raises(ResourceLimitError, match="series needs 30000001 coefficients"):
        series_to_coeffs([], 30_000_000)


def test_series_exponents_strictly_increase():
    for terms in (pentagonal_series(40), jacobi_series(40), hecke_rogers_series(40)):
        exps = [t.exponent for t in terms]
        assert exps == sorted(set(exps))
        assert all(t.coefficient != 0 for t in terms)


def test_series_csv():
    text = series_to_csv(pentagonal_series(5))
    assert text.splitlines()[0] == "exponent,coefficient"
    assert text.splitlines()[1] == "0,1"


def test_stable_prefixes():
    assert stable_prefix_check(1, 12, pentagonal_series(12))
    assert stable_prefix_check(3, 10, jacobi_series(10, "standard"))
    assert stable_prefix_check(2, 10, hecke_rogers_series(10))
    # the as-printed convention must fail immediately at the constant term
    assert not stable_prefix_check(3, 10, jacobi_series(10, "as-printed"))


def test_truncated_tau_prefix():
    # classical leading values of the shifted 24th-power expansion
    tau_known = [1, -24, 252, -1472, 4830]
    p4 = truncated_tau(4)
    assert p4.coeffs[:5] == tau_known
    assert truncated_tau(1).coeffs[0] == 1
    assert truncated_tau(2).coeffs[:3] == tau_known[:3]
    assert p4.degree == 12 * 4 * 5
