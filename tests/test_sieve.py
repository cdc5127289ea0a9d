"""Cycle-type combinatorics and the distinct-tuple sieve, against enumeration."""

import cmath
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import ordered_tuple_count, z_polynomial_partition_sum
from qproduct.characters import CharacterIndex
from qproduct.errors import ResourceLimitError
from qproduct.sieve import (
    CycleType,
    character_power_sums,
    egf_consistency_check,
    enumerate_cycle_types,
    f_psi_distinct_bruteforce,
    f_psi_sieve,
    f_psi_via_cycle_index,
    prop_lws_check,
    restricted_count_identity_check,
    z_polynomial,
)

TOL = 1e-9


def test_cycle_types_small():
    assert [(ct.counts, ct.permutation_count) for ct in enumerate_cycle_types(1)] == [
        ((1,), 1)
    ]
    k3 = {ct.counts: ct.permutation_count for ct in enumerate_cycle_types(3)}
    assert k3 == {(3, 0, 0): 1, (1, 1, 0): 3, (0, 0, 1): 2}
    k4 = enumerate_cycle_types(4)
    assert len(k4) == 5
    assert sum(ct.permutation_count for ct in k4) == 24


@pytest.mark.parametrize("k", list(range(1, 13)))
def test_cycle_type_counts_sum_to_factorial(k):
    types = enumerate_cycle_types(k)
    assert sum(ct.permutation_count for ct in types) == math.factorial(k)
    if k >= 2:
        assert sum(ct.sign * ct.permutation_count for ct in types) == 0


def test_cycle_type_signs():
    assert CycleType((1,)).sign == 1
    assert CycleType((0, 1)).sign == -1  # a transposition
    assert CycleType((0, 0, 1)).sign == 1  # a 3-cycle
    with pytest.raises(ResourceLimitError):
        enumerate_cycle_types(40)


def test_z_polynomial_small():
    assert z_polynomial(1, [7]) == 7
    for t1, t2 in [(2, 5), (-1, 3), (0.5, -0.25)]:
        assert abs(z_polynomial(2, [t1, t2]) - (t1**2 + t2)) < TOL
    assert z_polynomial(3, [1, 1, 1]) == 6
    with pytest.raises(ValueError):
        z_polynomial(3, [1, 1])


@pytest.mark.parametrize("k", list(range(1, 11)))
def test_z_recurrence_matches_partition_sum(k):
    vectors = [
        [1] * k,
        [(-1) ** i * (i + 0.5) for i in range(1, k + 1)],
        [complex(i, -i) for i in range(1, k + 1)],
    ]
    for t in vectors:
        a = z_polynomial(k, t)
        b = z_polynomial_partition_sum(k, t)
        assert abs(a - b) <= TOL * max(1.0, abs(b))


def test_egf_consistency():
    # all-ones: exp(-log(1-u)) = 1/(1-u), so Z_k = k!
    assert egf_consistency_check(5, [1] * 5)
    assert all(z_polynomial(k, [1] * k) == math.factorial(k) for k in range(1, 6))
    assert egf_consistency_check(1, [3.25])
    assert egf_consistency_check(6, [(-1) ** i for i in range(1, 7)])


def test_bruteforce_examples():
    trivial = CharacterIndex(0, 5)
    psi = CharacterIndex(1, 5)
    # k = 1 reduces to the plain character sum over {1..n}
    sums = character_power_sums(4, 1, psi)
    assert abs(f_psi_distinct_bruteforce(4, 1, psi) - sums[0]) < TOL
    assert abs(f_psi_distinct_bruteforce(3, 2, trivial) - 6) < TOL
    assert abs(f_psi_distinct_bruteforce(3, 3, trivial) - 6) < TOL
    assert f_psi_distinct_bruteforce(3, 4, trivial) == 0
    with pytest.raises(ResourceLimitError):
        f_psi_distinct_bruteforce(30, 6, CharacterIndex(0, 7))


def test_sieve_falling_factorial_for_trivial_character():
    for n in range(1, 7):
        for k in range(1, n + 1):
            got = f_psi_sieve(n, k, CharacterIndex(0, 3))
            assert abs(got - ordered_tuple_count(n, k)) < TOL


@pytest.mark.parametrize("modulus", list(range(1, 9)))
def test_sieve_routes_agree_with_bruteforce(modulus):
    for n in range(1, 6):
        for k in range(1, n + 1):
            for r in range(modulus):
                psi = CharacterIndex(r, modulus)
                brute = f_psi_distinct_bruteforce(n, k, psi)
                assert abs(f_psi_sieve(n, k, psi) - brute) < TOL
                assert abs(f_psi_via_cycle_index(n, k, psi) - brute) < TOL


def test_cycle_index_specialization():
    # (-1)^k Z_k(-s_1..-s_k) equals k! [u^k] prod (1 - u psi(a)) by construction;
    # both must equal the enumerated sum, including odd n.
    psi = CharacterIndex(1, 4)
    for n, k in [(1, 1), (3, 2), (5, 3)]:
        brute = f_psi_distinct_bruteforce(n, k, psi)
        assert abs(f_psi_via_cycle_index(n, k, psi) - brute) < TOL


def test_power_sum_magnitudes():
    for modulus in range(1, 8):
        for r in range(modulus):
            sums = character_power_sums(6, 4, CharacterIndex(r, modulus))
            assert all(abs(v) <= 6 + TOL for v in sums)


def test_prop_lws_examples():
    assert all(prop_lws_check(4, 2, CharacterIndex(r, 5)) for r in range(5))
    assert prop_lws_check(3, 1, CharacterIndex(2, 7))
    assert prop_lws_check(5, 3, CharacterIndex(2, 6))  # order-3 character


def test_restricted_count_examples():
    # 2-subsets of {1,2,3} with even sum: only {1,3}
    assert restricted_count_identity_check(1, 3, 2, 0, (2,))
    assert restricted_count_identity_check(1, 3, 1, 0, (1,))
    assert restricted_count_identity_check(2, 3, 3, 0, (1, 1))


def test_restricted_count_validation():
    with pytest.raises(ValueError):
        restricted_count_identity_check(2, 3, 3, 0, (1,))
    with pytest.raises(ValueError):
        restricted_count_identity_check(1, 3, 3, 0, (4,))
    with pytest.raises(ResourceLimitError):
        restricted_count_identity_check(3, 20, 3, 0, (10, 10, 10))


def test_restricted_count_grid():
    for n in range(1, 5):
        for modulus in range(1, 6):
            for j in range(modulus):
                for k1 in range(n + 1):
                    assert restricted_count_identity_check(1, n, modulus, j, (k1,))
    for k1 in range(4):
        for k2 in range(4):
            assert restricted_count_identity_check(2, 3, 4, 1, (k1, k2))


@st.composite
def _restricted_counts(draw):
    s = draw(st.integers(1, 3))
    n = draw(st.integers(1, 16))
    modulus = draw(st.integers(1, 12))
    k_tuple = tuple(draw(st.integers(0, n)) for _ in range(s))
    # keeps the enumerated left side small for a fast suite
    assume(math.prod(math.comb(n, k) for k in k_tuple) <= 20_000)
    return s, n, modulus, draw(st.integers(0, modulus - 1)), k_tuple


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_restricted_counts())
@example((1, 16, 7, 3, (8,)))  # both sides 74,108,160: too large for 1e-9 in floats
@example((3, 9, 12, 11, (8, 6, 8)))  # a float character sum misses this by 2e-3
def test_restricted_count_identity_is_exact(case):
    s, n, modulus, j, k_tuple = case
    assert restricted_count_identity_check(s, n, modulus, j, k_tuple)


def test_sieve_at_a_huge_modulus():
    psi = CharacterIndex(1, 10**7)
    assert abs(f_psi_sieve(5, 2, psi) - f_psi_distinct_bruteforce(5, 2, psi)) < TOL


def test_sieve_keeps_relative_accuracy_at_large_n():
    # prod_{a<=100} (1 - u*w^a) = (1 - u^3)^33 * (1 - u*w), w = e^(2 pi i/3),
    # so F = 49! * C(33, 16) * w, while a 49-subset count by sum is ~1e28.
    omega = cmath.exp(2j * cmath.pi / 3)
    exact = math.factorial(49) * math.comb(33, 16) * omega
    assert abs(f_psi_sieve(100, 49, CharacterIndex(1, 3)) - exact) < 1e-9 * abs(exact)


def test_subset_table_is_bounded_by_the_largest_sum_and_k():
    # 13 columns (sums 0..12) at N = 10^7; 3 rows of 1,200 columns at n = 600,
    # where all 601 rows of 10^5 columns would pass the coefficient cap
    assert restricted_count_identity_check(2, 5, 10**7, 3, (2, 3))
    assert restricted_count_identity_check(1, 600, 10**5, 7, (2,))
