"""Cycle-type sieve over distinct-coordinate tuples.

Sums of f_psi(x) = psi(x_1)...psi(x_k) over the k-tuples from {1..n} with
distinct coordinates can be rewritten as a signed sum over cycle types of the
symmetric group S_k: each type contributes sign * (class size) * a product of
character power sums.  Packaging the types into the generating polynomial
Z_k(t_1..t_k) = sum N(c) t_1^c1...t_k^ck with EGF exp(sum t_i u^i / i) turns
that into a coefficient extraction:

    F_psi(distinct k-tuples) = (-1)^k * k! * [u^k] prod_{a=1..n} (1 - u*psi(a)).

f_psi_sieve expands that product in complex doubles.  The subset-count
identity uses the rows C_k = (-1)^k [u^k] prod_a (1 - u*q^a) of Z[q]/(q^N - 1),
which count the k-subsets of {1..n} by sum mod N, so it compares integers.
Every identity here is verified at desk scale against direct enumeration.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .characters import CharacterIndex
from .errors import ResourceLimitError
from .poly import _require_under_cap

MAX_CYCLE_K = 26
MAX_BRUTEFORCE_TUPLES = 500_000
MAX_SUBSET_TUPLES = 300_000
COMPLEX_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CycleType:
    """Cycle type (1^c1, ..., k^ck) of a permutation in S_k."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("cycle counts must be non-negative")

    @property
    def k(self) -> int:
        return sum(i * c for i, c in enumerate(self.counts, start=1))

    @property
    def permutation_count(self) -> int:
        """Number of permutations of S_k with this cycle type: k!/prod i^ci ci!."""
        denom = 1
        for i, c in enumerate(self.counts, start=1):
            denom *= i**c * math.factorial(c)
        return math.factorial(self.k) // denom

    @property
    def sign(self) -> int:
        """Permutation sign (-1)^(k - number of cycles)."""
        return -1 if (self.k - sum(self.counts)) % 2 else 1


def _partitions_ascending(k: int, smallest: int = 1):
    if k == 0:
        yield ()
        return
    for part in range(smallest, k + 1):
        for rest in _partitions_ascending(k - part, part):
            yield (part,) + rest


def enumerate_cycle_types(k: int) -> list[CycleType]:
    """All cycle types of S_k, in lexicographic order of the ascending partition."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > MAX_CYCLE_K:
        raise ResourceLimitError(f"cycle-type enumeration capped at k = {MAX_CYCLE_K}")
    types = []
    for partition in _partitions_ascending(k):
        counts = [0] * k
        for part in partition:
            counts[part - 1] += 1
        types.append(CycleType(tuple(counts)))
    return types


def z_polynomial(k: int, t) -> complex:
    """Z_k(t_1..t_k) = sum over cycle types of N(c) * prod t_i^ci.

    Evaluated by the O(k^2) recurrence from the exponential generating
    function, Z_k = sum_i (k-1)!/(k-i)! * t_i * Z_{k-i}; the tests check it
    against the explicit partition sum, z_polynomial_partition_sum in
    tests/oracles.py.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    t = list(t)
    if len(t) < k:
        raise ValueError(f"need {k} arguments t_1..t_k, got {len(t)}")
    z = [1]
    for m in range(1, k + 1):
        fact = math.factorial(m - 1)
        z.append(sum(fact // math.factorial(m - i) * t[i - 1] * z[m - i] for i in range(1, m + 1)))
    return z[k]


def egf_consistency_check(k_max: int, t) -> bool:
    """Coefficients of exp(sum t_i u^i / i) match Z_k(t)/k! for k <= k_max.

    Both sides are computed with truncated formal series arithmetic and
    compared to within 1e-9.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > 64:
        raise ResourceLimitError("series check capped at k_max = 64")
    t = list(t)
    if len(t) < k_max:
        raise ValueError(f"need {k_max} arguments, got {len(t)}")
    # E = exp(S) with S = sum t_i u^i / i via m*E_m = sum i*S_i*E_{m-i}.
    series = [0] + [t[i - 1] / i for i in range(1, k_max + 1)]
    exp_coeffs = [1.0 + 0j]
    for m in range(1, k_max + 1):
        exp_coeffs.append(
            sum(i * series[i] * exp_coeffs[m - i] for i in range(1, m + 1)) / m
        )
    for k in range(1, k_max + 1):
        lhs = exp_coeffs[k]
        rhs = z_polynomial(k, t[:k]) / math.factorial(k)
        if abs(lhs - rhs) > COMPLEX_TOLERANCE:
            return False
    return True


def character_power_sums(n: int, k: int, psi: CharacterIndex) -> list[complex]:
    """Power sums s_i = sum_{a=1..n} psi(a)^i for i = 1..k; each |s_i| <= n."""
    return [sum(psi.value(i * a) for a in range(1, n + 1)) for i in range(1, k + 1)]


def f_psi_distinct_bruteforce(n: int, k: int, psi: CharacterIndex) -> complex:
    """Sum of psi(x_1)...psi(x_k) over distinct-coordinate tuples, by enumeration."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if k > n:
        return 0j
    if n**k > MAX_BRUTEFORCE_TUPLES:
        raise ResourceLimitError(
            f"brute force over {n}^{k} tuples exceeds cap {MAX_BRUTEFORCE_TUPLES}"
        )
    values = [psi.value(a) for a in range(1, n + 1)]
    total = 0j
    for combo in itertools.permutations(values, k):
        term = 1 + 0j
        for v in combo:
            term *= v
        total += term
    return total


def _subset_sums(n: int, modulus: int, k_max: int) -> np.ndarray:
    """Row k <= k_max, entry m: k-subsets of {1..n} with sum = m (mod N)."""
    top = k_max * (2 * n - k_max + 1) // 2  # the k_max largest elements' sum
    width = min(modulus, top + 1)  # no sum wraps past it
    _require_under_cap("subset-sum table", (k_max + 1) * width, "entries")
    table = np.zeros((k_max + 1, width), dtype=object)
    table[0, 0] = 1
    for a in range(1, n + 1):
        # C_k += q^a C_{k-1}; np.roll copies, so the rows read are the old ones.
        table[1:] += np.roll(table[:-1], a, axis=1)
    return table


def f_psi_sieve(n: int, k: int, psi: CharacterIndex) -> complex:
    """Sieve evaluation of the distinct-tuple character sum.

    Computes (-1)^k * k! * [u^k] prod_{a=1..n} (1 - u*psi(a)) by expanding the
    degree-n product in u with complex coefficients.  For the trivial
    character this reduces to the ordered-tuple count n!/(n-k)!.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if k > n:
        return 0j
    coeffs = [1 + 0j]
    for a in range(1, n + 1):
        root = psi.value(a)
        nxt = [0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] -= c * root
        coeffs = nxt
    return (-1) ** k * math.factorial(k) * coeffs[k]


def f_psi_via_cycle_index(n: int, k: int, psi: CharacterIndex) -> complex:
    """Distinct-tuple character sum as (-1)^k * Z_k(-s_1, ..., -s_k)."""
    sums = character_power_sums(n, k, psi)
    return (-1) ** k * z_polynomial(k, [-v for v in sums])


def prop_lws_check(n: int, k: int, psi: CharacterIndex) -> bool:
    """Signed cycle-type expansion agrees with direct enumeration.

    Checks F_psi(distinct tuples) = sum over cycle types of
    sign * N(c) * prod_i s_i^ci against f_psi_distinct_bruteforce, to 1e-9.
    """
    sums = character_power_sums(n, k, psi)
    total = 0j
    for ct in enumerate_cycle_types(k):
        term = complex(ct.sign * ct.permutation_count)
        for i, c in enumerate(ct.counts, start=1):
            if c:
                term *= sums[i - 1] ** c
        total += term
    return abs(total - f_psi_distinct_bruteforce(n, k, psi)) < COMPLEX_TOLERANCE


def restricted_count_identity_check(s, n, modulus, j, k_tuple) -> bool:
    """Subset-tuple counts match the character-sum expression (the sieve's input).

    Left side: the number of tuples (V_1..V_s) of subsets of {1..n} with
    |V_i| = k_i and total element sum = j (mod N), by direct enumeration.
    Right side: (1/N) * sum over psi of psi^{-1}(j) * prod_i F_psi(k_i)/k_i!,
    which by Fourier inversion on Z_N is the sum of the entries = j (mod N)
    of C_{k_1}...C_{k_s}.  True when the two integers are equal.
    """
    k_tuple = tuple(k_tuple)
    if s != len(k_tuple):
        raise ValueError(f"s = {s} does not match len(k_tuple) = {len(k_tuple)}")
    if any(k < 0 or k > n for k in k_tuple):
        raise ValueError("each k_i must lie in [0, n]")
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    total_tuples = math.prod(math.comb(n, k) for k in k_tuple)
    if total_tuples > MAX_SUBSET_TUPLES:
        raise ResourceLimitError(
            f"{total_tuples} subset tuples exceed cap {MAX_SUBSET_TUPLES}"
        )

    pools = [map(sum, itertools.combinations(range(1, n + 1), k)) for k in k_tuple]
    count = sum(sum(sums) % modulus == j % modulus for sums in itertools.product(*pools))

    rows = _subset_sums(n, modulus, max(k_tuple, default=0))[list(k_tuple)]
    product = functools.reduce(np.convolve, rows, np.ones(1, dtype=object))
    return count == sum(product[j % modulus :: modulus])
