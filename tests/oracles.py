"""Reference implementations that only the tests call.

Each is a plain, independent way to compute what a library routine computes
faster: the schoolbook product behind the expansion kernel, the direct sum
over cycle types behind the Z_k recurrence, and the falling factorial that
the sieve gives for the trivial character.
"""

import math
from typing import Sequence

from qproduct.sieve import enumerate_cycle_types


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Schoolbook product of two coefficient lists (the baseline contract)."""
    if not a or not b:
        return [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return out


def z_polynomial_partition_sum(k: int, t) -> complex:
    """Partition-sum oracle for z_polynomial (direct sum over cycle types)."""
    if k == 0:
        return 1
    t = list(t)
    if len(t) < k:
        raise ValueError(f"need {k} arguments t_1..t_k, got {len(t)}")
    total = 0
    for ct in enumerate_cycle_types(k):
        term = ct.permutation_count
        for i, c in enumerate(ct.counts, start=1):
            if c:
                term = term * t[i - 1] ** c
        total += term
    return total


def ordered_tuple_count(n: int, k: int) -> int:
    """Number n(n-1)...(n-k+1) of ordered k-tuples with distinct coordinates."""
    if k > n:
        return 0
    return math.factorial(n) // math.factorial(n - k)
