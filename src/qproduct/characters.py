"""Character-sum formulas for coefficients of the truncated product.

For the cyclic group Z_N with characters psi_r(m) = exp(2*pi*i*m*r/N), the
progression sum M(j) = sum of t_i over exponents i = j (mod N) satisfies

    M(j) = (1/N) * sum_{r=1..N-1} psi_r^{-1}(j) * prod_{a=1..n} (1 - psi_r(a))^s,

which is a plain roots-of-unity filter applied to T(q) = prod (1 - q^a)^s:
the r-th summand is psi_r^{-1}(j) * T(psi_r(1)).  An equivalent all-real form
pairs r with N - r and evaluates sine/cosine products.  Both routes return
integers: one evaluator sums either form in floating point, from a vectorized
double-precision pass up through mpmath precisions, until the result sits
within 0.25 of an integer with the error estimate also below 0.25.  Both
routes climb one ladder: they skip the double pass past s*n = 900 and start
at the first precision whose estimate, computed once per (s, n, N) from
|T(psi_r(1))|, passes.  An mpmath table evaluates each root of unity once per
precision, the double table one numpy factor per (a, r).  The estimate is
first-order, not a proven bound, so the integer is not certified; it matches
the exact oracle on every input tested.

Special moduli give closed forms with no floating point at all: N = degree+1
isolates one coefficient per residue, and N = n+1 collapses to a totient
formula.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import mpmath
import numpy as np

from .errors import PrecisionError
from .poly import (
    ProductSpec,
    ProgressionQuery,
    _require_int,
    _require_under_cap,
    expand_restricted_product,
    progression_row,
)

RESIDUAL_THRESHOLD = 0.25
FAST_PRECISION_BITS = 53
MP_PRECISION_LADDER = (64, 128, 256, 512, 1024)
# Both routes skip the double rung past this s*n (2^(s*n) overflows): one ladder.
_FAST_SN_LIMIT = 900
_LOG2_THRESHOLD = math.log2(RESIDUAL_THRESHOLD)


@dataclass(frozen=True)
class CharacterIndex:
    """Character psi(m) = exp(2*pi*i*m*r/modulus) of Z_modulus; r = 0 is trivial."""

    r: int
    modulus: int

    def __post_init__(self):
        _require_int("index r", self.r)
        _require_int("modulus", self.modulus)
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.r < self.modulus:
            raise ValueError(f"index r must lie in [0, {self.modulus - 1}], got {self.r}")

    @property
    def is_trivial(self) -> bool:
        return self.r == 0

    @property
    def order(self) -> int:
        return self.modulus // math.gcd(self.r, self.modulus)

    def value(self, m: int) -> complex:
        """psi(m) as a double-precision complex number."""
        return cmath.exp(2j * cmath.pi * ((m * self.r) % self.modulus) / self.modulus)


def character_group(modulus: int, *, include_trivial: bool = False):
    """All characters of Z_modulus, in index order."""
    start = 0 if include_trivial else 1
    return [CharacterIndex(r, modulus) for r in range(start, modulus)]


def _factorize(m: int, name: str) -> dict[int, int]:
    """{p: e} with m = prod p^e, by trial division."""
    _require_int(f"{name} argument", m)
    if m < 1:
        raise ValueError(f"{name} argument must be >= 1, got {m}")
    factors = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        factors[m] = 1
    return factors


def euler_phi(m: int) -> int:
    """Euler totient by trial-division factorization."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in _factorize(m, "totient").items())


def mobius(m: int) -> int:
    """Moebius function by trial-division factorization."""
    exponents = _factorize(m, "Moebius").values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def ramanujan_sum(modulus: int, j: int) -> int:
    """Sum of psi^{-1}(j) over the full-order characters of Z_modulus.

    Exactly mu(d) * phi(N) / phi(d) with d = N / gcd(j, N); equals phi(N) at
    j = 0 and equals -1 for every j != 0 when N is prime.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    d = modulus // math.gcd(j, modulus)
    mu = mobius(d)
    if mu == 0:
        return 0
    return mu * (euler_phi(modulus) // euler_phi(d))


# ---------------------------------------------------------------------------
# rounding to an integer, shared by both routes

# Both routes sum lead/N * w_r * Re(phase(x*r) * table_r) over r = 1..N/2 with
# table_r = prod_a factor(a*r)^s, where r stands for the conjugate pair
# {r, N-r} (w_r = 2) or, for even N, the self-paired r = N/2 (w_r = 1).  The
# tables do not depend on the residue, so they are cached per (s, n, N) at
# double precision and per (s, n, N, prec) in mpmath; the mpmath cache stays
# small because single queries rarely reuse a spec.


class _Form(NamedTuple):
    """A factor or phase as a function of (k, N): numpy and mpmath forms."""

    f64: Callable
    mp: Callable


def _column_blocks(n: int, modulus: int):
    # k = a*r (a <= n, r <= N/2) in column blocks of at most 2^20 entries, which
    # bounds a table's temporaries; reductions are per column, so values match.
    a = np.arange(1, n + 1)[:, None]
    step = max(1, 2**20 // n)
    for lo in range(1, modulus // 2 + 1, step):
        yield a * np.arange(lo, min(lo + step, modulus // 2 + 1))


# A table holds N/2 complex doubles, so the cache keeps only a few: the two
# routes of one (s, n, N) alternate, and no caller reuses a table further back.
@lru_cache(maxsize=4)
def _table_f64(factor, s: int, n: int, modulus: int) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        columns = [factor(k, modulus).prod(axis=0) for k in _column_blocks(n, modulus)]
        return np.concatenate(columns) ** s


@lru_cache(maxsize=32)
def _table_mp(factor, s: int, n: int, modulus: int, prec: int) -> tuple:
    with mpmath.workprec(prec):
        # Both mp factor forms reduce k mod 2N first: one value per residue.
        value = lru_cache(maxsize=None)(lambda k: factor(k, modulus))
        return tuple(
            mpmath.fprod(value(a * r % (2 * modulus)) for a in range(1, n + 1)) ** s
            for r in range(1, modulus // 2 + 1)
        )


@lru_cache(maxsize=16384)
def _ladder(spec: ProductSpec, modulus: int) -> tuple[tuple, float]:
    """The rungs of _rounded_sum and log2_err: its estimate is 2^(log2_err - prec).

    The error estimate scale * 2^(1-prec) * (4sn+16), scale = |lead|/N *
    sum_r w_r |table_r|, is computed only here: log2|lead * table_r| is
    s * sum_a log2|2 sin(pi*a*r/N)| in both routes, which cannot overflow or
    underflow, and which agrees with both tables at every rung because each
    factor with a*r = 0 (mod N) is exactly zero in all four of them.  Rungs
    start at the first whose estimate is below 0.25, or at the last.
    """
    s, n, sn = spec.s, spec.n, spec.s * spec.n
    ladder = (FAST_PRECISION_BITS,) * (sn <= _FAST_SN_LIMIT) + MP_PRECISION_LADDER
    blocks = _column_blocks(n, modulus)
    with np.errstate(divide="ignore"):
        logs = s * np.concatenate(
            [np.log2(abs(2 * _SIN.f64(k, modulus))).sum(axis=0) for k in blocks]
        )
    logs[-1] -= modulus % 2 == 0  # so that logs + 1 adds log2 w_r, 0 for r = N/2
    log2_err = np.logaddexp2.reduce(logs + 1) - math.log2(modulus) + 1 + math.log2(4 * sn + 16)
    skip = sum(log2_err - prec >= _LOG2_THRESHOLD for prec in ladder[:-1])
    return ladder[skip:], float(log2_err)


def _rounded_sum(
    factor: _Form, phase: _Form, x: int, lead: int, spec: ProductSpec, modulus: int
) -> tuple[int, int]:
    """Round lead/N * sum_r w_r * Re(phase(x*r) * table_r) to an integer.

    Accepts the nearest integer once both the error estimate of _ladder (not
    a proven bound) and the rounding residual fall below 0.25.  Otherwise
    climbs from 53 bits (numpy, tried only when s*n <= 900) through the mpmath
    rungs 64, 128, ..., failing after 1024, starting where the estimate passes.
    An mpmath table evaluates each root of unity once per rung, the double
    table one numpy factor per (a, r).  Raises ResourceLimitError, before any
    table is built or looked up, if the n * floor(N/2) entries exceed the cap.
    """
    _require_under_cap("character table", spec.n * (modulus // 2), "entries")
    if modulus == 1:
        return 0, 0  # no nontrivial characters; the sum is empty
    ladder, log2_err = _ladder(spec, modulus)
    for prec in ladder:
        if prec == FAST_PRECISION_BITS:
            # Plain floats end to end: no mpmath context on the double rung.
            table = _table_f64(factor.f64, spec.s, spec.n, modulus)
            phases = phase.f64(x * np.arange(1, modulus // 2 + 1), modulus)
            w = np.full(modulus // 2, 2.0)  # the pair weights: 2, or 1 at r = N/2
            if modulus % 2 == 0:
                w[-1] = 1.0
            with np.errstate(over="ignore", invalid="ignore"):
                value = lead * float((w * (phases * table).real).sum()) / modulus
            if not math.isfinite(value):
                continue
            nearest = round(value)
            residual = abs(value - nearest)
        else:
            with mpmath.workprec(prec):
                table = _table_mp(factor.mp, spec.s, spec.n, modulus, prec)
                total = mpmath.mpf(0)
                for r, t in enumerate(table, 1):
                    total += (2 - (2 * r == modulus)) * (phase.mp(x * r, modulus) * t).real
                value = lead * total / modulus
            # Round at working precision, not the global default.
            with mpmath.workprec(prec + 16):
                nearest = int(mpmath.nint(value))
                residual = abs(value - nearest)
        if log2_err - prec < _LOG2_THRESHOLD and residual < RESIDUAL_THRESHOLD:
            return nearest, prec
    raise PrecisionError(
        f"certified rounding failed at 1024 bits (last residual {float(residual):.3g})"
    )


# ---------------------------------------------------------------------------
# character-sum route (label main00)

# factor 1 - psi_r(a) and phase psi_r^{-1}(j), with k = a*r and k = j*r
_CHAR_FACTOR = _Form(
    lambda k, N: 1.0 - np.exp((2j * np.pi / N) * (k % N)),
    lambda k, N: 1 - mpmath.expjpi(mpmath.mpf(2 * (k % N)) / N),
)
_CHAR_PHASE = _Form(
    lambda k, N: np.exp(-2j * np.pi * (k % N) / N),
    lambda k, N: mpmath.expjpi(mpmath.mpf(-2 * (k % N)) / N),
)


def character_sum_with_precision(
    spec: ProductSpec, query: ProgressionQuery
) -> tuple[int, int]:
    """Same as character_sum_main00, also reporting the precision bits used."""
    return _rounded_sum(_CHAR_FACTOR, _CHAR_PHASE, query.residue, 1, spec, query.modulus)


def character_sum_main00(spec: ProductSpec, query: ProgressionQuery) -> int:
    """Progression sum via the character filter over Z_N (label main00).

    Evaluates (1/N) * sum_{r != 0} psi_r^{-1}(j) * prod_a (1 - psi_r(a))^s
    and rounds it once the first-order error estimate allows; equals
    progression_sum_oracle on all inputs tested.
    """
    return character_sum_with_precision(spec, query)[0]


# ---------------------------------------------------------------------------
# trigonometric route (label main0000)

# sin(pi*k/N) is the factor (k = a*r) and, for odd s*n, the phase
# (k = (2j - degree)*r); cos(pi*k/N) is the phase for even s*n.  The numpy
# sine is set to exactly zero at k = 0 (mod N), as mpmath's sinpi is, where
# np.sin(pi) is 1.2e-16: a stray factor times 2^(s*n) is not small.
_SIN = _Form(
    lambda k, N: np.where(k % N, np.sin(np.pi * (k % (2 * N)) / N), 0.0),
    lambda k, N: mpmath.sinpi(mpmath.mpf(k % (2 * N)) / N),
)
_COS = _Form(
    lambda k, N: np.cos(np.pi * (k % (2 * N)) / N),
    lambda k, N: mpmath.cospi(mpmath.mpf(k % (2 * N)) / N),
)


def trig_form_with_precision(
    spec: ProductSpec, query: ProgressionQuery
) -> tuple[int, int]:
    """Same as trig_form_main0000, also reporting the precision bits used."""
    sn = spec.s * spec.n
    # The printed lead is (2i)^(sn+1) for odd sn and 2*(2i)^sn for even sn,
    # and the printed sum weighs the self-paired r = N/2 by 1/2 against 1 for
    # the pairs.  The shared weights are 1 and 2, so the lead is halved:
    # (-1)^ceil(sn/2) * 2^sn, an exact power of two.
    lead = (-1) ** ((sn + 1) // 2) * 2**sn
    delta = 2 * query.residue - spec.degree
    return _rounded_sum(_SIN, _SIN if sn % 2 else _COS, delta, lead, spec, query.modulus)


def trig_form_main0000(spec: ProductSpec, query: ProgressionQuery) -> int:
    """Progression sum via the all-real sine/cosine form (label main0000).

    Uses the sine branch when s*n is odd and the cosine branch otherwise;
    rounded like character_sum_main00, and equal to it everywhere tested.
    """
    return trig_form_with_precision(spec, query)[0]


# ---------------------------------------------------------------------------
# special moduli


def single_coefficient_main0(spec: ProductSpec, j: int) -> int:
    """Coefficient t_j recovered by the filter at modulus degree+1 (label main0).

    With N = degree + 1 each residue class holds exactly one exponent, so the
    progression sum collapses to the single coefficient.
    """
    if not 0 <= j <= spec.degree:
        raise ValueError(f"coefficient index must lie in [0, {spec.degree}], got {j}")
    return character_sum_main00(spec, ProgressionQuery(spec.degree + 1, j))


def closed_form_main1(spec: ProductSpec, j: int) -> int:
    """Progression sum at modulus n+1 in closed form (label main1).

    Only the full-order characters of Z_{n+1} survive the product, each
    contributing (n+1)^s, so the sum is (n+1)^(s-1) times their character sum
    at j, i.e. (n+1)^(s-1) * ramanujan_sum(n+1, j).  This is
    (n+1)^(s-1) * phi(n+1) at j = 0 for every n, and -(n+1)^(s-1) for all
    j != 0 exactly when n+1 is prime.  Integer arithmetic only, and verified
    against the exact oracle on the acceptance grid.
    """
    if not 0 <= j <= spec.n:
        raise ValueError(f"residue must lie in [0, {spec.n}], got {j}")
    return (spec.n + 1) ** (spec.s - 1) * ramanujan_sum(spec.n + 1, j)


def vanishing_predicate_main000(spec: ProductSpec, query: ProgressionQuery) -> bool:
    """For odd s*n: does 2j = degree (mod N), forcing a zero progression sum?

    Label main000; `qproduct verify` checks that the exact sum vanishes
    wherever the congruence holds.
    """
    if (spec.s * spec.n) % 2 == 0:
        raise ValueError("vanishing predicate requires odd s*n")
    return (2 * query.residue - spec.degree) % query.modulus == 0


def small_modulus_vanishing(spec: ProductSpec, modulus: int) -> bool:
    """All progression sums vanish for moduli 1 <= N <= n-1 (label main00cor).

    Every nontrivial character of Z_N has order d with 2 <= d <= N < n, so the
    factor (1 - psi(d)) kills its product term.  Returns whether the exact
    row of progression sums mod N is all zero.
    """
    if not 1 <= modulus <= spec.n - 1:
        raise ValueError(
            f"modulus must lie in [1, {spec.n - 1}] for this identity, got {modulus}"
        )
    return progression_row(spec, modulus).is_zero()


def divisor_coefficients_div1(spec: ProductSpec) -> tuple[int, int]:
    """(t_D, t_{degree-D}) for D = degree, the only divisor in (degree/2, degree].

    Label div1; requires s and n odd, where the paper's pair is (-1, +1).  Read
    off the exact expansion; `qproduct verify` checks the value.  Every proper
    divisor of the degree is at most degree/2, so the paper's range admits
    D = degree alone.
    """
    if spec.s % 2 == 0 or spec.n % 2 == 0:
        raise ValueError("divisor-coefficient identity requires s and n odd")
    p = expand_restricted_product(spec)
    return p[spec.degree], p[0]


def midpoint_zero_peak1(spec: ProductSpec) -> int:
    """The middle coefficient t_{degree/2}, which vanishes for n = 3 (mod 4), s odd.

    Label peak1; read off the exact expansion, and `qproduct verify` checks
    that it is zero.
    """
    if spec.n % 4 != 3:
        raise ValueError("midpoint identity requires n = 3 (mod 4)")
    if spec.s % 2 == 0:
        raise ValueError("midpoint identity requires odd s")
    return expand_restricted_product(spec)[spec.degree // 2]


def tau_progression(n: int, j: int) -> int:
    """Progression sums of the 24th-power truncation mod n+1, in closed form.

    The s = 24 case of closed_form_main1: exactly (n+1)^23 * phi(n+1) for
    j = 0, and -(n+1)^23 for every j != 0 when n+1 is prime.  Exact
    big-integer arithmetic with no expansion; `qproduct verify --theorem tau`
    checks it against the exact oracle.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return closed_form_main1(ProductSpec(24, n), j)
