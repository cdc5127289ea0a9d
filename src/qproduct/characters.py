"""Character-sum formulas for coefficients of the truncated product.

For the cyclic group Z_N with characters psi_r(m) = exp(2*pi*i*m*r/N), the
progression sum M(j) = sum of t_i over exponents i = j (mod N) satisfies

    M(j) = (1/N) * sum_{r=1..N-1} psi_r^{-1}(j) * prod_{a=1..n} (1 - psi_r(a))^s,

which is a plain roots-of-unity filter applied to T(q) = prod (1 - q^a)^s:
the r-th summand is psi_r^{-1}(j) * T(psi_r(1)).  An equivalent all-real form
pairs r with N - r and evaluates sine/cosine products.  Both routes return
certified exact integers: the sums are evaluated in floating point, starting
with a vectorized double-precision pass and escalating through mpmath
precisions until the result sits within 0.25 of an integer with the error
estimate also below 0.25.

Special moduli give closed forms with no floating point at all: N = degree+1
isolates one coefficient per residue, and N = n+1 collapses to a totient
formula.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from .errors import PrecisionError
from .poly import (
    ProductSpec,
    ProgressionQuery,
    coefficient_cap,
    cyclic_reduce,
    expansion,
    progression_sum_oracle,
)

RESIDUAL_THRESHOLD = 0.25
FAST_PRECISION_BITS = 53
MP_PRECISION_LADDER = (64, 128, 256, 512, 1024)
# Fast path skipped when 2^(s*n) alone would overflow a double.
_FAST_SN_LIMIT = 900


@dataclass(frozen=True)
class CharacterIndex:
    """Character psi(m) = exp(2*pi*i*m*r/modulus) of Z_modulus; r = 0 is trivial."""

    r: int
    modulus: int

    def __post_init__(self):
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


def euler_phi(m: int) -> int:
    """Euler totient by trial-division factorization."""
    if m < 1:
        raise ValueError(f"totient argument must be >= 1, got {m}")
    result = m
    k = m
    p = 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if k > 1:
        result -= result // k
    return result


def mobius(m: int) -> int:
    """Moebius function by trial-division factorization."""
    if m < 1:
        raise ValueError(f"Moebius argument must be >= 1, got {m}")
    result = 1
    k = m
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if k > 1:
        result = -result
    return result


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
# certified rounding


def _certify(fast, mp_eval, op_factor: int) -> tuple[int, int]:
    """Round a floating evaluation to a certified integer.

    ``fast`` is None or a (value, scale) pair from the double-precision pass;
    ``mp_eval(prec)`` returns the same pair as mpmath reals.  ``scale`` bounds
    the magnitude handled by the sum and feeds a first-order error estimate
    scale * 2^(1-prec) * op_factor.  Accepts the nearest integer once both the
    estimate and the rounding residual fall below 0.25; otherwise doubles the
    precision, failing after 1024 bits.
    """
    if fast is not None:
        value, scale = fast
        if math.isfinite(value) and math.isfinite(scale):
            err = scale * 2.0 ** (1 - FAST_PRECISION_BITS) * op_factor
            nearest = round(value)
            if err < RESIDUAL_THRESHOLD and abs(value - nearest) < RESIDUAL_THRESHOLD:
                return int(nearest), FAST_PRECISION_BITS
    residual = None
    for prec in MP_PRECISION_LADDER:
        value, scale = mp_eval(prec)
        # Round and certify at working precision, not the global default.
        with mpmath.workprec(prec + 16):
            err = scale * mpmath.mpf(2) ** (1 - prec) * op_factor
            nearest = int(mpmath.nint(value))
            residual = abs(value - nearest)
            accepted = err < RESIDUAL_THRESHOLD and residual < RESIDUAL_THRESHOLD
        if accepted:
            return nearest, prec
    raise PrecisionError(
        f"certified rounding failed at 1024 bits (last residual {float(residual):.3g})"
    )


# ---------------------------------------------------------------------------
# character-sum route (label main00)

# Per-character products prod_a (1 - psi_r(a))^s are independent of the
# residue j, so they are cached per (s, n, N) and reused across queries.


@lru_cache(maxsize=16384)
def _char_products_f64(s: int, n: int, modulus: int) -> np.ndarray:
    r = np.arange(1, modulus // 2 + 1)
    a = np.arange(1, n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.exp((2j * np.pi / modulus) * (np.outer(a, r) % modulus))
        return (1.0 - z).prod(axis=0) ** s


def _pair_weights(modulus: int, count: int) -> np.ndarray:
    # r < N/2 stands for the conjugate pair {r, N-r}; r = N/2 is self-paired.
    w = np.full(count, 2.0)
    if modulus % 2 == 0 and count:
        w[-1] = 1.0
    return w


def character_sum_with_precision(
    spec: ProductSpec, query: ProgressionQuery
) -> tuple[int, int]:
    """Same as character_sum_main00, also reporting the precision bits used."""
    s, n = spec.s, spec.n
    modulus, j = query.modulus, query.residue
    if modulus == 1:
        return 0, 0  # no nontrivial characters; the sum is empty
    half = modulus // 2
    rr = np.arange(1, half + 1)
    weights = _pair_weights(modulus, half)

    fast = None
    if s * n <= _FAST_SN_LIMIT:
        prods = _char_products_f64(s, n, modulus)
        with np.errstate(over="ignore", invalid="ignore"):
            phase = np.exp(-2j * np.pi * ((j * rr) % modulus) / modulus)
            value = float((weights * (phase * prods).real).sum()) / modulus
            scale = float((weights * np.abs(prods)).sum()) / modulus
        fast = (value, scale)

    def mp_eval(prec: int):
        with mpmath.workprec(prec):
            total = mpmath.mpf(0)
            scale = mpmath.mpf(0)
            for r in range(1, half + 1):
                w = 1 if 2 * r == modulus else 2
                prod = mpmath.mpc(1)
                for a in range(1, n + 1):
                    prod *= 1 - mpmath.expjpi(mpmath.mpf(2 * ((a * r) % modulus)) / modulus)
                prod **= s
                phase = mpmath.expjpi(mpmath.mpf(-2 * ((j * r) % modulus)) / modulus)
                total += w * (phase * prod).real
                scale += w * abs(prod)
            return total / modulus, scale / modulus

    return _certify(fast, mp_eval, op_factor=4 * s * n + 16)


def character_sum_main00(spec: ProductSpec, query: ProgressionQuery) -> int:
    """Progression sum via the character filter over Z_N (label main00).

    Evaluates (1/N) * sum_{r != 0} psi_r^{-1}(j) * prod_a (1 - psi_r(a))^s
    with certified rounding; equals progression_sum_oracle on all inputs.
    """
    return character_sum_with_precision(spec, query)[0]


# ---------------------------------------------------------------------------
# trigonometric route (label main0000)


@lru_cache(maxsize=16384)
def _sin_products_f64(s: int, n: int, modulus: int) -> np.ndarray:
    r = np.arange(1, modulus // 2 + 1)
    a = np.arange(1, n + 1)
    sines = np.sin(np.pi * (np.outer(a, r) % (2 * modulus)) / modulus)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        return sines.prod(axis=0) ** s


def trig_form_with_precision(
    spec: ProductSpec, query: ProgressionQuery
) -> tuple[int, int]:
    """Same as trig_form_main0000, also reporting the precision bits used."""
    s, n = spec.s, spec.n
    modulus, j = query.modulus, query.residue
    if modulus == 1:
        return 0, 0
    sn = s * n
    delta = 2 * j - spec.degree
    # (2i)^(sn+1) for odd sn, 2*(2i)^sn for even sn; both real.
    if sn % 2:
        lead = (-1) ** ((sn + 1) // 2) * 2 ** (sn + 1)
    else:
        lead = (-1) ** (sn // 2) * 2 ** (sn + 1)
    half = modulus // 2
    rr = np.arange(1, half + 1)
    # The printed sum runs over 1 <= r <= N/2 with the conjugate pair already
    # combined; the self-paired r = N/2 character (N even) carries weight 1/2.
    weights = _pair_weights(modulus, half) / 2.0

    fast = None
    if sn <= _FAST_SN_LIMIT:
        sin_prods = _sin_products_f64(s, n, modulus)
        angles = np.pi * ((delta * rr) % (2 * modulus)) / modulus
        osc = np.sin(angles) if sn % 2 else np.cos(angles)
        with np.errstate(over="ignore", invalid="ignore"):
            value = lead * float((weights * osc * sin_prods).sum()) / modulus
            scale = abs(lead) * float((weights * np.abs(sin_prods)).sum()) / modulus
        fast = (value, scale)

    def mp_eval(prec: int):
        with mpmath.workprec(prec):
            total = mpmath.mpf(0)
            scale = mpmath.mpf(0)
            for r in range(1, half + 1):
                w = mpmath.mpf(1) / 2 if 2 * r == modulus else mpmath.mpf(1)
                prod = mpmath.mpf(1)
                for a in range(1, n + 1):
                    prod *= mpmath.sinpi(mpmath.mpf((a * r) % (2 * modulus)) / modulus)
                prod **= s
                arg = mpmath.mpf((delta * r) % (2 * modulus)) / modulus
                osc = mpmath.sinpi(arg) if sn % 2 else mpmath.cospi(arg)
                total += w * osc * prod
                scale += w * abs(prod)
            return lead * total / modulus, abs(lead) * scale / modulus

    return _certify(fast, mp_eval, op_factor=4 * sn + 16)


def trig_form_main0000(spec: ProductSpec, query: ProgressionQuery) -> int:
    """Progression sum via the all-real sine/cosine form (label main0000).

    Uses the sine branch when s*n is odd and the cosine branch otherwise;
    certified-rounded, and equal to character_sum_main00 everywhere.
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

    Label main000.  When the congruence holds, the oracle sum is verified to
    vanish before returning True.
    """
    if (spec.s * spec.n) % 2 == 0:
        raise ValueError("vanishing predicate requires odd s*n")
    holds = (2 * query.residue - spec.degree) % query.modulus == 0
    if holds:
        actual = progression_sum_oracle(spec, query)
        if actual != 0:
            raise ArithmeticError(
                f"vanishing violated: s={spec.s} n={spec.n} N={query.modulus} "
                f"j={query.residue} gives {actual}"
            )
    return holds


def small_modulus_vanishing(spec: ProductSpec, modulus: int) -> bool:
    """All progression sums vanish for moduli 1 <= N <= n-1 (label main00cor).

    Every nontrivial character of Z_N has order d with 2 <= d <= N < n, so the
    factor (1 - psi(d)) kills its product term.  Returns the conjunction of
    oracle checks over all residues.
    """
    if not 1 <= modulus <= spec.n - 1:
        raise ValueError(
            f"modulus must lie in [1, {spec.n - 1}] for this identity, got {modulus}"
        )
    row = cyclic_reduce(expansion(spec), modulus)
    return all(c == 0 for c in row.coeffs)


def divisor_coefficients_div1(spec: ProductSpec, divisor: int) -> tuple[int, int]:
    """(t_D, t_{degree-D}) for a divisor D of the degree with degree/2 < D <= degree.

    Label div1; requires s and n odd, and the pair is verified against the
    exact expansion to equal (-1, +1).  Note the constraints admit only
    D = degree itself: any proper divisor is at most degree/2.  The stated
    wider range is still accepted and validated.
    """
    if spec.s % 2 == 0 or spec.n % 2 == 0:
        raise ValueError("divisor-coefficient identity requires s and n odd")
    big_n = spec.degree
    if divisor < 1 or big_n % divisor != 0:
        raise ValueError(f"{divisor} does not divide the degree {big_n}")
    if not big_n / 2 < divisor <= big_n:
        raise ValueError(f"divisor must lie in ({big_n / 2}, {big_n}], got {divisor}")
    p = expansion(spec)
    pair = (p[divisor], p[big_n - divisor])
    if pair != (-1, 1):
        raise ArithmeticError(
            f"divisor coefficients violated for s={spec.s} n={spec.n} D={divisor}: {pair}"
        )
    return pair


def midpoint_zero_peak1(spec: ProductSpec) -> int:
    """The middle coefficient t_{degree/2}, which vanishes for n = 3 (mod 4), s odd.

    Label peak1; the value is read off the exact expansion and verified to be
    zero before returning.
    """
    if spec.n % 4 != 3:
        raise ValueError("midpoint identity requires n = 3 (mod 4)")
    if spec.s % 2 == 0:
        raise ValueError("midpoint identity requires odd s")
    value = expansion(spec)[spec.degree // 2]
    if value != 0:
        raise ArithmeticError(
            f"midpoint coefficient violated for s={spec.s} n={spec.n}: {value}"
        )
    return value


def tau_progression(n: int, j: int) -> int:
    """Progression sums of the 24th-power truncation mod n+1, in closed form.

    The s = 24 case of closed_form_main1: exactly (n+1)^23 * phi(n+1) for
    j = 0, and -(n+1)^23 for every j != 0 when n+1 is prime.  Exact
    big-integer arithmetic; whenever the coefficient cap permits the full
    expansion, the value is cross-checked against the exact oracle.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= j <= n:
        raise ValueError(f"residue must lie in [0, {n}], got {j}")
    spec = ProductSpec(24, n)
    value = closed_form_main1(spec, j)
    if spec.degree + 1 <= coefficient_cap():
        actual = progression_sum_oracle(spec, ProgressionQuery(n + 1, j))
        if actual != value:
            raise ArithmeticError(
                f"tau progression mismatch at n={n}, j={j}: closed form {value}, "
                f"oracle {actual}"
            )
    return value
