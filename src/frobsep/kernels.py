"""Bach-kernel weighted prime sums, their main term, and comparison sums.

The smoothing weight (Nm p^r / x)^a * log(x / Nm p^r) is the closed form of
the contour kernel with a double pole at s = -a; at the default a = 1/4 the
residue of the weighted sum's pole at s = 1 is (16/25) * delta(chi) * x.
Every sum multiplies an array of character values by an array of weights
and adds the products with `math.fsum`, which is correctly rounded: the
result does not depend on the order of the primes, so it is bit-identical
across runs and worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Final

import numpy as np

from .errors import DomainError
from .evaluators import CharacterEvaluator
from .store import sieve_primes

DEFAULT_KERNEL_A: Final = 0.25
CONTOUR_WINDOW: Final = 5_000.0    # QAWO window length; silent failure above ~1e4
MAX_CONTOUR_HEIGHT: Final = 1e7    # 2 000 windows, about 1 s per y


@dataclass(frozen=True)
class KernelParams:
    """Kernel exponent and cutoff for one weighted-sum evaluation."""

    x: float
    a: float = DEFAULT_KERNEL_A

    def __post_init__(self):
        if not 0.0 < self.a <= 0.25:
            raise DomainError(f"kernel exponent a={self.a} outside (0, 1/4]")
        if self.x < 2.0:
            raise DomainError(f"cutoff x={self.x} below 2")


@dataclass(frozen=True)
class KernelSumReport:
    """One weighted-sum evaluation with its main term and residuals."""

    x: float
    sum_value: float
    main_term: float
    residual: float
    residual_over_sqrtx: float
    residual_over_sqrtx_log3: float
    primes_used: int
    bad_primes_skipped: int

    CSV_HEADER = "x,sum,main,residual,res_sqrtx,res_sqrtx_log3,primes,skipped"

    def csv_row(self) -> str:
        nums = (self.x, self.sum_value, self.main_term, self.residual,
                self.residual_over_sqrtx, self.residual_over_sqrtx_log3)
        return ",".join([f"{v:.12g}" for v in nums]
                        + [str(self.primes_used), str(self.bad_primes_skipped)])


# ---------------------------------------------------------------------------
# the kernel itself


def bach_kernel(y: float, a: float) -> float:
    """Smoothing kernel: 0 below y = 1, y^(-a) * log(y) at and above."""
    if not 0 < y < math.inf:
        raise DomainError(f"kernel argument y={y} must be positive and finite")
    if not 0.0 < a < 1.0:
        raise DomainError(f"kernel exponent a={a} outside (0, 1)")
    if y < 1.0:
        return 0.0
    return y ** (-a) * math.log(y)


def bach_kernel_contour(y: float, a: float, T: float) -> float:
    """Truncated vertical-line integral (1/2 pi i) int y^s/(s+a)^2 ds on Re s = 2.

    The integrand decays like 1/t^2, so the truncation error is O(y^2/T);
    oscillatory quadrature runs on bounded windows because QAWO degrades
    silently on very long intervals.
    """
    if not 0 < y < math.inf:
        raise DomainError(f"kernel argument y={y} must be positive and finite")
    if not 1e3 <= T <= MAX_CONTOUR_HEIGHT:
        raise DomainError(
            f"truncation height T={T} not finite and in [1000, {MAX_CONTOUR_HEIGHT:.0f}]")
    from scipy.integrate import quad

    c = 2.0 + a
    freq = math.log(y)

    def cos_part(t):
        return (c * c - t * t) / (c * c + t * t) ** 2

    def sin_part(t):
        return 2.0 * c * t / (c * c + t * t) ** 2

    total = 0.0
    lo = 0.0
    while lo < T:
        hi = min(lo + CONTOUR_WINDOW, T)
        if freq == 0.0:
            piece, _ = quad(cos_part, lo, hi, limit=200)
        else:
            re_piece, _ = quad(cos_part, lo, hi, weight="cos", wvar=freq, limit=200)
            im_piece, _ = quad(sin_part, lo, hi, weight="sin", wvar=freq, limit=200)
            piece = re_piece + im_piece
        total += piece
        lo = hi
    return (y * y / math.pi) * total


# ---------------------------------------------------------------------------
# weighted prime sums


def _terms(evaluator: CharacterEvaluator, primes: np.ndarray, r: int,
           x: float, a: float) -> np.ndarray:
    """Summands at the good primes among `primes`, with q = p^r <= x: the
    eigenvalue power sum times the kernel weight log p * (q/x)^a * log(x/q)."""
    primes = primes[evaluator.good(primes)]
    q = primes ** r
    return evaluator.values(primes, r) * (np.log(primes) * (q / x) ** a
                                          * np.log(x / q))


def weighted_sum(evaluator: CharacterEvaluator,
                 params: KernelParams) -> KernelSumReport:
    """Kernel-weighted sum over good primes <= x, with its main term.

    Restricted to r = 1; prime powers are reported separately so the tail
    bound is directly testable.  Bad primes are skipped and counted.
    """
    x = params.x
    primes = sieve_primes(int(x))
    terms = _terms(evaluator, primes, 1, x, params.a)
    total = math.fsum(terms.tolist())
    main = evaluator.delta * x / (1.0 + params.a) ** 2
    residual = total - main
    logx = math.log(x)
    return KernelSumReport(
        x=x,
        sum_value=total,
        main_term=main,
        residual=residual,
        residual_over_sqrtx=residual / math.sqrt(x),
        residual_over_sqrtx_log3=residual / (math.sqrt(x) * logx ** 3),
        primes_used=len(terms),
        bad_primes_skipped=len(primes) - len(terms),
    )


def prime_power_tail(evaluator: CharacterEvaluator, x: float,
                     params: KernelParams | None = None) -> tuple[float, float]:
    """Sum of all r >= 2 terms with Nm p^r <= x, and its /(sqrt(x) log^3 x) ratio."""
    if params is None:
        params = KernelParams(x=max(x, 2.0))
    terms = []
    for r in range(2, int(x).bit_length()):      # every r with 2^r <= x
        primes = sieve_primes(int(x ** (1.0 / r)) + 1)
        terms.extend(_terms(evaluator, primes[primes ** r <= x], r, x,
                            params.a).tolist())
    total = math.fsum(terms)
    return total, total / (math.sqrt(x) * math.log(x) ** 3)


def li(x: float) -> float:
    """Logarithmic integral from 2 to x by adaptive quadrature."""
    from scipy.integrate import quad

    if x < 2.0:
        raise DomainError(f"Li lower limit is 2, got x={x}")
    if x == 2.0:
        return 0.0
    value, _ = quad(lambda t: 1.0 / math.log(t), 2.0, x, limit=200)
    return value


def chebyshev_sum(evaluator: CharacterEvaluator, x: float) -> tuple[float, float]:
    """Unweighted character sum over good primes <= x next to delta * Li(x)."""
    primes = sieve_primes(int(x))
    total = math.fsum(evaluator.values(primes[evaluator.good(primes)], 1).tolist())
    return total, evaluator.delta * li(x)
