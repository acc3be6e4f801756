"""Bach-kernel weighted prime sums, their main term, and comparison sums.

The smoothing weight (Nm p^r / x)^a * log(x / Nm p^r) is the closed form of
the contour kernel with a double pole at s = -a; at the default a = 1/4 the
residue of the weighted sum's pole at s = 1 is (16/25) * delta(chi) * x.
Every sum multiplies an array of character values by an array of weights
and adds the products with `math.fsum`, which is correctly rounded: the
result does not depend on the order of the primes, so it is bit-identical
across runs and worker counts.  The contour route and Li use numpy and `math`.
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
MAX_CONTOUR_HEIGHT: Final = 1e7    # the accuracy tests cover T <= 10^7


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

    It is (y^2/pi) Re int_0^T e^(iwt) (c+it)^(-2) dt, w = log y, c = 2 + a: by
    Cauchy's theorem the ray from 0 minus the ray from T, at angle +-pi/4 by the
    sign of w, where e^(iwt) decays; their strip misses the pole t = ic.  Each
    ray sums Gauss-Legendre panels growing by 1.5 to |w| r = 85.  Error O(y^2/T).
    """
    if not 0 < y < math.inf:
        raise DomainError(f"kernel argument y={y} must be positive and finite")
    if not 1e3 <= T <= MAX_CONTOUR_HEIGHT:
        raise DomainError(
            f"truncation height T={T} not finite and in [1000, {MAX_CONTOUR_HEIGHT:.0f}]")
    c, freq = 2.0 + a, math.log(y)
    if freq == 0.0:                    # antiderivative i/(c + i t)
        return T / (math.pi * (c * c + T * T))
    step = min(c, 1.0 / abs(freq)) / 4.0
    panels = math.ceil(math.log(85.0 / (abs(freq) * step), 1.5))
    edges = np.append(0.0, step * 1.5 ** np.arange(panels + 1))
    nodes, weights = np.polynomial.legendre.leggauss(40)
    half = np.diff(edges)[:, None] / 2.0
    r = (edges[:-1, None] + half * (1.0 + nodes)).ravel()
    ray = np.exp(1j * math.copysign(math.pi / 4.0, freq))
    decay = ray * (half * weights).ravel() * np.exp(1j * freq * ray * r)

    def from_point(t0):
        return np.exp(1j * freq * t0) * np.sum(decay / (c + 1j * (t0 + ray * r)) ** 2)
    return (y * y / math.pi) * float((from_point(0.0) - from_point(T)).real)


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


def _li_from_gamma(x: float) -> float:
    """li(x) - gamma for x > 1, by Ramanujan's series: log log x + sqrt(x) *
    sum_n (-1)^(n-1) (log x)^n / (n! 2^(n-1)) * sum_{k <= (n-1)/2} 1/(2k+1)."""
    log_x = math.log(x)
    terms, term, inner, n = [], -2.0, 0.0, 0
    while 2 * n < log_x or abs(terms[-1]) > 1e-17 * log_x:
        n += 1
        term *= -log_x / (2 * n)
        inner += (n % 2) / n
        terms.append(term * inner)
    return math.log(log_x) + math.sqrt(x) * math.fsum(terms)


def li(x: float) -> float:
    """Logarithmic integral from 2 to x, li(x) - li(2), by Ramanujan's series;
    within 1e-14 * max(1, value) of a 50-digit reference up to 10^12."""
    if not 2.0 <= x < math.inf:
        raise DomainError(f"Li lower limit is 2 and x must be finite, got x={x}")
    return _li_from_gamma(x) - _li_from_gamma(2.0)


def chebyshev_sum(evaluator: CharacterEvaluator, x: float) -> tuple[float, float]:
    """Unweighted character sum over good primes <= x next to delta * Li(x)."""
    primes = sieve_primes(int(x))
    total = math.fsum(evaluator.values(primes[evaluator.good(primes)], 1).tolist())
    return total, evaluator.delta * li(x)
