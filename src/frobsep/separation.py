"""Sign-separating primes: the positivity criterion, searches, and scans.

A good prime separates a pair of abelian varieties when the two Frobenius
traces are nonzero and of opposite sign; the separator character is
positive there and nowhere else inside the open Weil box, so corpus scans
probe the least such prime against log(2 N N')^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryCase, FrobsepError, WeilViolation
from .store import TraceTable, sieve_primes

CSV_HEADER = "labelA,labelB,N,N2,least_prime,log_bound,ratio"


@dataclass(frozen=True)
class SeparationRecord:
    """Outcome of one least-separating-prime search."""

    label_a: str
    label_b: str
    conductor_a: int
    conductor_b: int
    least_prime: int | None
    log_bound: float
    ratio: float | None
    note: str = ""

    def csv_row(self) -> str:
        least = "" if self.least_prime is None else str(self.least_prime)
        ratio = "" if self.ratio is None else f"{self.ratio:.12g}"
        return (f"{self.label_a},{self.label_b},{self.conductor_a},"
                f"{self.conductor_b},{least},{self.log_bound:.12g},{ratio}")


def _psi_factors(t: float, t2: float, g: int, g2: int) -> tuple[float, ...]:
    if abs(t) > 2 * g or abs(t2) > 2 * g2:
        raise WeilViolation(
            f"traces ({t}, {t2}) leave the Weil box for (g, g') = ({g}, {g2})")
    return t, t2, t - 2 * g, t2 + 2 * g2


def psi_value(t: float, t2: float, g: int, g2: int) -> float:
    """Separator value at normalized traces: t * t2 * (t - 2g) * (t2 + 2g2).

    It is the rounded float product, except where every factor is nonzero
    and the product underflows to 0: then it is the smallest subnormal
    with the exact product's sign, so its sign is always the true one.
    """
    factors = _psi_factors(t, t2, g, g2)
    value = math.prod(factors)
    if value == 0.0 and all(factors):     # the signed zero keeps the sign
        return math.copysign(math.ulp(0.0), value)
    return value


def sign_criterion_equivalence(t: float, t2: float, g: int,
                               g2: int) -> tuple[bool, bool]:
    """(psi > 0, t * t2 < 0); the two agree strictly inside the Weil box.

    Both sides are read off the signs of the factors, not off a product
    that could underflow.
    """
    factors = _psi_factors(t, t2, g, g2)
    if abs(t) == 2 * g or abs(t2) == 2 * g2:
        raise BoundaryCase(
            "equivalence degenerates when a trace sits on the Weil boundary")
    positive = all(factors) and sum(f < 0 for f in factors) % 2 == 0
    return positive, bool(t and t2) and (t < 0) != (t2 < 0)


def log_bound(conductor_a: int, conductor_b: int) -> float:
    return math.log(2.0 * conductor_a * conductor_b) ** 2


def least_separating_prime(table_a: TraceTable, table_b: TraceTable,
                           p_max: int) -> SeparationRecord:
    """Smallest prime, good for both curves, where the integer traces have
    strictly opposite signs; zero traces never qualify."""
    primes = sieve_primes(p_max)
    rows_a, rows_b = table_a.rows(primes), table_b.rows(primes)
    hits = np.flatnonzero(
        table_a.good[rows_a] & table_b.good[rows_b]
        & (np.sign(table_a.a_p[rows_a]) * np.sign(table_b.a_p[rows_b]) < 0))
    return _record(table_a, table_b,
                   found=int(primes[hits[0]]) if hits.size else None)


def _record(table_a: TraceTable, table_b: TraceTable, *,
            found: int | None = None, note: str = "") -> SeparationRecord:
    bound = log_bound(table_a.conductor, table_b.conductor)
    return SeparationRecord(
        label_a=table_a.curve_label, label_b=table_b.curve_label,
        conductor_a=table_a.conductor, conductor_b=table_b.conductor,
        least_prime=found, log_bound=bound,
        ratio=None if found is None else found / bound, note=note)


def separation_scan(pairs, p_max: int) -> list[SeparationRecord]:
    """One record per table pair; identical labels are skipped with a note,
    per-pair `FrobsepError`s are recorded and the scan continues; any other
    exception is a bug and propagates."""
    records = []
    for table_a, table_b in pairs:
        if table_a.curve_label == table_b.curve_label:
            records.append(_record(table_a, table_b, note="skipped: identical labels"))
            continue
        try:
            records.append(least_separating_prime(table_a, table_b, p_max))
        except FrobsepError as exc:  # data errors are collected, scan continues
            records.append(_record(table_a, table_b, note=f"error: {exc}"))
    return records


def scan_csv(records) -> str:
    """Scan records as CSV with a trailing max-ratio summary comment."""
    lines = [CSV_HEADER]
    lines += [r.csv_row() for r in records]
    ratios = [r.ratio for r in records if r.ratio is not None]
    summary = f"{max(ratios):.12g}" if ratios else ""
    lines.append(f"# max_ratio={summary}")
    return "\n".join(lines) + "\n"
