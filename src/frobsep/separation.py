"""Sign-separating primes: the positivity criterion, searches, and scans.

A good prime separates a pair of abelian varieties when the two Frobenius
traces are nonzero and of opposite sign; the separator character is
positive there and nowhere else inside the open Weil box, so corpus scans
probe the least such prime against log(2 N N')^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (BoundaryCase, FrobsepError, IncompleteTable,
                     WeilViolation)
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
    search_bound: int
    log_bound: float
    ratio: float | None
    note: str = ""

    def csv_row(self) -> str:
        least = "" if self.least_prime is None else str(self.least_prime)
        ratio = "" if self.ratio is None else f"{self.ratio:.12g}"
        return (f"{self.label_a},{self.label_b},{self.conductor_a},"
                f"{self.conductor_b},{least},{self.log_bound:.12g},{ratio}")


def psi_value(t: float, t2: float, g: int, g2: int) -> float:
    """Separator value at normalized traces: t * t2 * (t - 2g) * (t2 + 2g2)."""
    if abs(t) > 2 * g or abs(t2) > 2 * g2:
        raise WeilViolation(
            f"traces ({t}, {t2}) leave the Weil box for (g, g') = ({g}, {g2})")
    return t * t2 * (t - 2 * g) * (t2 + 2 * g2)


def sign_criterion_equivalence(t: float, t2: float, g: int,
                               g2: int) -> tuple[bool, bool]:
    """(psi > 0, t * t2 < 0); the two agree strictly inside the Weil box."""
    if abs(t) > 2 * g or abs(t2) > 2 * g2:
        raise WeilViolation(
            f"traces ({t}, {t2}) leave the Weil box for (g, g') = ({g}, {g2})")
    if abs(t) == 2 * g or abs(t2) == 2 * g2:
        raise BoundaryCase(
            "equivalence degenerates when a trace sits on the Weil boundary")
    return psi_value(t, t2, g, g2) > 0, t * t2 < 0


def log_bound(conductor_a: int, conductor_b: int) -> float:
    return math.log(2.0 * conductor_a * conductor_b) ** 2


def least_separating_prime(table_a: TraceTable, table_b: TraceTable,
                           p_max: int) -> SeparationRecord:
    """Smallest prime, good for both curves, where the integer traces have
    strictly opposite signs; zero traces never qualify."""
    for t in (table_a, table_b):
        missing = t.missing_prime(p_max)
        if missing is not None:
            raise IncompleteTable(
                f"{t.curve_label}: table lacks prime {missing} <= {p_max}")
    found = None
    for p in sieve_primes(p_max):
        ea = table_a.entry(p)
        eb = table_b.entry(p)
        if not (ea.good and eb.good):
            continue
        if ea.a_p * eb.a_p < 0:
            found = p
            break
    bound = log_bound(table_a.conductor, table_b.conductor)
    return SeparationRecord(
        label_a=table_a.curve_label,
        label_b=table_b.curve_label,
        conductor_a=table_a.conductor,
        conductor_b=table_b.conductor,
        least_prime=found,
        search_bound=p_max,
        log_bound=bound,
        ratio=None if found is None else found / bound,
    )


def separation_scan(pairs, p_max: int) -> list[SeparationRecord]:
    """One record per table pair; identical labels are skipped with a note,
    per-pair `FrobsepError`s are recorded and the scan continues; any other
    exception is a bug and propagates."""
    records = []
    for table_a, table_b in pairs:
        if table_a.curve_label == table_b.curve_label:
            records.append(SeparationRecord(
                label_a=table_a.curve_label, label_b=table_b.curve_label,
                conductor_a=table_a.conductor, conductor_b=table_b.conductor,
                least_prime=None, search_bound=p_max,
                log_bound=log_bound(table_a.conductor, table_b.conductor),
                ratio=None, note="skipped: identical labels"))
            continue
        try:
            records.append(least_separating_prime(table_a, table_b, p_max))
        except FrobsepError as exc:  # data errors are collected, scan continues
            records.append(SeparationRecord(
                label_a=table_a.curve_label, label_b=table_b.curve_label,
                conductor_a=table_a.conductor, conductor_b=table_b.conductor,
                least_prime=None, search_bound=p_max,
                log_bound=log_bound(table_a.conductor, table_b.conductor),
                ratio=None, note=f"error: {exc}"))
    return records


def scan_csv(records) -> str:
    """Scan records as CSV with a trailing max-ratio summary comment."""
    lines = [CSV_HEADER]
    lines += [r.csv_row() for r in records]
    ratios = [r.ratio for r in records if r.ratio is not None]
    summary = f"{max(ratios):.12g}" if ratios else ""
    lines.append(f"# max_ratio={summary}")
    return "\n".join(lines) + "\n"
