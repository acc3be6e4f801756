"""Sign-separating primes: the positivity criterion, searches, and scans.

A good prime separates a pair of abelian varieties when the two Frobenius
traces are nonzero and of opposite sign; the separator character is
positive there and nowhere else inside the open Weil box, so corpus scans
probe the least such prime against log(2 N N')^2.  That bound (with
constant 1) is also the first window of the search: primes are counted to
it, then to 8 times it, and so on up to the search bound, and the search
stops at the first window that holds a separating prime.  A scan searches
all its pairs in rounds; the search keeps each curve's widest table, and
a round asks for a table only where some open pair needs a wider one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrobsepError, WeilViolation
from .store import TraceTable, sieve_primes

CSV_HEADER = "labelA,labelB,N,N2,least_prime,log_bound,ratio"
WINDOW_GROWTH = 8       # each search window is this many times the last


@dataclass(frozen=True)
class SeparationRecord:
    """Outcome of one least-separating-prime search."""

    label_a: str
    label_b: str
    conductor_a: int
    conductor_b: int
    least_prime: int | None = None
    note: str = ""

    @property
    def log_bound(self) -> float:
        return log_bound(self.conductor_a, self.conductor_b)

    @property
    def ratio(self) -> float | None:
        return None if self.least_prime is None else self.least_prime / self.log_bound

    def csv_row(self) -> str:
        least = "" if self.least_prime is None else str(self.least_prime)
        ratio = "" if self.ratio is None else f"{self.ratio:.12g}"
        return (f"{self.label_a},{self.label_b},{self.conductor_a},"
                f"{self.conductor_b},{least},{self.log_bound:.12g},{ratio}")


def psi_value(t: float, t2: float, g: int, g2: int) -> float:
    """Separator value at normalized traces: t * t2 * (t - 2g) * (t2 + 2g2).

    It is the rounded float product, except where every factor is nonzero
    and the product underflows to 0: then it is the smallest subnormal
    with the exact product's sign, so its sign is always the true one.
    """
    if abs(t) > 2 * g or abs(t2) > 2 * g2:
        raise WeilViolation(
            f"traces ({t}, {t2}) leave the Weil box for (g, g') = ({g}, {g2})")
    factors = (t, t2, t - 2 * g, t2 + 2 * g2)
    value = math.prod(factors)
    if value == 0.0 and all(factors):     # the signed zero keeps the sign
        return math.copysign(math.ulp(0.0), value)
    return value


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
    return SeparationRecord(table_a.curve_label, table_b.curve_label, table_a.conductor,
                            table_b.conductor, int(primes[hits[0]]) if hits.size else None)


def search_windows(conductor_a: int, conductor_b: int, p_max: int) -> list[int]:
    """Prime bounds a search tries in turn: ceil(log(2 N N')^2), then
    WINDOW_GROWTH times the last, and p_max last of all."""
    widths = []
    width = math.ceil(log_bound(conductor_a, conductor_b))
    while width < p_max:
        widths.append(width)
        width *= WINDOW_GROWTH
    return widths + [p_max]


def windowed_search(curve_a, curve_b, tables, p_max: int) -> SeparationRecord:
    """`least_separating_prime` of the pair to p_max, counting no further
    than the first search window that holds a separating prime.

    `tables({curve: width})` returns `{curve: table}` covering the primes
    <= each width, for curves with a `label` and a `conductor`; it is asked
    only for curves whose window grew.  An error from `tables` or from the
    search propagates.
    """
    return _search_rounds([(curve_a, curve_b)], tables, p_max, note_errors=False)[0]


def separation_scan(pairs, tables, p_max: int) -> list[SeparationRecord]:
    """One `windowed_search` record per curve pair, all pairs searched in
    the same rounds.  Identical labels are skipped with a note and count
    nothing; a pair's `FrobsepError` from the search is recorded and the
    scan continues; an error from `tables`, or any other exception,
    propagates."""
    found = iter(_search_rounds([(a, b) for a, b in pairs if a.label != b.label],
                                tables, p_max, note_errors=True))
    return [next(found) if a.label != b.label else SeparationRecord(
        a.label, b.label, a.conductor, b.conductor, note="skipped: identical labels")
        for a, b in pairs]


def _search_rounds(pairs, tables, p_max: int, note_errors: bool) -> list[SeparationRecord]:
    """Windowed searches of `pairs`: round k makes one `tables` call for the
    curves whose widest table is narrower than the k-th window of an open pair."""
    windows = [search_windows(a.conductor, b.conductor, p_max) for a, b in pairs]
    held: dict = {}                     # curve: (width, table)
    records: list[SeparationRecord | None] = [None] * len(pairs)
    for k in range(max(map(len, windows), default=0)):
        todo = [i for i, record in enumerate(records) if record is None]
        widths: dict = {}
        for i in todo:
            for curve in pairs[i]:
                widths[curve] = max(widths.get(curve, -1), windows[i][k])
        wider = {c: w for c, w in widths.items() if held.get(c, (-1,))[0] < w}
        if wider:
            got = tables(wider)
            held.update((c, (w, got[c])) for c, w in wider.items())
        for i in todo:
            (a, b), width = pairs[i], windows[i][k]
            try:
                record = least_separating_prime(held[a][1], held[b][1], width)
            except FrobsepError as exc:
                if not note_errors:
                    raise
                record = SeparationRecord(a.label, b.label, a.conductor, b.conductor,
                                          note=f"error: {exc}")
            if record.least_prime is not None or record.note or width == p_max:
                records[i] = record
    return records


def scan_csv(records) -> str:
    """Scan records as CSV with a trailing max-ratio summary comment."""
    lines = [CSV_HEADER]
    lines += [r.csv_row() for r in records]
    ratios = [r.ratio for r in records if r.ratio is not None]
    summary = f"{max(ratios):.12g}" if ratios else ""
    lines.append(f"# max_ratio={summary}")
    return "\n".join(lines) + "\n"
