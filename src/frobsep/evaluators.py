"""Character evaluators: map stored Frobenius data to values chi(y_p^r).

Every evaluator works on an array of primes at once and returns one value
per prime, read from the trace table's columns.  Prime powers evaluate
characters at powered conjugacy classes, so r >= 2 needs eigenvalue
angles; genus-1 angles come straight from the trace column, genus-2 angles
need the stored quartic Euler factors.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from . import symplectic
from .curves import unitarized_eigenangles
from .errors import MissingEigendata
from .store import TraceTable


class CharacterEvaluator(Protocol):
    """`good` raises `IncompleteTable` for a prime a table lacks, never calls it bad."""

    delta: int

    def good(self, primes: np.ndarray) -> np.ndarray: ...
    def values(self, primes: np.ndarray, r: int = 1) -> np.ndarray: ...


class TrivialEvaluator:
    """chi = 1 over all rational primes; the pure Chebyshev-style comparison."""

    delta = 1

    def good(self, primes: np.ndarray) -> np.ndarray:
        return np.ones(len(primes), dtype=bool)

    def values(self, primes: np.ndarray, r: int = 1) -> np.ndarray:
        return np.ones(len(primes))


class TautologicalEvaluator:
    """chi = V of one curve: the normalized Frobenius trace and its powers."""

    def __init__(self, table: TraceTable):
        self.table = table
        self.delta = 0

    def good(self, primes: np.ndarray) -> np.ndarray:
        return self.table.good[self.table.rows(primes)]

    def values(self, primes: np.ndarray, r: int = 1) -> np.ndarray:
        if r == 1:
            return self.table.a_p[self.table.rows(primes)] / np.sqrt(primes)
        return (2.0 * np.cos(r * self.angles(primes))).sum(axis=1)

    def angles(self, primes: np.ndarray) -> np.ndarray:
        """Eigenvalue angles in [0, pi], one row of g per prime."""
        rows = self.table.rows(primes)
        if self.table.genus == 1:
            cosines = self.table.a_p[rows] / (2.0 * np.sqrt(primes))
            return np.arccos(np.clip(cosines, -1.0, 1.0))[:, None]
        lpoly = self.table.lpoly
        lacking = primes[lpoly[rows, 0] != 1] if lpoly is not None else primes
        if lacking.size:
            raise MissingEigendata(f"{self.table.curve_label}: p={lacking[0]} "
                                   f"has no stored Euler factor")
        return np.array([unitarized_eigenangles(row, p) for row, p
                         in zip(lpoly[rows], primes.tolist())]).reshape(-1, 2)


class PsiPairEvaluator:
    """The separator character psi of a pair of curves."""

    def __init__(self, table_a: TraceTable, table_b: TraceTable):
        self.a = TautologicalEvaluator(table_a)
        self.b = TautologicalEvaluator(table_b)
        self.g = table_a.genus
        self.g2 = table_b.genus
        self.delta = symplectic.psi_character(self.g, self.g2).trivial_coefficient

    def good(self, primes: np.ndarray) -> np.ndarray:
        return self.a.good(primes) & self.b.good(primes)

    def values(self, primes: np.ndarray, r: int = 1) -> np.ndarray:
        t = self.a.values(primes, r)
        t2 = self.b.values(primes, r)
        return t * t2 * (t - 2 * self.g) * (t2 + 2 * self.g2)


class VirtualCharEvaluator:
    """Arbitrary virtual character evaluated at stored conjugacy classes."""

    def __init__(self, chi: symplectic.VirtualCharacter, table: TraceTable,
                 table2: TraceTable | None = None):
        if chi.is_product_group != (table2 is not None):
            raise ValueError("character factors must match the supplied tables")
        self.chi = chi
        self.tables = [t for t in (table, table2) if t is not None]
        for g, t in zip(chi.gs, self.tables):
            if g != t.genus:
                raise ValueError(
                    f"character rank {g} does not match genus of {t.curve_label}")
        self.delta = chi.trivial_coefficient
        self._taut = [TautologicalEvaluator(t) for t in self.tables]

    def good(self, primes: np.ndarray) -> np.ndarray:
        return np.logical_and.reduce([e.good(primes) for e in self._taut])

    def values(self, primes: np.ndarray, r: int = 1) -> np.ndarray:
        return self.chi.values(*(symplectic.fold_angle(r * taut.angles(primes))
                                 for taut in self._taut))
