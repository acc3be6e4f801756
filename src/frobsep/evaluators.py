"""Character evaluators: map stored Frobenius data to values chi(y_p^r).

Every evaluator works on an array of primes at once and returns one value
per prime, read from the trace table's columns.  A Frobenius class enters
character theory as its normalized Euler-factor coefficients, the
elementary symmetric functions e_0..e_2g of its unitarized eigenvalues:
genus 1 needs only the trace column, genus 2 also needs e_2 = a_2/p from
the stored quartic Euler factors.  Prime powers r >= 2 go through the
power map e(x) -> e(x^r); no eigenvalue angle is ever formed.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

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
        from . import symplectic
        return symplectic.power_map(self.elementary(primes), r)[:, 1]

    def elementary(self, primes: np.ndarray) -> np.ndarray:
        """Rows e_0..e_2g of the unitarized Frobenius eigenvalues, one per
        prime: (1, t, 1) in genus 1, (1, t, a_2/p, t, 1) in genus 2."""
        rows = self.table.rows(primes)
        t = self.table.a_p[rows] / np.sqrt(primes)
        one = np.ones_like(t)
        if self.table.genus == 1:
            return np.stack([one, t, one], axis=1)
        lpoly = self.table.lpoly
        lacking = primes[lpoly[rows, 0] != 1] if lpoly is not None else primes
        if lacking.size:
            raise MissingEigendata(f"{self.table.curve_label}: p={lacking[0]} "
                                   f"has no stored Euler factor")
        return np.stack([one, t, lpoly[rows, 2] / primes, t, one], axis=1)


class PsiPairEvaluator:
    """The separator character psi of a pair of curves."""

    def __init__(self, table_a: TraceTable, table_b: TraceTable):
        self.a = TautologicalEvaluator(table_a)
        self.b = TautologicalEvaluator(table_b)
        self.g = table_a.genus
        self.g2 = table_b.genus
        from . import symplectic
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
        from . import symplectic
        return self.chi.values(*(symplectic.power_map(taut.elementary(primes), r)
                                 for taut in self._taut))
