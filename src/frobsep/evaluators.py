"""Character evaluators: map stored Frobenius data to values chi(y_p^r).

Prime powers evaluate characters at powered conjugacy classes, so r >= 2
needs eigenvalue angles; genus-1 angles come straight from the trace,
genus-2 angles need the stored quartic Euler factor.
"""

from __future__ import annotations

import math
from typing import Protocol

from . import symplectic
from .curves import eigenangles_from_trace, unitarized_eigenangles
from .errors import MissingEigendata
from .store import TraceTable


class CharacterEvaluator(Protocol):
    delta: int
    label: str

    def good(self, p: int) -> bool: ...
    def value(self, p: int, r: int = 1) -> float: ...
    def missing_prime(self, x: float) -> int | None: ...


class TrivialEvaluator:
    """chi = 1 over all rational primes; the pure Chebyshev-style comparison."""

    delta = 1
    label = "trivial"

    def good(self, p: int) -> bool:
        return True

    def value(self, p: int, r: int = 1) -> float:
        return 1.0

    def missing_prime(self, x: float) -> int | None:
        return None


class TautologicalEvaluator:
    """chi = V of one curve: the normalized Frobenius trace and its powers."""

    def __init__(self, table: TraceTable):
        self.table = table
        self.delta = 0
        self.label = f"V[{table.curve_label}]"
        self._angles: dict[int, tuple[float, ...]] = {}

    def good(self, p: int) -> bool:
        e = self.table.entry(p)
        return e is not None and e.good

    def value(self, p: int, r: int = 1) -> float:
        e = self.table.entry(p)
        if r == 1:
            return e.a_p_normalized
        return sum(2.0 * math.cos(r * t) for t in self._eigenangles(p))

    def _eigenangles(self, p: int) -> tuple[float, ...]:
        cached = self._angles.get(p)
        if cached is None:
            e = self.table.entry(p)
            if self.table.genus == 1:
                cached = eigenangles_from_trace(e.a_p, p)
            elif e.lpoly is not None:
                cached = unitarized_eigenangles(e.lpoly, p)
            else:
                raise MissingEigendata(
                    f"{self.table.curve_label}: p={p} has no stored Euler factor")
            self._angles[p] = cached
        return cached

    def missing_prime(self, x: float) -> int | None:
        return self.table.missing_prime(int(x))


class PsiPairEvaluator:
    """The separator character psi of a pair of curves."""

    def __init__(self, table_a: TraceTable, table_b: TraceTable):
        self.a = TautologicalEvaluator(table_a)
        self.b = TautologicalEvaluator(table_b)
        self.g = table_a.genus
        self.g2 = table_b.genus
        self.delta = symplectic.psi_character(self.g, self.g2).trivial_coefficient
        self.label = f"psi[{table_a.curve_label},{table_b.curve_label}]"

    def good(self, p: int) -> bool:
        return self.a.good(p) and self.b.good(p)

    def value(self, p: int, r: int = 1) -> float:
        t = self.a.value(p, r)
        t2 = self.b.value(p, r)
        return t * t2 * (t - 2 * self.g) * (t2 + 2 * self.g2)

    def missing_prime(self, x: float) -> int | None:
        return self.a.missing_prime(x) or self.b.missing_prime(x)


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
        self.label = "chi[" + ",".join(t.curve_label for t in self.tables) + "]"
        self._taut = [TautologicalEvaluator(t) for t in self.tables]

    def good(self, p: int) -> bool:
        return all(e.good(p) for e in self._taut)

    def value(self, p: int, r: int = 1) -> float:
        folded = []
        for taut in self._taut:
            folded.append(tuple(symplectic.fold_angle(r * t)
                                for t in taut._eigenangles(p)))
        point = symplectic.TorusPoint(*folded)
        return self.chi.value(point)

    def missing_prime(self, x: float) -> int | None:
        for taut in self._taut:
            missing = taut.missing_prime(x)
            if missing is not None:
                return missing
        return None
