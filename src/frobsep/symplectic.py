"""Characters and Haar integration for USp(2g) and USp(2g) x USp(2g').

A conjugacy class is handed to a character as a row e_0..e_2g of the
elementary symmetric functions of its 2g eigenvalues, the coefficients of
its characteristic polynomial; at Frobenius these are the normalized
Euler-factor coefficients.  Irreducible characters are evaluated from
such rows by the dual Jacobi-Trudi determinant, which has no denominator
and so no coincident-eigenvalue cases, and powers of a class go through
Newton's identities.  Haar integrals run on tensor grids of equispaced
interior nodes against the Weyl density, normalized so the constant
function integrates to 1 on the same grid.  Every integrand is a cosine
polynomial in each angle, and the grid is sized from its degree so that
the rule is exact for it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Final, Iterable, Mapping

import numpy as np

from . import laurent
from .errors import NonIntegral, UnsupportedModel, parsing

MAX_TENSOR_RANK: Final = 3            # tensor grid of n**g nodes
INTEGRALITY_TOL: Final = 1e-3

Partition = tuple[int, ...]


def _as_partition(parts: Iterable[int]) -> Partition:
    t = tuple(int(x) for x in parts)
    while t and t[-1] == 0:
        t = t[:-1]
    if any(x < 0 for x in t):
        raise ValueError(f"negative part in {parts}")
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"parts must be non-increasing, got {parts}")
    return t


@dataclass(frozen=True)
class DominantWeight:
    """Highest weight of an irreducible USp(2g) representation."""

    g: int
    parts: Partition

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("rank must be >= 1")
        parts = _as_partition(self.parts)
        if len(parts) > self.g:
            raise ValueError(f"partition {parts} has more than g={self.g} parts")
        object.__setattr__(self, "parts", parts)

    @property
    def degree(self) -> int:
        return sum(self.parts)


@dataclass(frozen=True)
class TorusPoint:
    """Conjugacy-class representative by eigenvalue angles, one list per factor."""

    angles: tuple[float, ...]
    angles2: tuple[float, ...] = ()

    def __post_init__(self):
        for t in self.angles + self.angles2:
            if not -1e-12 <= t <= math.pi + 1e-12:
                raise ValueError(f"angle {t} outside [0, pi]")

    def power(self, r: int) -> "TorusPoint":
        """Class of the r-th power: angles r*theta folded back into [0, pi]."""
        return TorusPoint(tuple(math.acos(math.cos(r * t)) for t in self.angles),
                          tuple(math.acos(math.cos(r * t)) for t in self.angles2))


# ---------------------------------------------------------------------------
# character evaluation


def _e_at_angles(thetas: np.ndarray) -> np.ndarray:
    """Rows e_0..e_2g of the eigenvalues e^{+-i theta_j}: the coefficients
    of prod_j (1 + 2 cos(theta_j) T + T^2), one row per angle row (N, g)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    e = np.ones((len(thetas), 1))
    for c in 2.0 * np.cos(thetas.T):
        e = np.pad(e, ((0, 0), (0, 2))) + np.pad(e, ((0, 0), (2, 0))) + (
            c[:, None] * np.pad(e, ((0, 0), (1, 1))))
    return e


def power_map(e: np.ndarray, r: int) -> np.ndarray:
    """Rows e(x^r) of the r-th powers of the eigenvalues with rows e(x).

    Newton's identities turn e into the power sums p_k(x), the powers
    have p_m(x^r) = p_{rm}(x), and Newton's identities run backwards give
    their elementary symmetric functions.  The error grows with r * 2g:
    against the angle route at 3 x 1000 random points and r <= 17 it is at
    most 3.7e-14 at g = 1, 2.8e-11 at g = 2 and 3.3e-9 at g = 3.
    Evaluators only call it with g <= 2.
    """
    if r == 1:
        return e
    n = e.shape[1] - 1
    p = np.zeros((len(e), r * n + 1))
    for k in range(1, r * n + 1):
        p[:, k] = sum((-1) ** (i - 1) * e[:, i] * (p[:, k - i] if i < k else k)
                      for i in range(1, min(k, n) + 1))
    powered = np.ones((len(e), n + 1))
    for k in range(1, n + 1):
        powered[:, k] = sum((-1) ** (i - 1) * powered[:, k - i] * p[:, r * i]
                            for i in range(1, k + 1)) / k
    return powered


def _char_from_e(parts: Partition, e: np.ndarray) -> np.ndarray:
    """sp_lambda at rows e (N, 2g+1) of elementary symmetric functions.

    Dual Jacobi-Trudi identity for Sp(2g) (Koike-Terada, J. Algebra 107,
    1987): sp_lambda = det(e_{l_i - i + j} - e_{l_i - i - j}), 1 <= i, j <=
    lambda_1, with l = lambda' the conjugate partition and e_k = 0 outside
    [0, 2g].  It has no denominator, so coincident eigenvalues need no
    special case.
    """
    n = max(parts, default=0)
    conj = np.array([sum(part > i for part in parts) for i in range(n)], dtype=int)
    ij = np.arange(1, n + 1)
    # 2n zeros on either side put every index in range: l_i <= g
    padded = np.pad(np.atleast_2d(e), ((0, 0), (2 * n, 2 * n)))
    k = (conj - ij + 2 * n)[:, None]
    return np.linalg.det(padded[:, k + ij] - padded[:, k - ij])


def char_value(weight: DominantWeight, point: TorusPoint) -> float:
    """Evaluate the irreducible character at a torus point of the same rank."""
    if len(point.angles) != weight.g:
        raise ValueError(f"point has {len(point.angles)} angles, weight rank {weight.g}")
    return float(_char_from_e(weight.parts, _e_at_angles(point.angles))[0])


def dimension(weight: DominantWeight) -> int:
    """Weyl dimension formula for type C."""
    return laurent.dimension_exact(weight.parts, weight.g)


# ---------------------------------------------------------------------------
# Haar-measure quadrature


@lru_cache(maxsize=None)
def _grid(g: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, pi]^g and Haar weights that integrate every cosine
    polynomial of degree <= `degree` in each angle exactly.

    The nodes are theta = k pi/(n+1), k = 1..n, in each angle: the
    trapezoid rule with the endpoints dropped, where the Weyl density
    vanishes.  It is exact for cosine polynomials of degree < 2(n+1), and
    the density adds 2g to the character's degree.  Returns (e (N, 2g+1),
    weights (N,)): the nodes as rows of elementary symmetric functions, and
    the density normalized by its sum, so the constant function integrates
    to exactly 1.
    """
    if g > MAX_TENSOR_RANK:
        raise UnsupportedModel(f"tensor quadrature supports rank <= {MAX_TENSOR_RANK}")
    n = (degree + 2 * g) // 2
    t = np.arange(1, n + 1) * (math.pi / (n + 1))
    thetas = np.stack(np.meshgrid(*[t] * g, indexing="ij"), axis=-1).reshape(-1, g)
    cos = np.cos(thetas)
    dens = np.prod(4.0 * np.sin(thetas) ** 2, axis=1)
    for i in range(g):
        for j in range(i + 1, g):
            dens = dens * (2.0 * cos[:, i] - 2.0 * cos[:, j]) ** 2
    return _e_at_angles(thetas), dens / dens.sum()


@lru_cache(maxsize=None)
def _pair_integral(g: int, p1: Partition, p2: Partition) -> float:
    e, weights = _grid(g, max(p1, default=0) + max(p2, default=0))
    v1 = _char_from_e(p1, e)
    v2 = v1 if p2 == p1 else _char_from_e(p2, e)
    return float(np.dot(weights, v1 * v2))


# ---------------------------------------------------------------------------
# virtual characters

TermKey = tuple[Partition, ...]


def _canonical_terms(terms: Mapping, nfactors: int) -> dict[TermKey, int]:
    out: dict[TermKey, int] = {}
    for key, coeff in terms.items():
        coeff = int(coeff)
        if coeff == 0:
            continue
        if nfactors == 1 and (not key or isinstance(key[0], int)):
            key = (key,)
        if len(key) != nfactors:
            raise ValueError(f"term key {key} does not match {nfactors} factor(s)")
        ck = tuple(_as_partition(p) for p in key)
        out[ck] = out.get(ck, 0) + coeff
    return {k: c for k, c in out.items() if c}


@dataclass(frozen=True)
class VirtualCharacter:
    """Integer combination of irreducible characters of one or two factors."""

    gs: tuple[int, ...]
    terms: Mapping[TermKey, int]

    def __post_init__(self):
        if len(self.gs) not in (1, 2):
            raise ValueError("only one or two symplectic factors are supported")
        if min(self.gs) < 1:
            raise ValueError(f"factor ranks must be >= 1, got {self.gs}")
        object.__setattr__(self, "terms", _canonical_terms(self.terms, len(self.gs)))

    @property
    def is_product_group(self) -> bool:
        return len(self.gs) == 2

    def values(self, *e: np.ndarray) -> np.ndarray:
        """Character at N conjugacy classes: one (N, 2g+1) array of rows
        e_0..e_2g of eigenvalue elementary symmetric functions per factor."""
        total = np.zeros(len(e[0]))
        for key, coeff in self.terms.items():
            prod = float(coeff)
            for parts, rows in zip(key, e):
                prod = prod * _char_from_e(parts, rows)
            total = total + prod
        return total

    def value(self, point: TorusPoint) -> float:
        angle_sets = (point.angles, point.angles2)[: len(self.gs)]
        if [len(angles) for angles in angle_sets] != list(self.gs):
            raise ValueError("torus point rank mismatch")
        return float(self.values(*map(_e_at_angles, angle_sets))[0])

    @property
    def trivial_coefficient(self) -> int:
        return self.terms.get(tuple(() for _ in self.gs), 0)

    def to_json(self) -> dict:
        doc: dict = {"g": self.gs[0], "terms": []}
        if self.is_product_group:
            doc["g2"] = self.gs[1]
        for key, coeff in sorted(self.terms.items()):
            entry = {"lambda": list(key[0]), "coeff": coeff}
            if self.is_product_group:
                entry["mu"] = list(key[1])
            doc["terms"].append(entry)
        return doc

    @classmethod
    @parsing()
    def from_json(cls, doc: Mapping) -> "VirtualCharacter":
        g = int(doc["g"])
        g2 = doc.get("g2")
        gs = (g,) if g2 is None else (g, int(g2))
        terms: dict[TermKey, int] = {}
        for entry in doc["terms"]:
            lam = _as_partition(entry["lambda"])
            key: TermKey = (lam,) if g2 is None else (lam, _as_partition(entry.get("mu", [])))
            terms[key] = terms.get(key, 0) + int(entry["coeff"])
        return cls(gs, terms)

    @classmethod
    def from_path(cls, path) -> "VirtualCharacter":
        with open(path, "r", encoding="utf-8") as fh, parsing(path):
            return cls.from_json(json.load(fh))


def trivial_char(g: int) -> VirtualCharacter:
    return VirtualCharacter((g,), {((),): 1})


def tautological_char(g: int) -> VirtualCharacter:
    return VirtualCharacter((g,), {((1,),): 1})


def tensor_square_char(g: int) -> VirtualCharacter:
    """V (x) V decomposed into irreducibles: Sym^2 V + (sp(1,1) + 1)."""
    terms = {((2,),): 1, ((),): 1}
    if g >= 2:
        terms[((1, 1),)] = 1
    return VirtualCharacter((g,), terms)


def sym2_char(g: int) -> VirtualCharacter:
    return VirtualCharacter((g,), {((2,),): 1})


def box_product(chi1: VirtualCharacter, chi2: VirtualCharacter) -> VirtualCharacter:
    """External product of two single-factor characters."""
    if chi1.is_product_group or chi2.is_product_group:
        raise ValueError("box product takes single-factor characters")
    terms = {}
    for (p1,), c1 in chi1.terms.items():
        for (p2,), c2 in chi2.terms.items():
            terms[(p1, p2)] = terms.get((p1, p2), 0) + c1 * c2
    return VirtualCharacter((chi1.gs[0], chi2.gs[0]), terms)


# ---------------------------------------------------------------------------
# inner products and multiplicities


def _round_gate(raw: float, context: str) -> int:
    nearest = round(raw)
    if abs(raw - nearest) > INTEGRALITY_TOL:
        raise NonIntegral(f"{context}: raw value {raw!r} is not near an integer")
    return int(nearest)


def inner_product_raw(chi1: VirtualCharacter, chi2: VirtualCharacter) -> float:
    """Haar inner product before integer rounding (selfdual characters)."""
    if chi1.gs != chi2.gs:
        raise ValueError("characters live on different groups")
    total = 0.0
    for key1, c1 in chi1.terms.items():
        for key2, c2 in chi2.terms.items():
            prod = float(c1 * c2)
            for g, p1, p2 in zip(chi1.gs, key1, key2):
                prod *= _pair_integral(g, p1, p2)
            total += prod
    return total


def inner_product(chi1: VirtualCharacter, chi2: VirtualCharacter) -> int:
    return _round_gate(inner_product_raw(chi1, chi2), "inner product")


def trivial_multiplicity(chi: VirtualCharacter) -> int:
    """Multiplicity of the trivial representation, by quadrature."""
    return inner_product(chi, VirtualCharacter(chi.gs, {tuple(() for _ in chi.gs): 1}))


def trivial_multiplicity_exact(chi: VirtualCharacter) -> int:
    """Exact antisymmetrization path, independent of all quadrature."""
    if not chi.is_product_group:
        poly: laurent.LaurentPoly = {}
        g = chi.gs[0]
        for (parts,), coeff in chi.terms.items():
            poly = laurent.add(poly, laurent.scale(_sp_poly(parts, g), coeff))
        return laurent.trivial_multiplicity_exact(poly, g)
    total = 0
    for key, coeff in chi.terms.items():
        prod = coeff
        for g, parts in zip(chi.gs, key):
            prod *= laurent.trivial_multiplicity_exact(_sp_poly(parts, g), g)
        total += prod
    return total


def psi_delta_exact(g: int, g2: int) -> int:
    """delta(psi) from the raw product definition, no decomposition involved.

    Expands V*V -/+ 2g*V as Laurent polynomials straight from the
    tautological trace and antisymmetrizes; the product-group Haar measure
    factors, so the two trivial multiplicities multiply.
    """
    out = 1
    for rank, sign in ((g, -1), (g2, +1)):
        v = laurent.tautological(rank)
        factor = laurent.add(laurent.mul(v, v), laurent.scale(v, sign * 2 * rank))
        out *= laurent.trivial_multiplicity_exact(factor, rank)
    return out


@lru_cache(maxsize=None)
def _sp_poly(parts: Partition, g: int) -> "laurent.LaurentPoly":
    """Exact Laurent polynomial of sp_lambda by unitriangular orbit-sum reduction."""
    padded = tuple(parts) + (0,) * (g - len(parts))
    orbit = set()
    for perm in itertools.permutations(padded):
        for signs in itertools.product((1, -1), repeat=g):
            orbit.add(tuple(s * p for s, p in zip(signs, perm)))
    poly = {e: 1 for e in orbit}
    dec = laurent.decompose(poly, g)
    if dec.get(parts) != 1:
        raise ArithmeticError(f"orbit sum of {parts} is not unitriangular")
    for lam, c in dec.items():
        if lam == parts or c == 0:
            continue
        poly = laurent.add(poly, laurent.scale(_sp_poly(lam, g), -c))
    return poly


# ---------------------------------------------------------------------------
# the separating virtual character psi


def _psi_factor_terms(g: int, sign: int) -> dict[Partition, int]:
    """Decomposition of V(x)V + sign*2g*V into irreducibles."""
    terms: dict[Partition, int] = {(2,): 1, (): 1, (1,): sign * 2 * g}
    if g >= 2:
        terms[(1, 1)] = 1
    return terms


@lru_cache(maxsize=None)
def psi_character(g: int, g2: int) -> VirtualCharacter:
    """Separator character (V^(-2g) + V(x)V) box (V'^(+2g') + V'(x)V').

    Evaluates to t*(t - 2g) * t'*(t' + 2g') at factor traces (t, t'), which
    is positive exactly when the two traces have strictly opposite signs
    inside the Weil box.
    """
    f1 = _psi_factor_terms(g, -1)
    f2 = _psi_factor_terms(g2, +1)
    return box_product(VirtualCharacter((g,), {(p,): c for p, c in f1.items()}),
                       VirtualCharacter((g2,), {(p,): c for p, c in f2.items()}))


# ---------------------------------------------------------------------------
# Adams operation and Frobenius-Schur indicators


def adams2(chi: VirtualCharacter) -> VirtualCharacter:
    """Square Adams operation: the virtual character theta -> chi(2*theta).

    Equal to Sym^2(chi) - Alt^2(chi); realized through the exact Laurent
    substitution z -> z^2, so every factor rank is at most
    laurent.MAX_EXACT_RANK.
    """
    factor_maps: list[dict[Partition, dict[Partition, int]]] = []
    for pos, g in enumerate(chi.gs):
        needed = sorted({key[pos] for key in chi.terms})
        if needed and g > laurent.MAX_EXACT_RANK:
            raise UnsupportedModel(
                f"adams2 supports rank <= {laurent.MAX_EXACT_RANK}, got {g}")
        factor_maps.append({p: laurent.decompose(laurent.power_substitution(
            _sp_poly(p, g), 2), g) for p in needed})
    terms: dict[TermKey, int] = {}
    for key, coeff in chi.terms.items():
        expanded: list[tuple[TermKey, int]] = [((), coeff)]
        for pos in range(len(chi.gs)):
            expanded = [
                (prefix + (p2,), c * c2)
                for prefix, c in expanded
                for p2, c2 in factor_maps[pos][key[pos]].items()
            ]
        for full_key, c in expanded:
            terms[full_key] = terms.get(full_key, 0) + c
    return VirtualCharacter(chi.gs, terms)


def fs_indicator(weight: DominantWeight) -> int:
    """Frobenius-Schur indicator: Haar integral of chi at squared elements."""
    e, weights = _grid(weight.g, 2 * max(weight.parts, default=0))
    vals = _char_from_e(weight.parts, power_map(e, 2))
    return _round_gate(float(np.dot(weights, vals)), f"FS indicator of {weight.parts}")
