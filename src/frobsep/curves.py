"""Point counting and Euler factors for genus-1 and genus-2 curves over Q.

For odd p the affine solutions of y^2 + h(x) y = f(x) biject with
solutions of z^2 = F(x), F = 4f + h^2.  Genus-1 curves at p > 229 are
counted by Shanks-Mestre baby-step giant-step on the group order in the
Hasse interval, O(p^{1/4}) group operations per prime (Cohen, A Course in
Computational Algebraic Number Theory, 7.4.3).  Every other count, and any
prime where that search stays ambiguous within its point budget, goes
through a per-prime square table plus a vectorized polynomial sweep of F,
O(p) work per prime; the tests keep the sweep as the reference for the
group-order route.  Genus-2 quartic Euler factors additionally count over
F_{p^2} with explicit quadratic-extension arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Final, Iterable

import numpy as np

from .errors import (BadReduction, CeilingExceeded, NonUnitaryRoots,
                     UnsupportedModel, ValidationError)

DEFAULT_FP_CEILING: Final = 2_000_000
DEFAULT_FP2_CEILING: Final = 10_000          # bound on the field size p^2
UNIT_ROOT_TOL: Final = 1e-6
ANGLE_TRACE_TOL: Final = 1e-9


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    t = tuple(int(c) for c in coeffs)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


@dataclass(frozen=True)
class CurveSpec:
    """A genus-1 or genus-2 curve y^2 + h(x) y = f(x) with declared conductor.

    Coefficient tuples are ascending (constant term first).  Genus-1 curves
    may carry their Weierstrass a-invariants; the conductor is declared
    input, never computed.
    """

    label: str
    genus: int
    f: tuple[int, ...]
    h: tuple[int, ...]
    conductor: int
    a_invariants: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "f", _trim(self.f))
        object.__setattr__(self, "h", _trim(self.h))
        if self.genus not in (1, 2):
            raise ValidationError(f"genus must be 1 or 2, got {self.genus}")
        if self.conductor < 1:
            raise ValidationError(f"conductor must be positive, got {self.conductor}")
        if self.genus == 1:
            if len(self.f) != 4 or self.f[3] != 1:
                raise ValidationError("genus-1 model needs monic cubic f")
            if len(self.h) > 2:
                raise ValidationError("genus-1 model needs deg h <= 1")
        else:
            if len(self.f) > 7:
                raise ValidationError("genus-2 model needs deg f <= 6")
            if len(self.h) > 4:
                raise ValidationError("genus-2 model needs deg h <= 3")
            big = _square_completed(self.f, self.h)
            if len(_trim(big)) not in (6, 7):
                raise ValidationError("genus-2 model must have deg(4f + h^2) in {5, 6}")
        if self.discriminant == 0:
            raise ValidationError(f"curve {self.label!r} has zero discriminant")

    @classmethod
    def elliptic(cls, label: str, a_invariants, conductor: int) -> "CurveSpec":
        a1, a2, a3, a4, a6 = (int(a) for a in a_invariants)
        return cls(label=label, genus=1, f=(a6, a4, a2, 1), h=(a3, a1),
                   conductor=conductor, a_invariants=(a1, a2, a3, a4, a6))

    @classmethod
    def hyperelliptic(cls, label: str, f, h, conductor: int) -> "CurveSpec":
        return cls(label=label, genus=2, f=_trim(f), h=_trim(h), conductor=conductor)

    @classmethod
    def from_json(cls, doc) -> "CurveSpec":
        label = str(doc["label"])
        genus = int(doc["genus"])
        conductor = int(doc["conductor"])
        model = doc["model"]
        if "a_invariants" in model:
            if genus != 1:
                raise ValidationError("a_invariants model implies genus 1")
            return cls.elliptic(label, model["a_invariants"], conductor)
        f = model["f"]
        h = model.get("h", [])
        if genus == 1:
            return cls(label=label, genus=1, f=_trim(f), h=_trim(h),
                       conductor=conductor)
        return cls.hyperelliptic(label, f, h, conductor)

    @classmethod
    def from_path(cls, path) -> "CurveSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def to_json(self) -> dict:
        if self.genus == 1 and self.a_invariants is not None:
            model = {"a_invariants": list(self.a_invariants)}
        else:
            model = {"f": list(self.f), "h": list(self.h)}
        return {"label": self.label, "genus": self.genus, "model": model,
                "conductor": self.conductor}

    @property
    def discriminant(self) -> int:
        return _model_discriminant(self.genus, self.f, self.h)

    def good_reduction(self, p: int) -> bool:
        """Smoothness of the reduced model: p does not divide the discriminant."""
        return self.discriminant % p != 0

    def is_bad(self, p: int) -> bool:
        """Bad iff p divides the declared conductor or the model discriminant."""
        return self.conductor % p == 0 or self.discriminant % p == 0


def _square_completed(f: tuple[int, ...], h: tuple[int, ...]) -> list[int]:
    """Coefficients of F = 4f + h^2, ascending, formal length 7."""
    big = [0] * 7
    for i, c in enumerate(f):
        big[i] += 4 * c
    for i, ci in enumerate(h):
        for j, cj in enumerate(h):
            big[i + j] += ci * cj
    return big


@lru_cache(maxsize=None)
def _model_discriminant(genus: int, f: tuple[int, ...], h: tuple[int, ...]) -> int:
    if genus == 1:
        a1 = h[1] if len(h) > 1 else 0
        a3 = h[0] if len(h) > 0 else 0
        a2, a4, a6 = f[2], f[1], f[0]
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4)
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 ** 2 + 9 * b2 * b4 * b6
    return _binary_sextic_discriminant(_square_completed(f, h))


def _binary_sextic_discriminant(coeffs: list[int]) -> int:
    """Discriminant of a formal-degree-6 binary form, exact integers.

    Vanishes mod p exactly when the reduced form has a repeated projective
    root, i.e. when the completed-square model is singular (p odd).  Degree
    drops are handled by the SL2-invariance of the form discriminant:
    translate until the constant term is nonzero, then invert x -> 1/x.
    """
    import sympy

    cs = list(coeffs) + [0] * (7 - len(coeffs))
    x = sympy.Symbol("x")
    if all(c == 0 for c in cs):
        return 0
    if cs[6] == 0:
        if cs[0] == 0:
            poly = sympy.Poly(sum(c * x ** i for i, c in enumerate(cs)), x)
            for t in range(1, 8):
                shifted = poly.shift(t)
                new = [int(shifted.coeff_monomial(x ** i)) for i in range(7)]
                if new[0] != 0:
                    cs = new
                    break
            else:
                return 0  # seven integer roots force the zero form
        cs = cs[::-1]
    if cs[6] == 0:
        # reversed form still degenerate: double root at infinity
        return 0
    return int(sympy.Poly(sum(c * x ** i for i, c in enumerate(cs)), x).discriminant())


# ---------------------------------------------------------------------------
# counting over F_p


@dataclass(frozen=True)
class PrimeTrace:
    """Frobenius data of one prime: point count, trace, optional local factor."""

    p: int
    good: bool
    point_count_fp: int | None
    a_p: int | None
    lpoly: tuple[int, ...] | None = None

    @property
    def a_p_normalized(self) -> float:
        if self.a_p is None:
            raise ValueError(f"no trace stored at bad prime {self.p}")
        return self.a_p / math.sqrt(self.p)

    @classmethod
    def bad(cls, p: int) -> "PrimeTrace":
        return cls(p=p, good=False, point_count_fp=None, a_p=None, lpoly=None)


def _check_good(curve: CurveSpec, p: int):
    if not curve.good_reduction(p):
        raise BadReduction(f"{curve.label}: p={p} divides the model discriminant")


def count_points(curve: CurveSpec, p: int, *,
                 ceiling: int = DEFAULT_FP_CEILING) -> int:
    """Projective points of the reduced curve over F_p."""
    if p > ceiling:
        raise CeilingExceeded(f"p={p} above counting ceiling {ceiling}")
    _check_good(curve, p)
    if p == 2:
        return _count_points_char2(curve)
    big = [c % p for c in _square_completed(curve.f, curve.h)]
    if curve.genus == 1 and p > MESTRE_BOUND:
        n = _count_points_bsgs(big, p)
        if n is not None:
            return n
    return _count_points_sweep(curve, p, big)


def _count_points_sweep(curve: CurveSpec, p: int, big: list[int]) -> int:
    """Square-table sweep of z^2 = F(x) over every x in F_p, odd p."""
    x = np.arange(p, dtype=np.int64)
    nsol = np.bincount((x * x) % p, minlength=p)
    acc = np.zeros(p, dtype=np.int64)
    for c in big[::-1]:
        acc = (acc * x + c) % p
    affine = int(nsol[acc].sum())
    if curve.genus == 1:
        return affine + 1
    c6, c5 = big[6], big[5]
    if c6 != 0:
        return affine + int(nsol[c6])
    if c5 != 0:
        return affine + 1
    raise BadReduction(f"{curve.label}: model degenerates at infinity mod {p}")


# Above this bound E or its quadratic twist has a point whose order has a
# single multiple in the Hasse interval (Mestre; Cremona-Sutherland), and
# the group-order search is also measured faster than the sweep.
MESTRE_BOUND: Final = 229
_BSGS_POINT_BUDGET: Final = 12


def _count_points_bsgs(big: list[int], p: int) -> int | None:
    """#E(F_p) from point orders on E and its twist, or None if undecided.

    F = 4x^3 + b2 x^2 + 2 b4 x + b6 mod p becomes Y^2 = X^3 - 27 c4 X - 54 c6,
    valid for p > 3.  With r = rhs(x) != 0, (x r, r^2) lies on
    Y^2 = X^3 + a r^2 X + b r^3: E when r is a square, its twist E' when
    not, so no square root is taken; #E + #E' = 2p + 2 maps twist orders
    back.  The candidate set only ever shrinks to a singleton holding #E.
    """
    # F[1] = 2 b4, so c4 = b2^2 - 12 F[1] and c6 = -b2^3 + 18 b2 F[1] - 216 b6
    b2, f1, b6 = big[2], big[1], big[0]
    a = -27 * (b2 * b2 - 12 * f1) % p
    b = -54 * (-b2 ** 3 + 18 * b2 * f1 - 216 * b6) % p
    span = math.isqrt(4 * p)
    lo, hi = p + 1 - span, p + 1 + span
    candidates = None
    x, used = 0, 0
    while used < _BSGS_POINT_BUDGET:
        r = (x * x * x + a * x + b) % p
        if r:
            used += 1
            orders = _orders_in_interval((x * r % p, r * r % p), a * r * r % p,
                                         p, lo, hi)
            if pow(r, (p - 1) // 2, p) != 1:
                orders = [2 * p + 2 - k for k in orders]
            candidates = set(orders) if candidates is None else candidates & set(orders)
            if len(candidates) == 1:
                return candidates.pop()
        x += 1
    return None


def _orders_in_interval(point, a, p, lo, hi) -> list[int]:
    """Every k in [lo, hi] with k * point = O on Y^2 = X^3 + a X + b.

    Baby steps store -j * point for 0 <= j < m; giant steps walk
    base * point for base = lo, lo + m, ...; a match means
    (base + j) * point = O.
    """
    m = math.isqrt(hi - lo) + 1
    baby: dict = {}
    step = None
    for j in range(m):
        baby.setdefault(_ec_neg(step, p), []).append(j)
        step = _ec_add(step, point, a, p)
    found = []
    giant = _ec_mul(lo, point, a, p)
    for base in range(lo, hi + 1, m):
        found.extend(base + j for j in baby.get(giant, ()) if base + j <= hi)
        giant = _ec_add(giant, step, a, p)
    return found


def _ec_neg(pt, p):
    return None if pt is None else (pt[0], -pt[1] % p)


def _ec_add(pt, qt, a, p):
    """Affine group law on a short Weierstrass curve; None is the identity."""
    if pt is None:
        return qt
    if qt is None:
        return pt
    x1, y1 = pt
    x2, y2 = qt
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _ec_mul(k: int, pt, a, p):
    acc = None
    while k:
        if k & 1:
            acc = _ec_add(acc, pt, a, p)
        pt = _ec_add(pt, pt, a, p)
        k >>= 1
    return acc


def _count_points_char2(curve: CurveSpec) -> int:
    # good reduction at 2 occurs only for genus-1 models (2 | disc for genus 2)
    if curve.genus != 1:
        raise UnsupportedModel("genus-2 counting requires p > 2")
    count = 1
    for x in range(2):
        fx = sum(c * x ** i for i, c in enumerate(curve.f)) % 2
        hx = sum(c * x ** i for i, c in enumerate(curve.h)) % 2
        for y in range(2):
            if (y * y + hx * y - fx) % 2 == 0:
                count += 1
    return count


def frobenius_trace(curve: CurveSpec, p: int, *,
                    ceiling: int = DEFAULT_FP_CEILING) -> PrimeTrace:
    """Trace of Frobenius at a good prime, with the Weil bound asserted."""
    n = count_points(curve, p, ceiling=ceiling)
    a = p + 1 - n
    if a * a > 4 * curve.genus * curve.genus * p:
        raise ValidationError(
            f"{curve.label}: |a_{p}| = {abs(a)} violates the Weil bound")
    return PrimeTrace(p=p, good=True, point_count_fp=n, a_p=a)


# ---------------------------------------------------------------------------
# counting over F_{p^2} (genus 2)


@lru_cache(maxsize=None)
def _quadratic_modulus(p: int) -> tuple[int, int]:
    """Smallest (b, c) in lexicographic order with t^2 + b t + c irreducible."""
    for b in range(p):
        for c in range(p):
            if all((y * y + b * y + c) % p for y in range(p)):
                return b, c
    raise ArithmeticError(f"no irreducible quadratic over F_{p}")


def count_points_Fp2(curve: CurveSpec, p: int, *,
                     ceiling: int = DEFAULT_FP2_CEILING) -> int:
    """Points of a genus-2 curve over F_{p^2} via explicit extension arithmetic."""
    if curve.genus != 2:
        raise UnsupportedModel("F_{p^2} counts are only needed for genus 2")
    if p * p > ceiling:
        raise CeilingExceeded(f"p^2={p * p} above enumeration ceiling {ceiling}")
    _check_good(curve, p)
    if p == 2:
        raise UnsupportedModel("genus-2 counting requires p > 2")
    b, c = _quadratic_modulus(p)
    q = p * p
    u = np.repeat(np.arange(p, dtype=np.int64), p)
    v = np.tile(np.arange(p, dtype=np.int64), p)

    def field_mul(a0, a1, b0, b1):
        # (a0 + a1 t)(b0 + b1 t) with t^2 = -b t - c
        cross = a1 * b1
        return (a0 * b0 - c * cross) % p, (a0 * b1 + a1 * b0 - b * cross) % p

    s0, s1 = field_mul(u, v, u, v)
    nsol = np.bincount(s0 * p + s1, minlength=q)
    big = [cf % p for cf in _square_completed(curve.f, curve.h)]
    acc0 = np.zeros(q, dtype=np.int64)
    acc1 = np.zeros(q, dtype=np.int64)
    for cf in big[::-1]:
        acc0, acc1 = field_mul(acc0, acc1, u, v)
        acc0 = (acc0 + cf) % p
    affine = int(nsol[acc0 * p + acc1].sum())
    c6, c5 = big[6], big[5]
    if c6 != 0:
        return affine + int(nsol[c6 * p])
    if c5 != 0:
        return affine + 1
    raise BadReduction(f"{curve.label}: model degenerates at infinity mod {p}")


# ---------------------------------------------------------------------------
# Euler factors and eigenvalue angles


def euler_factor(curve: CurveSpec, p: int, *,
                 ceiling: int = DEFAULT_FP_CEILING,
                 fp2_ceiling: int = DEFAULT_FP2_CEILING) -> tuple[int, ...]:
    """Integer Euler-factor coefficients, ascending in T (degree 2*genus)."""
    trace = frobenius_trace(curve, p, ceiling=ceiling)
    if curve.genus == 1:
        return (1, -trace.a_p, p)
    n2 = count_points_Fp2(curve, p, ceiling=fp2_ceiling)
    a1 = trace.a_p
    s2 = p * p + 1 - n2
    if (a1 * a1 - s2) % 2 != 0:
        raise ArithmeticError(f"{curve.label}: inconsistent power sums at p={p}")
    a2 = (a1 * a1 - s2) // 2
    return (1, -a1, a2, -p * a1, p * p)


def _polished_roots(coeffs: tuple[int, ...]) -> np.ndarray:
    """Roots of an exact integer polynomial: np.roots plus Newton cleanup.

    Companion-matrix eigenvalues carry a few 1e-9 of error on quartics;
    two Newton steps against the exact coefficients reach rounding level.
    Multiple roots stall harmlessly (the correction is already tiny there).
    """
    roots = np.roots(coeffs[::-1]).astype(complex)
    deriv = tuple(i * c for i, c in enumerate(coeffs) if i >= 1)
    for _ in range(3):
        val = np.zeros_like(roots)
        for c in coeffs[::-1]:
            val = val * roots + c
        slope = np.zeros_like(roots)
        for i in range(len(deriv), 0, -1):
            slope = slope * roots + deriv[i - 1]
        safe = np.abs(slope) > 1e-12 * np.maximum(1.0, np.abs(val))
        roots[safe] = roots[safe] - val[safe] / slope[safe]
    return roots


def unitarized_roots(lpoly, p: int) -> np.ndarray:
    """Reciprocal Euler-factor roots scaled onto the unit circle."""
    thetas = unitarized_eigenangles(lpoly, p)
    out = []
    for t in thetas:
        out.extend((complex(math.cos(t), math.sin(t)),
                    complex(math.cos(t), -math.sin(t))))
    return np.array(out)


def _quadratic_angle(trace_sum: float, p: int) -> float:
    # one conjugate pair e^{+-i theta} with 2 sqrt(p) cos(theta) = trace_sum;
    # clamping the cosine lets boundary traces land on theta = 0 or pi
    if trace_sum * trace_sum > 4.0 * p * (1.0 + 1e-12):
        raise NonUnitaryRoots(
            f"quadratic factor trace {trace_sum} outside the Weil interval")
    return math.acos(min(1.0, max(-1.0, trace_sum / (2.0 * math.sqrt(p)))))


def unitarized_eigenangles(lpoly, p: int) -> tuple[float, ...]:
    """Angles theta_j in [0, pi] with the Euler factor's unitarized roots e^{+-i theta_j}.

    Weil polynomials of degree 2 and 4 are split into real quadratic
    factors through the palindromic resolvent, so the unitarized roots sit
    on the circle by construction and near-double roots lose no accuracy;
    the integer functional-equation constraints double as the corruption
    check.  Higher degrees fall back to polished numeric roots.
    """
    coeffs = tuple(int(c) for c in lpoly)
    if not coeffs or coeffs[0] != 1:
        raise ValidationError(f"Euler factor must start with 1, got {coeffs}")
    degree = len(coeffs) - 1
    if degree % 2 != 0:
        raise ValidationError(f"Euler factor degree must be even, got {degree}")
    if degree == 2:
        if coeffs[2] != p:
            raise NonUnitaryRoots(f"constant term {coeffs[2]} != p={p}")
        thetas = (_quadratic_angle(-coeffs[1], p),)
    elif degree == 4:
        c1, c2, c3, c4 = coeffs[1:]
        if c4 != p * p or c3 != p * c1:
            raise NonUnitaryRoots(
                f"coefficients {coeffs} violate the degree-4 functional equation")
        resolvent = c1 * c1 - 4 * (c2 - 2 * p)   # (beta - beta')^2, exact
        if resolvent < 0:
            raise NonUnitaryRoots(
                f"complex quadratic traces: resolvent {resolvent} < 0")
        gap = math.sqrt(resolvent)
        thetas = tuple(sorted(
            _quadratic_angle(b, p) for b in ((-c1 + gap) / 2.0, (-c1 - gap) / 2.0)))
    else:
        unit = 1.0 / (_polished_roots(coeffs) * math.sqrt(p))
        if np.any(np.abs(np.abs(unit) - 1.0) > UNIT_ROOT_TOL):
            raise NonUnitaryRoots(
                f"roots deviate from the unit circle by "
                f"{np.max(np.abs(np.abs(unit) - 1.0)):.3e}")
        angles = np.sort(np.arccos(np.clip(unit.real, -1.0, 1.0)))
        thetas = tuple(float(a) for a in angles[::2])
    a_norm = -coeffs[1] / math.sqrt(p)
    trace = sum(2.0 * math.cos(t) for t in thetas)
    if abs(trace - a_norm) > ANGLE_TRACE_TOL * max(1.0, abs(a_norm)):
        raise NonUnitaryRoots(f"angle trace {trace} != normalized trace {a_norm}")
    return thetas


def eigenangles_from_trace(a_p: int, p: int) -> tuple[float]:
    """Genus-1 shortcut: the single angle from the normalized trace."""
    c = a_p / (2.0 * math.sqrt(p))
    return (math.acos(min(1.0, max(-1.0, c))),)
