"""Independent brute-force oracles for the test suite.

Everything here recomputes from definitions: exhaustive enumeration over
all affine pairs, explicit Legendre symbols, the F_p sweep reduced at
every step, point orders by repeated addition, the scalar affine
baby-step giant-step search, schoolbook quadratic extensions, polished
numeric polynomial roots, sympy discriminants, and mpmath values of the
truncated Bach-kernel contour (through Ei) and of Li.  None of it shares
code with the production counting paths, the resolvent eigenangles or
the kernel quadrature.
"""

from __future__ import annotations

import math

import numpy as np


def _poly_mod(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _completed_square(f, h):
    big = [0] * 7
    for i, c in enumerate(f):
        big[i] += 4 * c
    for i, ci in enumerate(h):
        for j, cj in enumerate(h):
            big[i + j] += ci * cj
    return big


def _infinity_points(f, h, p):
    """Points at infinity of the smooth model, from the completed square."""
    big = _completed_square(f, h)
    c6, c5 = big[6] % p, big[5] % p
    if c6 != 0:
        return sum(1 for z in range(p) if (z * z - c6) % p == 0)
    if c5 != 0:
        return 1
    raise ValueError("degenerate at infinity")


def enumerate_points(curve, p: int) -> int:
    """Exhaustive scan of all (x, y) in F_p^2 against the raw model equation."""
    f, h = curve.f, curve.h
    x = np.arange(p, dtype=np.int64)
    fx = np.zeros(p, dtype=np.int64)
    for c in reversed(f):
        fx = (fx * x + c) % p
    hx = np.zeros(p, dtype=np.int64)
    for c in reversed(h):
        hx = (hx * x + c) % p
    y = np.arange(p, dtype=np.int64)
    lhs = (y[:, None] * y[:, None] + hx[None, :] * y[:, None]) % p
    affine = int((lhs == fx[None, :]).sum())
    if curve.genus == 1:
        return affine + 1
    return affine + _infinity_points(f, h, p)


def legendre_count(curve, p: int) -> int:
    """Character-sum count with explicit Legendre symbols pow(u, (p-1)/2, p).

    Second oracle route for odd p; solutions of the y-quadratic are counted
    through its discriminant h(x)^2 + 4 f(x).
    """
    if p == 2:
        raise ValueError("Legendre route needs odd p")
    total = 0
    for x in range(p):
        d = (_poly_mod(curve.h, x, p) ** 2 + 4 * _poly_mod(curve.f, x, p)) % p
        if d == 0:
            total += 1
        else:
            ls = pow(d, (p - 1) // 2, p)
            total += 2 if ls == 1 else 0
    if curve.genus == 1:
        return total + 1
    return total + _infinity_points(curve.f, curve.h, p)


class Fp2:
    """Schoolbook quadratic extension F_p[t]/(t^2 + bt + c)."""

    def __init__(self, p: int):
        self.p = p
        for b in range(p):
            for c in range(p):
                if all((y * y + b * y + c) % p for y in range(p)):
                    self.b, self.c = b, c
                    return
        raise ValueError(f"no irreducible quadratic mod {p}")

    def mul(self, u, v):
        p = self.p
        cross = u[1] * v[1]
        return ((u[0] * v[0] - self.c * cross) % p,
                (u[0] * v[1] + u[1] * v[0] - self.b * cross) % p)

    def add(self, u, v):
        return ((u[0] + v[0]) % self.p, (u[1] + v[1]) % self.p)

    def elements(self):
        return [(i, j) for i in range(self.p) for j in range(self.p)]

    def poly(self, coeffs, x):
        acc = (0, 0)
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), (c % self.p, 0))
        return acc


def enumerate_points_fp2(curve, p: int) -> int:
    """Exhaustive scan over all pairs in F_{p^2}^2 (small p only)."""
    field = Fp2(p)
    els = field.elements()
    affine = 0
    for x in els:
        fx = field.poly(curve.f, x)
        hx = field.poly(curve.h, x)
        for y in els:
            lhs = field.add(field.mul(y, y), field.mul(hx, y))
            if lhs == fx:
                affine += 1
    big = _completed_square(curve.f, curve.h)
    c6, c5 = big[6] % p, big[5] % p
    if c6 != 0:
        ninf = sum(1 for z in els if field.mul(z, z) == (c6, 0))
    elif c5 != 0:
        ninf = 1
    else:
        raise ValueError("degenerate at infinity")
    return affine + ninf


def sweep_count(curve, p: int, big) -> int:
    """The F_p sweep reducing mod p after every Horner step, odd p.

    `big` is F = 4f + h^2 reduced mod p, ascending, formal length 7.
    """
    x = np.arange(p, dtype=np.int64)
    nsol = np.bincount((x * x) % p, minlength=p)
    acc = np.zeros(p, dtype=np.int64)
    for c in big[::-1]:
        acc = (acc * x + c) % p
    affine = int(nsol[acc].sum())
    if curve.genus == 1:
        return affine + 1
    if big[6] != 0:
        return affine + int(nsol[big[6]])
    if big[5] != 0:
        return affine + 1
    raise ValueError("degenerate at infinity")


def _affine_add(pt, qt, a: int, p: int):
    """Chord-and-tangent addition on Y^2 = X^3 + a X + b; None is O."""
    if pt is None or qt is None:
        return qt if pt is None else pt
    (x1, y1), (x2, y2) = pt, qt
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if x1 == x2:
        slope = (3 * x1 * x1 + a) * pow(2 * y1, p - 2, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def point_order(point, a: int, p: int, limit: int) -> int | None:
    """Least n <= limit with n * point = O, adding point one step at a time."""
    acc = None
    for n in range(1, limit + 1):
        acc = _affine_add(acc, point, a, p)
        if acc is None:
            return n
    return None


def orders_in_interval(point, a: int, p: int, lo: int, hi: int) -> set[int]:
    """Every k in [lo, hi] with k * point = O, by repeated addition.

    The order of point is found by walking k * point up to hi; the answer
    is then its multiples in [lo, hi].
    """
    n = point_order(point, a, p, hi)
    return set() if n is None else {k for k in range(lo, hi + 1) if k % n == 0}


def bsgs_count(big, p: int, budget: int = 12) -> int | None:
    """#E(F_p) by the scalar Shanks-Mestre search, or None if undecided.

    The reference route for the lockstep search: the same short model and
    the same points, in affine coordinates with Python integers.  `big` is
    F = 4f + h^2 mod p, ascending; the candidate set of E and twist orders
    only ever shrinks to a singleton holding #E.
    """
    b2, f1, b6 = big[2], big[1], big[0]
    a = -27 * (b2 * b2 - 12 * f1) % p
    b = -54 * (-b2 ** 3 + 18 * b2 * f1 - 216 * b6) % p
    span = math.isqrt(4 * p)
    lo, hi = p + 1 - span, p + 1 + span
    candidates = None
    x, used = 0, 0
    while used < budget:
        r = (x * x * x + a * x + b) % p
        if r:
            used += 1
            orders = bsgs_orders((x * r % p, r * r % p), a * r * r % p, p, lo, hi)
            if pow(r, (p - 1) // 2, p) != 1:
                orders = {2 * p + 2 - k for k in orders}
            candidates = orders if candidates is None else candidates & orders
            if len(candidates) == 1:
                return candidates.pop()
        x += 1
    return None


def bsgs_orders(point, a, p, lo, hi) -> set[int]:
    """Every k in [lo, hi] with k * point = O, by baby steps and giant steps.

    Baby steps map j * point to -j and -(j * point) to +j (1 <= j <= m, O to
    0), so a giant step c * point, c = lo + m, lo + 3m, ..., found there means
    k = c + value; a baby step already there fixes the order of point.
    """
    m = math.isqrt((hi - lo) // 2) + 1
    baby: dict = {None: 0}
    step = None
    for j in range(1, m + 1):
        step = _ec_add(step, point, a, p)
        if step in baby:            # j * point = O or -(i * point)
            n = j + baby[step]
            return set(range(-(-lo // n) * n, hi + 1, n))
        baby[step[0], -step[1] % p] = j
        baby[step] = -j             # y = 0 (only j = m): c + m is the next c - m
    stride = _ec_add(step, step, a, p)
    giant = _ec_mul(lo + m, point, a, p)
    found = set()
    for c in range(lo + m, hi + m + 1, 2 * m):
        if giant in baby:
            found.add(c + baby[giant])
        giant = _ec_add(giant, stride, a, p)
    return {k for k in found if k <= hi}


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


def polished_roots(coeffs: tuple[int, ...]) -> np.ndarray:
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


def primes_upto(n: int) -> list[int]:
    """Trial-division primes, independent of the package sieve."""
    out = []
    for m in range(2, n + 1):
        if all(m % d for d in range(2, int(math.isqrt(m)) + 1)):
            out.append(m)
    return out


def _kernel_weight(p: int, r: int, x: float, a: float) -> float:
    q = p ** r
    return math.log(p) * (q / x) ** a * math.log(x / q)


def _power_sum(angles, r: int) -> float:
    return sum(2.0 * math.cos(r * t) for t in angles)


def _table_angles(table, p: int) -> tuple[float, ...] | None:
    """Eigenvalue angles at p from the stored integers, None at a bad prime;
    genus 1 through arccos of the normalized trace, genus 2 through the
    real quadratic factors of the stored quartic."""
    row = table.p.tolist().index(p)
    if not table.good[row]:
        return None
    a_p = int(table.a_p[row])
    if table.genus == 1:
        return (math.acos(min(1.0, max(-1.0, a_p / (2.0 * math.sqrt(p))))),)
    _, c1, c2, _, _ = (int(c) for c in table.lpoly[row])
    gap = math.sqrt(c1 * c1 - 4 * (c2 - 2 * p))
    return tuple(math.acos(min(1.0, max(-1.0, b / (2.0 * math.sqrt(p)))))
                 for b in ((-c1 + gap) / 2.0, (-c1 - gap) / 2.0))


def character_term(kind, tables, p: int, r: int = 1) -> float | None:
    """chi(y_p^r) by hand from one or two tables, None at a bad prime.

    `kind` is "trivial", "V" (normalized trace powers), "psi" (two tables)
    or a callable on folded angle tuples, one per table.
    """
    if kind == "trivial":
        return 1.0
    angles = [_table_angles(t, p) for t in tables]
    if any(a is None for a in angles):
        return None
    sums = [_power_sum(a, r) for a in angles]
    if kind == "V":
        return sums[0]
    if kind == "psi":
        (t, t2), g, g2 = sums, tables[0].genus, tables[1].genus
        return t * t2 * (t - 2 * g) * (t2 + 2 * g2)
    return kind(*[tuple(math.acos(math.cos(r * t)) for t in a) for a in angles])


def plain_weighted_sum(kind, tables, x: float, a: float) -> float:
    """Per-prime loop over p <= x with plain float accumulation."""
    total = 0.0
    for p in primes_upto(int(x)):
        value = character_term(kind, tables, p)
        if value is not None:
            total += value * _kernel_weight(p, 1, x, a)
    return total


def plain_chebyshev_sum(kind, tables, x: float) -> float:
    total = 0.0
    for p in primes_upto(int(x)):
        value = character_term(kind, tables, p)
        if value is not None:
            total += value
    return total


def tail_double_sum(kind, tables, x: float, a: float) -> float:
    """Plain nested-loop prime-power tail, no compensation, r-major order."""
    total = 0.0
    r = 2
    while 2 ** r <= x:
        for p in primes_upto(int(x ** (1.0 / r)) + 1):
            q = p ** r
            if q > x:
                break
            value = character_term(kind, tables, p, r)
            if value is not None and q < x:
                total += value * _kernel_weight(p, r, x, a)
        r += 1
    return total


def weierstrass_discriminant(a_invariants) -> int:
    """Discriminant of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 through
    sympy: that of the cubic 4f + h^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, over 16."""
    import sympy

    a1, a2, a3, a4, a6 = (int(a) for a in a_invariants)
    x = sympy.Symbol("x")
    cubic = 4 * (x ** 3 + a2 * x ** 2 + a4 * x + a6) + (a1 * x + a3) ** 2
    return int(sympy.discriminant(sympy.Poly(cubic, x))) // 16


def sextic_discriminant(coeffs) -> int:
    """Binary-form discriminant of a formal sextic through sympy.

    A vanishing a6 puts a root at infinity, so the form discriminant is
    a5^2 times the quintic's discriminant, and 0 when the root is double.
    """
    import sympy

    cs = [int(c) for c in coeffs] + [0] * (7 - len(coeffs))
    if not any(cs):
        return 0
    x = sympy.Symbol("x")
    if cs[6] != 0:
        return int(sympy.discriminant(sympy.Poly(cs[::-1], x)))
    if cs[5] == 0:
        return 0
    return cs[5] ** 2 * int(sympy.discriminant(sympy.Poly(cs[5::-1], x)))


def contour_integral(y: float, a: float, T: float):
    """(1/2 pi i) int y^s/(s+a)^2 ds over Re s = 2, |Im s| <= T, as a 50-digit
    mpmath number: (y^2/pi) Re int_0^T e^(iwt) (c+it)^(-2) dt, w = log y.

    With c = 2 + a and u = c + it the integral is e^(-wc)/i [F(c+iT) - F(c)],
    F(u) = -e^(wu)/u + w Ei(wu).  For w < 0 the path leaves the negative
    real axis, Ei's cut, downwards, so its start takes Ei(wc) - i pi.
    """
    import mpmath as mp

    with mp.workdps(50):
        y, c, T = mp.mpf(y), 2 + mp.mpf(a), mp.mpf(T)
        w = mp.log(y)
        if w == 0:
            inner = 1j / (c + 1j * T) - 1j / c
        else:
            def F(u, ei):
                return -mp.exp(w * u) / u + w * ei

            start = mp.ei(w * c) - (1j * mp.pi if w < 0 else 0)
            inner = mp.exp(-w * c) / 1j * (F(c + 1j * T, mp.ei(w * (c + 1j * T)))
                                           - F(c, start))
        return y * y / mp.pi * mp.re(inner)


def li_from_two(x: float):
    """li(x) - li(2) as a 50-digit mpmath number."""
    import mpmath as mp

    with mp.workdps(50):
        return mp.li(x) - mp.li(2)
