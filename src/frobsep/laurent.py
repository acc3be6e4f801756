"""Exact Laurent-polynomial arithmetic on the maximal torus of USp(2g).

Class functions are integer Laurent polynomials in the torus variables
z_1..z_g, stored as {exponent tuple: coefficient}.  Antisymmetrizing with
the Weyl denominator decomposes any such function into irreducible
symplectic characters with exact integer multiplicities, which is the
reference path for trivial-multiplicity computations at small rank.
"""

from __future__ import annotations

import cmath
import itertools
from collections import defaultdict
from fractions import Fraction

LaurentPoly = dict[tuple[int, ...], int]

# Weyl-group enumeration is 2^g * g! terms; keep exact work at desk scale.
MAX_EXACT_RANK = 4


def one(g: int) -> LaurentPoly:
    return {(0,) * g: 1}


def add(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    out: defaultdict[tuple[int, ...], int] = defaultdict(int, p)
    for e, c in q.items():
        out[e] += c
    return {e: c for e, c in out.items() if c}


def scale(p: LaurentPoly, k: int) -> LaurentPoly:
    if k == 0:
        return {}
    return {e: k * c for e, c in p.items()}


def mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    out: defaultdict[tuple[int, ...], int] = defaultdict(int)
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[tuple(a + b for a, b in zip(e1, e2))] += c1 * c2
    return {e: c for e, c in out.items() if c}


def power_substitution(p: LaurentPoly, r: int) -> LaurentPoly:
    """Substitute z -> z^r (eigenvalue powers); exact Adams-operation kernel."""
    return {tuple(r * a for a in e): c for e, c in p.items()}


def tautological(g: int) -> LaurentPoly:
    """Trace of the defining 2g-dimensional representation: sum of z_j + 1/z_j."""
    out: LaurentPoly = {}
    for j in range(g):
        for s in (1, -1):
            e = [0] * g
            e[j] = s
            out[tuple(e)] = 1
    return out


def _rho(g: int) -> tuple[int, ...]:
    return tuple(range(g, 0, -1))


def weyl_denominator(g: int) -> LaurentPoly:
    """Product form over the positive roots of type C_g."""
    def unit(j, s):
        e = [0] * g
        e[j] = s
        return tuple(e)

    out = one(g)
    for i in range(g):
        out = mul(out, {unit(i, 1): 1, unit(i, -1): -1})
    for i in range(g):
        for j in range(i + 1, g):
            out = mul(out, {unit(i, 1): 1, unit(i, -1): 1,
                            unit(j, 1): -1, unit(j, -1): -1})
    return out


def antisymmetrized_orbit(mu: tuple[int, ...], g: int) -> LaurentPoly:
    """Signed sum of z^{w(mu)} over the hyperoctahedral Weyl group."""
    if g > MAX_EXACT_RANK:
        raise ValueError(f"exact path supports rank <= {MAX_EXACT_RANK}, got {g}")
    out: defaultdict[tuple[int, ...], int] = defaultdict(int)
    for perm in itertools.permutations(range(g)):
        sgn = 1
        for i in range(g):
            for j in range(i + 1, g):
                if perm[i] > perm[j]:
                    sgn = -sgn
        for signs in itertools.product((1, -1), repeat=g):
            s = sgn
            for x in signs:
                if x < 0:
                    s = -s
            e = tuple(signs[pos] * mu[perm[pos]] for pos in range(g))
            out[e] += s
    return {e: c for e, c in out.items() if c}


def total_degree(p: LaurentPoly) -> int:
    return max((sum(abs(x) for x in e) for e in p), default=0)


def partitions_upto(n: int, max_parts: int):
    """All partitions of size <= n into at most max_parts parts, as trimmed tuples."""
    seen = {()}
    stack = [((), n, n)]
    while stack:
        prefix, rem, mx = stack.pop()
        for k in range(1, min(rem, mx) + 1):
            lam = prefix + (k,)
            seen.add(lam)
            if len(lam) < max_parts:
                stack.append((lam, rem - k, k))
    return sorted(seen)


def decompose(p: LaurentPoly, g: int) -> dict[tuple[int, ...], int]:
    """Exact multiplicities {partition: coeff} of sp_lambda in a symmetric Laurent poly.

    Multiplies by the Weyl denominator and reads off coefficients at the
    strictly dominant exponents lambda + rho; the result is verified by
    rebuilding the antisymmetrized product from signed orbits.
    """
    if g > MAX_EXACT_RANK:
        raise ValueError(f"exact path supports rank <= {MAX_EXACT_RANK}, got {g}")
    pd = mul(p, weyl_denominator(g))
    r = _rho(g)
    out: dict[tuple[int, ...], int] = {}
    for lam in partitions_upto(total_degree(p), g):
        padded = lam + (0,) * (g - len(lam))
        c = pd.get(tuple(padded[i] + r[i] for i in range(g)), 0)
        if c:
            out[lam] = c
    rebuilt: LaurentPoly = {}
    for lam, c in out.items():
        padded = lam + (0,) * (g - len(lam))
        mu = tuple(padded[i] + r[i] for i in range(g))
        rebuilt = add(rebuilt, scale(antisymmetrized_orbit(mu, g), c))
    if rebuilt != pd:
        raise ArithmeticError("antisymmetrized decomposition failed to rebuild input")
    return out


def trivial_multiplicity_exact(p: LaurentPoly, g: int) -> int:
    """Coefficient of the trivial character, read off the z^rho term of p * D."""
    pd = mul(p, weyl_denominator(g))
    return pd.get(_rho(g), 0)


def _complex_eval(p: LaurentPoly, angles) -> complex:
    total = 0j
    for e, c in p.items():
        total += c * cmath.exp(1j * sum(a * t for a, t in zip(e, angles)))
    return total


def evaluate(p: LaurentPoly, angles) -> float:
    """Numeric evaluation at torus angles; selfdual inputs give real values."""
    total = _complex_eval(p, angles)
    if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
        raise ArithmeticError(f"non-real evaluation {total}; input not selfdual?")
    return total.real


def character_value_exact(lam: tuple[int, ...], g: int, angles) -> float:
    """Evaluate sp_lambda via the antisymmetrized-orbit ratio.

    Independent of the production path, the dual Jacobi-Trudi determinant
    in `symplectic`; used as a cross-check oracle at generic (non-singular)
    angles.
    """
    padded = tuple(lam) + (0,) * (g - len(lam))
    r = _rho(g)
    mu = tuple(padded[i] + r[i] for i in range(g))
    ratio = (_complex_eval(antisymmetrized_orbit(mu, g), angles)
             / _complex_eval(weyl_denominator(g), angles))
    if abs(ratio.imag) > 1e-8 * max(1.0, abs(ratio.real)):
        raise ArithmeticError(f"character ratio came out non-real: {ratio}")
    return ratio.real


def dimension_exact(lam: tuple[int, ...], g: int) -> int:
    """Weyl dimension formula for type C_g, exact rational arithmetic."""
    padded = tuple(lam) + (0,) * (g - len(lam))
    l = [padded[k] + g - k for k in range(g)]
    m = [g - k for k in range(g)]
    d = Fraction(1)
    for i in range(g):
        d *= Fraction(l[i], m[i])
        for j in range(i + 1, g):
            d *= Fraction(l[i] ** 2 - l[j] ** 2, m[i] ** 2 - m[j] ** 2)
    if d.denominator != 1:
        raise ArithmeticError(f"non-integral dimension for {lam}")
    return int(d)
