"""Point counting and Euler factors for genus-1 and genus-2 curves over Q.

For odd p the affine solutions of y^2 + h(x) y = f(x) biject with
solutions of z^2 = F(x), F = 4f + h^2.  `count_points_many` counts many
lanes, each one curve at one prime, in one call.  Genus-1 lanes at
229 < p < 2^28 are counted by Shanks-Mestre baby-step giant-step on the
group order in the Hasse interval, O(p^{1/4}) group operations per lane
(Cohen, A Course in Computational Algebraic Number Theory, 7.4.3), run in
lockstep with one numpy int64 lane each: projective coordinates, so no
step inverts, and one batch inversion per lane to compare x-coordinates.
Every other lane, and any the search leaves undecided within its point
budget, goes through a uint8 square table and a blocked Horner sweep over
all of F_p, one pass per prime for all its curves, reduced mod p only
where int64 could overflow; the tests keep the sweep and a scalar search
as references for the group-order route.  `euler_factors` adds the a_2 of
genus-2 lanes from counts over F_{p^2}, where the norm map to F_p reads the
root counts off the same square table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Final, Iterable

import numpy as np

from .errors import (BadReduction, CeilingExceeded, NonUnitaryRoots,
                     UnsupportedModel, ValidationError, parsing)

DEFAULT_FP_CEILING: Final = 2_000_000
DEFAULT_FP2_CEILING: Final = 10_000          # bound on the field size p^2


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
    @parsing()
    def from_json(cls, doc) -> "CurveSpec":
        label = str(doc["label"])
        genus = int(doc["genus"])
        conductor = int(doc["conductor"])
        model = doc["model"]
        if "a_invariants" in model:
            if genus != 1:
                raise ValidationError("a_invariants model implies genus 1")
            return cls.elliptic(label, model["a_invariants"], conductor)
        return cls(label=label, genus=genus, f=model["f"], h=model.get("h", []),
                   conductor=conductor)

    @classmethod
    def from_path(cls, path) -> "CurveSpec":
        with open(path, "r", encoding="utf-8") as fh, parsing(path):
            return cls.from_json(json.load(fh))

    def to_json(self) -> dict:
        if self.genus == 1 and self.a_invariants is not None:
            model = {"a_invariants": list(self.a_invariants)}
        else:
            model = {"f": list(self.f), "h": list(self.h)}
        return {"label": self.label, "genus": self.genus, "model": model,
                "conductor": self.conductor}

    @cached_property                    # per lane in `count_points_many`
    def discriminant(self) -> int:
        """Discriminant of F = 4f + h^2 as a form of degree 2g + 2; over 2^8 in genus 1."""
        big = _square_completed(self.f, self.h)
        disc = _binary_form_discriminant(big[:2 * self.genus + 3])
        return disc if self.genus == 2 else disc // 256

    def bad_primes(self, primes) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the `primes` dividing the declared conductor and the model
        discriminant: the one test of bad reduction, which is either.  Python
        integers throughout, so exact for any p."""
        p = np.asarray(primes, dtype=object)
        return self.conductor % p == 0, self.discriminant % p == 0


@lru_cache(maxsize=None)
def _square_completed(f: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of F = 4f + h^2, ascending, formal length 7."""
    big = [0] * 7
    for i, c in enumerate(f):
        big[i] += 4 * c
    for i, ci in enumerate(h):
        for j, cj in enumerate(h):
            big[i + j] += ci * cj
    return tuple(big)


def _binary_form_discriminant(coeffs) -> int:
    """Discriminant of the binary form sum a_i x^i y^(n-i), n = len(coeffs) - 1.

    Exact integers, with no degree cases: for every binary form of degree n,
    roots at infinity included, Res(F_x, F_y) = (-1)^(n(n-1)/2) n^(n-2) Disc(F)
    (Gelfand-Kapranov-Zelevinsky, Discriminants, Resultants and
    Multidimensional Determinants), and the resultant is a fraction-free
    determinant of the (2n-2)-square Sylvester matrix.  For the completed
    square of a model it vanishes mod an odd p exactly when the reduced form
    has a repeated projective root, i.e. when the reduced model is singular.
    """
    n = len(coeffs) - 1
    fx = [(k + 1) * coeffs[k + 1] for k in range(n)][::-1]   # descending rows
    fy = [(n - k) * coeffs[k] for k in range(n)][::-1]
    rows = [[0] * i + row + [0] * (n - 2 - i) for row in (fx, fy) for i in range(n - 1)]
    return (-1) ** (n * (n - 1) // 2) * _bareiss_det(rows) // n ** (n - 2)


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


# ---------------------------------------------------------------------------
# counting over F_p


def check_lanes(curves: list[CurveSpec], primes, *, ceiling: int | None = None,
                fp2_ceiling: int | None = None) -> None:
    """The one guard pass of the lanes (curves[i], primes[i]).  Raises, in order, at the
    largest prime past `ceiling`, the first model bad at p, with `fp2_ceiling` the first
    genus-2 lane whose p^2 is past it, and the largest genus-1 prime past the search bound."""
    primes = np.asarray(primes)         # objects when beyond int64
    if ceiling is not None and primes.size and primes.max() > ceiling:
        raise CeilingExceeded(f"p={primes.max()} above counting ceiling {ceiling}")
    ids = np.array([id(c) for c in curves], dtype=np.int64)
    bad, genus = np.zeros(len(ids), dtype=bool), np.zeros(len(ids), dtype=np.int64)
    for curve in {id(c): c for c in curves}.values():      # each distinct curve once
        mine = ids == id(curve)
        bad[mine], genus[mine] = curve.bad_primes(primes[mine])[1], curve.genus
    if bad.any():
        i = int(bad.argmax())
        raise BadReduction(f"{curves[i].label}: p={primes[i]} divides the model discriminant")
    if fp2_ceiling is not None:         # p^2 > c exactly when p > isqrt(c)
        past = primes[(genus == 2) & (primes > math.isqrt(fp2_ceiling))]
        if past.size:
            p = int(past[0])
            raise CeilingExceeded(f"p^2={p * p} above enumeration ceiling {fp2_ceiling}")
    over = primes[(genus == 1) & (primes >= SEARCH_PMAX)]
    if over.size:
        raise CeilingExceeded(f"p={over.max()} above the genus-1 search bound {SEARCH_PMAX}")


def count_points(curve: CurveSpec, p: int, *,
                 ceiling: int = DEFAULT_FP_CEILING) -> int:
    """Projective points of the reduced curve over F_p: the one-prime case
    of `count_points_many`, so it pays a batch call's fixed cost."""
    return int(count_points_many(curve, [p], ceiling=ceiling)[0])


def count_points_many(curves, primes, *,
                      ceiling: int = DEFAULT_FP_CEILING) -> np.ndarray:
    """Projective points over F_p of each lane (curve, p): `curves` is one
    curve for every prime of `primes`, or one curve per prime.

    Genus-1 lanes above MESTRE_BOUND go through one lockstep group-order
    search, which accepts p < SEARCH_PMAX only; every other lane, and any
    the search leaves undecided, is swept, one pass per prime.
    """
    lanes = [curves] * len(primes) if isinstance(curves, CurveSpec) else list(curves)
    check_lanes(lanes, primes, ceiling=ceiling)
    primes = np.asarray(primes, dtype=np.int64)
    counts = np.zeros(len(primes), dtype=np.int64)
    bigs = [_square_completed(c.f, c.h) for c in lanes]
    searched = (primes > MESTRE_BOUND) & np.array([c.genus == 1 for c in lanes], dtype=bool)
    if searched.any():
        counts[searched] = _count_points_bsgs(
            [bigs[i] for i in np.flatnonzero(searched).tolist()], primes[searched])
    by_prime: dict[int, list[int]] = {}
    for i in np.flatnonzero(counts == 0).tolist():
        by_prime.setdefault(int(primes[i]), []).append(i)
    for p, rows in by_prime.items():
        found = ([_count_points_char2(lanes[i]) for i in rows] if p == 2 else
                 _count_points_sweep([[c % p for c in bigs[i]] for i in rows], p))
        for i, n in zip(rows, found):
            counts[i] = n
    return counts


_BLOCK: Final = 2 ** 15        # cells per sweep block: 256 KiB of int64


def _square_counts(p: int) -> np.ndarray:
    """Solutions z in F_p of z^2 = s for each s in F_p, odd p, as uint8."""
    half = np.arange((p + 1) // 2, dtype=np.int64)
    nsol = np.zeros(p, dtype=np.uint8)
    nsol[half * half % p] = 2
    nsol[0] = 1
    return nsol


def _count_points_sweep(bigs: list[list[int]], p: int) -> list[int]:
    """Square-table sweep of z^2 = F(x) over every x in F_p, odd p, for each
    F of `bigs` (ascending, formal length 7, reduced mod p) in one pass."""
    nsol = _square_counts(p)
    columns = list(zip(*bigs))[::-1]    # descending; F is nonzero at a good prime
    while not any(columns[0]):
        del columns[0]
    # Horner values are bounded by the largest F's value at p - 1, restarted
    # from p - 1 after a reduction; reduce before a step that could reach 2^63
    top, *rest = map(max, columns)
    reduce_first, bound = [], top
    for c in rest:
        reduce_first.append(bound * (p - 1) + c >= 2 ** 63)
        bound = (p - 1 if reduce_first[-1] else bound) * (p - 1) + c
    if len(bigs) > 1:                   # one row of acc per F; the bound holds for each
        top, *rest = np.array(columns, dtype=np.int64)[:, :, None]
    affine, step = 0, max(1, _BLOCK // len(bigs))
    for start in range(0, p, step):
        x = np.arange(start, min(start + step, p), dtype=np.int64)
        acc = x * top                   # top < p: the first step needs no check
        for i, c in enumerate(rest):
            if i:
                if reduce_first[i]:
                    acc -= acc // p * p     # // by one divisor is cheaper than %
                acc *= x
            acc += c
        acc -= acc // p * p
        affine += nsol[acc].sum(axis=-1, dtype=np.int64)
    # at infinity: one point when deg F mod p is odd, else one per square
    # root of its leading coefficient
    return [n + (1 if len(big) % 2 == 0 else int(nsol[big[-1]]))
            for n, big in zip(np.ravel(affine).tolist(), map(_trim, bigs))]


# Above this bound E or its quadratic twist has a point whose order has a
# single multiple in the Hasse interval (Mestre; Cremona-Sutherland), and
# the group-order search is also measured faster than the sweep.
MESTRE_BOUND: Final = 229
_BSGS_POINT_BUDGET: Final = 12
# int64 bound of the search: every factor of a product there is below 7p
# in absolute value (the bounds are stated at _dbl and _add), so below 2^31
# for p < 2^28, and every product below 2^62.
SEARCH_PMAX: Final = 2 ** 28
_SEARCH_CELLS: Final = 2 ** 15  # int64 cells per search array: 256 KiB
# A pass of the search costs 2-4 ms of numpy calls plus ~20 us per lane,
# so passes of up to this many lanes cost about the same.
_SMALL_PASS: Final = 256


def _count_points_bsgs(bigs: list[tuple[int, ...]], primes: np.ndarray) -> np.ndarray:
    """#E(F_p) of each lane, the model F = bigs[i] at primes[i], from point
    orders on E and its twist, 0 where undecided.

    F = 4x^3 + b2 x^2 + 2 b4 x + b6 becomes Y^2 = X^3 - 27 c4 X - 54 c6,
    valid for p > 3.  With r = rhs(x) != 0, (x r, r^2) lies on
    Y^2 = X^3 + a r^2 X + b r^3: E when r is a square, its twist E' when
    not, so no square root is taken; #E + #E' = 2p + 2 maps twist orders
    back.  A point decides its lane when exactly one multiple of its order
    lies in the Hasse interval.  The lanes are searched in lockstep, one
    point each per pass, until so few are left that one pass can try every
    point left in the budget.
    """
    # F[1] = 2 b4, so c4 = b2^2 - 12 F[1] and c6 = -b2^3 + 18 b2 F[1] - 216 b6;
    # a curve's lanes share its cached tuple, so identity finds them cheaply
    short = {key: (-27 * (b2 * b2 - 12 * f1), -54 * (-b2 ** 3 + 18 * b2 * f1 - 216 * b6))
             for key, (b6, f1, b2, *_) in {id(big): big for big in bigs}.items()}
    a, b = (np.array([short[id(big)][k] % p for big, p in zip(bigs, primes.tolist())],
                     dtype=np.int64) for k in (0, 1))
    counts = np.zeros(len(primes), dtype=np.int64)
    todo, next_x = np.arange(len(primes)), np.zeros(len(primes), dtype=np.int64)
    # lanes per call of the search, whose arrays hold about 2m rows per lane
    m = math.isqrt(math.isqrt(4 * int(primes.max()))) + 1
    block = max(1, _SEARCH_CELLS // (2 * m))
    spent = 0
    while todo.size and spent < _BSGS_POINT_BUDGET:
        left = _BSGS_POINT_BUDGET - spent
        width = left if len(todo) * left <= _SMALL_PASS else 1
        p = primes[todo, None]
        # the next `width` x with rhs(x) != 0: a cubic has at most 3 roots
        xs = next_x[todo, None] + np.arange(width + 3)
        rs = _mul(_mul(xs, xs, p) + a[todo, None], xs, p) + b[todo, None]
        rs %= p
        take = (rs != 0) & (np.cumsum(rs != 0, axis=1) <= width)
        xs, rs = xs[take].reshape(-1, width), rs[take].reshape(-1, width)
        lanes = np.repeat(todo, width)
        found = np.concatenate([
            _search(primes[lanes[i:i + block]], a[lanes[i:i + block]],
                    xs.ravel()[i:i + block], rs.ravel()[i:i + block])
            for i in range(0, len(lanes), block)])
        # a decided point gives #E exactly, so decided points agree
        counts[todo] = found.reshape(-1, width).max(axis=1)
        next_x[todo] = xs[:, -1] + 1
        todo = todo[counts[todo] == 0]
        spent += width
    return counts


def _isqrt(v: np.ndarray) -> np.ndarray:
    s = np.sqrt(v).astype(np.int64)     # v < 2^52: off by at most one
    s -= s * s > v
    s += (s + 1) * (s + 1) <= v
    return s


def _search(p, a, x, r) -> np.ndarray:
    """#E(F_p) per lane from the point at X-coordinate x, 0 if it leaves it open."""
    span = _isqrt(4 * p)
    lo, hi = p + 1 - span, p + 1 + span
    point = _mul(x, r, p), _mul(r, r, p)
    lane, k, bad = _multiples(p, _mul(a, point[1], p), point, lo, hi)
    keep = ~bad[lane]
    lane, k = lane[keep], k[keep]
    single = np.bincount(lane, minlength=len(p)) == 1
    order = np.zeros(len(p), dtype=np.int64)
    order[lane] = k
    twist = _pow(r, (p - 1) // 2, p) != 1
    return np.where(single, np.where(twist, 2 * p + 2 - order, order), 0)


def _multiples(p, a, point, lo, hi):
    """Every k in [lo, hi] with k * point = O on Y^2 = X^3 + a X + b, per lane.

    Baby steps j * point (j = 1 .. m) and giant steps c * point (c = lo + m,
    lo + 3m, ...) are made in projective coordinates and their x brought to
    affine with one inversion per lane; a giant step equal to -+ j * point
    means k = c +- j, and one at O means k = c.  Returns (lane, k) pairs,
    each once, and the lanes where this search says nothing: a baby step at
    O or with y = 0, or a sum that came out (0:0:0) (it stays so).  The
    pairs of every other lane are complete.
    """
    m = _isqrt((hi - lo) // 2) + 1
    giants = (hi - lo + 2 * m - 1) // (2 * m)
    nb, ng, lanes = int(m.max()), int(giants.max()), np.arange(len(p))
    rows = np.arange(nb + ng)[:, None]
    used = np.where(rows < nb, rows < m, rows - nb < giants)
    X, Y, Z = (np.empty((nb + ng, len(p)), dtype=np.int64) for _ in range(3))
    pt = point + (np.ones_like(p),)
    for j in range(nb):
        if j:
            pt = _dbl(pt, a, p) if j == 1 else _add(pt, point, p)
        X[j], Y[j], Z[j] = pt
    stride = _dbl((X[m - 1, lanes], Y[m - 1, lanes], Z[m - 1, lanes]), a, p)
    twice = _dbl(stride, a, p)
    pt = _ladder(lo + m, point, a, p)
    at_o = prev = np.zeros(len(p), dtype=bool)
    for i in range(nb, nb + ng):
        if i > nb:      # O + stride and stride + stride are exceptional sums
            pt = np.where(at_o, stride, np.where(prev, twice, _add(pt, stride, p)))
        X[i], Y[i], Z[i] = pt
        at_o, prev = (Z[i] == 0) & (Y[i] % p != 0), at_o
    y_zero = Y % p == 0
    at_o = used & (Z == 0) & ~y_zero & (rows >= nb)
    bad = (used & (Z == 0) & ~at_o).any(axis=0) | (used & y_zero)[:nb].any(axis=0)
    Z[~used | at_o | bad] = 1
    x = _affine_x(X, Z, p)
    babies = np.where(used[:nb], x[:nb], -1)
    i, lane = np.nonzero(at_o[nb:])
    found = [(lane << 32) + lo[lane] + (2 * i + 1) * m[lane]]
    for i in range(ng):
        j, lane = np.nonzero(babies == np.where(used[nb + i] & ~at_o[nb + i],
                                                x[nb + i], -2))
        g = nb + i
        same = _mul(Y[g, lane], Z[j, lane], p[lane]) == _mul(Y[j, lane], Z[g, lane], p[lane])
        c = lo[lane] + (2 * i + 1) * m[lane]
        found.append((lane << 32) + np.where(same, c - j - 1, c + j + 1))
    found = np.sort(np.concatenate(found))         # k < 2^31
    found = found[np.diff(found, prepend=-1) != 0]  # np.unique imports numpy.ma
    lane, k = found >> 32, found & 0xFFFFFFFF
    keep = k <= hi[lane]
    return lane[keep], k[keep], bad


def _mul(a, b, p):
    """a * b mod p in [0, p), for |a|, |b| < 2^31 (see SEARCH_PMAX).  With a
    divisor per lane numpy's % costs what // does, so one call does it."""
    return np.remainder(a * b, p)


def _pow(base, e, p):
    acc = np.ones_like(base)
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        acc = _mul(acc, acc, p)
        acc = np.where((e >> bit) & 1 == 1, _mul(acc, base, p), acc)
    return acc


# Homogeneous projective points (X : Y : Z) on Y^2 = X^3 + a X + b, with
# X, Z in [0, p) and |Y| < 2p; formulas from the Explicit-Formulas Database.
# The comments bound each factor that is not a _mul result in [0, p).

def _dbl(pt, a, p):
    """2 pt (dbl-2007-bl); O and (0:0:0) come out (0:0:0)."""
    X, Y, Z = pt
    xx, zz = _mul(X, X, p), _mul(Z, Z, p)
    w = _mul(a, zz, p) + 3 * xx             # [0, 4p)
    s = 2 * _mul(Y, Z, p)                   # [0, 2p)
    ss = _mul(s, s, p)
    r = _mul(Y, s, p)
    rr = _mul(r, r, p)
    bb = _mul(X + r, X + r, p) - xx - rr    # X + r in [0, 2p); bb in (-2p, p)
    h = _mul(w, w, p) - 2 * bb              # (-2p, 5p)
    # bb - h in (-7p, 3p); Y3 in (-2p, p)
    return _mul(h, s, p), _mul(w, bb - h, p) - 2 * rr, _mul(s, ss, p)


def _add(pt, qt, p):
    """pt + qt (add-1998-cmo-2), qt affine (x, y) or projective.

    pt = -qt gives O; pt = qt, or either one O or (0:0:0), gives (0:0:0).
    """
    X1, Y1, Z1 = pt
    if len(qt) == 2:
        (X2, Y2), y1z2, x1z2, z1z2 = qt, Y1, X1, Z1
    else:
        X2, Y2, Z2 = qt
        y1z2, x1z2, z1z2 = _mul(Y1, Z2, p), _mul(X1, Z2, p), _mul(Z1, Z2, p)
    u = _mul(Y2, Z1, p) - y1z2              # (-2p, 3p)
    v = _mul(X2, Z1, p) - x1z2              # (-p, p)
    uu, vv = _mul(u, u, p), _mul(v, v, p)
    vvv = _mul(v, vv, p)
    r = _mul(vv, x1z2, p)
    s = _mul(uu, z1z2, p) - vvv - 2 * r     # (-3p, p)
    # r - s in (-p, 4p); Y3 in (-p, p)
    return _mul(v, s, p), _mul(u, r - s, p) - _mul(vvv, y1z2, p), _mul(vvv, z1z2, p)


def _ladder(k, point, a, p):
    """k * point for affine point, left to right from each lane's top bit.

    Exact at every lane: a partial multiple at O, and a sum of point with
    itself, are put right, so O comes out as (0 : Y : 0) with Y != 0.
    """
    ones = np.ones_like(p)
    o, once = (0 * ones, ones, 0 * ones), point + (ones,)
    acc, twice = once, _dbl(once, a, p)
    for bit in range(int(k.max()).bit_length() - 2, -1, -1):
        dbl = _dbl(acc, a, p)
        at_o = dbl[2] == 0              # 2 acc = O; acc at O gives (0:0:0)
        dbl = np.where(at_o, o, dbl)
        add = _add(dbl, point, p)       # (0:0:0) when dbl = point
        add = np.where(at_o, once, np.where((add[2] == 0) & (add[1] == 0), twice, add))
        step = np.where((k >> bit) & 1 == 1, add, dbl)
        acc = tuple(np.where(k >> (bit + 1) != 0, step, acc))
    return acc


def _affine_x(X, Z, p):
    """X / Z per row and lane, Z nonzero: Montgomery's batch inversion with
    one Fermat inverse per lane."""
    inv = np.empty_like(Z)              # prefix products, then 1 / Z
    acc = np.ones_like(p)
    for i in range(len(Z)):
        acc = inv[i] = _mul(acc, Z[i], p)
    acc = _pow(acc, p - 2, p)
    for i in range(len(Z) - 1, 0, -1):
        inv[i] = _mul(acc, inv[i - 1], p)
        acc = _mul(acc, Z[i], p)
    inv[0] = acc
    return _mul(X, inv, p)


def _count_points_char2(curve: CurveSpec) -> int:
    # genus 1 only: F = 4f + h^2 = h^2 mod 2, so every genus-2 model is bad at 2
    count = 1
    for x in range(2):
        fx = sum(c * x ** i for i, c in enumerate(curve.f)) % 2
        hx = sum(c * x ** i for i, c in enumerate(curve.h)) % 2
        for y in range(2):
            if (y * y + hx * y - fx) % 2 == 0:
                count += 1
    return count


# ---------------------------------------------------------------------------
# counting over F_{p^2} (genus 2)


def count_points_Fp2(curve: CurveSpec, p: int, *,
                     ceiling: int = DEFAULT_FP2_CEILING) -> int:
    """Points of a genus-2 curve over F_{p^2} = F_p[t]/(t^2 - n).

    n is the least quadratic non-residue mod p.  A nonzero w in F_{p^2} is
    a square exactly when its norm a0^2 - n a1^2 is a square in F_p, so the
    F_p square table, read at the norm, counts the roots of z^2 = F(x).
    """
    if curve.genus != 2:
        raise UnsupportedModel("F_{p^2} counts are only needed for genus 2")
    check_lanes([curve], [p], fp2_ceiling=ceiling)    # genus-2 models are all bad at 2
    n = next(k for k in range(2, p) if pow(k, (p - 1) // 2, p) == p - 1)
    u = np.repeat(np.arange(p, dtype=np.int64), p)     # x = u + v t
    v = np.tile(np.arange(p, dtype=np.int64), p)
    big = _trim(c % p for c in _square_completed(curve.f, curve.h))
    a0 = a1 = np.zeros(p * p, dtype=np.int64)
    for c in big[::-1]:
        a0, a1 = (a0 * u + n * (a1 * v % p) + c) % p, (a0 * v + a1 * u) % p
    affine = int(_square_counts(p)[(a0 * a0 - n * (a1 * a1 % p)) % p].sum())
    # at infinity: one point when deg F mod p is odd, else two, since the
    # leading coefficient lies in F_p and so is a square in F_{p^2}
    return affine + (1 if len(big) % 2 == 0 else 2)


# ---------------------------------------------------------------------------
# Euler factors and eigenvalue angles


def euler_factors(lanes: list[CurveSpec], primes, *, lpoly: bool = True,
                  ceiling: int = DEFAULT_FP_CEILING,
                  fp2_ceiling: int = DEFAULT_FP2_CEILING) -> np.ndarray:
    """Euler-factor rows of the lanes (lanes[i], primes[i]), ascending in T and zero-padded
    to 5 columns, or only (1, -a_1) without `lpoly`: every a_1 from one `count_points_many`
    call, Weil bound asserted, and each genus-2 a_2 from an F_{p^2} count."""
    primes = np.asarray(primes)         # objects when beyond int64: the count raises
    a1 = primes + 1 - count_points_many(lanes, primes, ceiling=ceiling)
    genus = np.array([c.genus for c in lanes], dtype=np.int64)
    weil = np.flatnonzero(a1 * a1 > 4 * genus * genus * primes)
    if weil.size:
        i = int(weil[0])
        raise ValidationError(f"{lanes[i].label}: |a_{primes[i]}| = {abs(a1[i])} "
                              "violates the Weil bound")
    rows = np.zeros((len(primes), 5), dtype=np.int64)
    rows[:, 0], rows[:, 1] = 1, -a1
    rows[:, 2] = np.where((genus == 1) & lpoly, primes, 0)
    for i in np.flatnonzero((genus == 2) & lpoly).tolist():
        p, a = int(primes[i]), int(a1[i])
        s2 = p * p + 1 - count_points_Fp2(lanes[i], p, ceiling=fp2_ceiling)
        if (a * a - s2) % 2 != 0:
            raise ArithmeticError(f"{lanes[i].label}: inconsistent power sums at p={p}")
        rows[i, 2:] = (a * a - s2) // 2, -p * a, p * p
    return rows


def euler_factor(curve: CurveSpec, p: int, *,
                 ceiling: int = DEFAULT_FP_CEILING,
                 fp2_ceiling: int = DEFAULT_FP2_CEILING) -> tuple[int, ...]:
    """Integer Euler-factor coefficients, ascending in T (degree 2*genus),
    Weil bound asserted: the one-lane case of `euler_factors`."""
    row = euler_factors([curve], [p], ceiling=ceiling, fp2_ceiling=fp2_ceiling)[0]
    return tuple(row[:2 * curve.genus + 1].tolist())


def unitarized_roots(lpoly, p: int) -> np.ndarray:
    """Reciprocal Euler-factor roots scaled onto the unit circle."""
    thetas = unitarized_eigenangles(lpoly, p)
    out = []
    for t in thetas:
        out.extend((complex(math.cos(t), math.sin(t)),
                    complex(math.cos(t), -math.sin(t))))
    return np.array(out)


def _first_invalid_row(g, p, good, a_p, lpoly) -> tuple[int, str] | None:
    """(row, message) of the first row of trace-table columns that breaks
    an invariant, else None.  A stored Euler factor passes exactly when it
    is a Weil polynomial.

    The Weil bound and the Euler factors are compared as Python integers,
    so no int64 product can wrap.
    """
    big_p, big_a = p.astype(object), a_p.astype(object)
    if lpoly is None:
        lpoly = np.zeros((len(p), 2 * g + 1), dtype=np.int64)
    stored = lpoly.any(axis=1)
    checks = [
        (np.diff(p, prepend=0) <= 0, "primes not strictly ascending at p={}"),
        (~good & ((a_p != 0) | stored), "bad prime {} carries trace data"),
        (good & (big_a * big_a > 4 * g * g * big_p), "p={}: Weil bound violated"),
        (stored & ((lpoly[:, 0] != 1) | (lpoly[:, 1] != -a_p)),
         "p={}: L-polynomial mismatch"),
    ]
    if g == 1:
        checks.append((stored & (lpoly[:, 2] != p), "p={}: constant term != p"))
    elif stored.any():
        # the factor is (1 - b T + p T^2)(1 - b' T + p T^2) with b, b' the
        # roots of x^2 + c1 x + c2 - 2p, real and in [-2 sqrt p, 2 sqrt p];
        # c1^2 <= 16p is the Weil bound above, as c1 = -a_p
        c = lpoly.T.astype(object)
        shifted = c[2] + 2 * big_p
        checks += [
            (stored & ((c[3] != big_p * c[1]) | (c[4] != big_p * big_p)),
             "p={}: Euler factor breaks the functional equation"),
            (stored & (4 * c[2] > c[1] * c[1] + 8 * big_p),
             "p={}: Euler factor violates 4 c2 <= c1^2 + 8p"),
            (stored & (shifted < 0), "p={}: Euler factor violates c2 + 2p >= 0"),
            (stored & (shifted * shifted < 4 * big_p * c[1] * c[1]),
             "p={}: Euler factor violates (c2 + 2p)^2 >= 4p c1^2"),
        ]
    failing = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    if not failing.size:
        return None
    first = int(failing[0])
    message = next(msg for mask, msg in checks if mask[first])
    return first, message.format(p[first])


def _quadratic_angle(trace_sum: float, p: int) -> float:
    # one conjugate pair e^{+-i theta} with 2 sqrt(p) cos(theta) = trace_sum;
    # clamping the cosine lets boundary traces land on theta = 0 or pi
    return math.acos(min(1.0, max(-1.0, trace_sum / (2.0 * math.sqrt(p)))))


def unitarized_eigenangles(lpoly, p: int) -> tuple[float, ...]:
    """Angles theta_j in [0, pi] with the Euler factor's unitarized roots e^{+-i theta_j}.

    The factor must pass the trace table's exact integer test of a Weil
    polynomial (`_first_invalid_row`), or `NonUnitaryRoots` carries that
    test's message.  A degree-4 factor is then split into real quadratic
    factors through the palindromic resolvent, so near-double roots lose no
    accuracy.  Genus is 1 or 2, so any other degree is invalid.
    """
    coeffs = tuple(int(c) for c in lpoly)
    if not coeffs or coeffs[0] != 1:
        raise ValidationError(f"Euler factor must start with 1, got {coeffs}")
    degree = len(coeffs) - 1
    if degree not in (2, 4):
        raise ValidationError(f"Euler factor degree must be 2 or 4, got {degree}")
    row = np.array([coeffs], dtype=object)
    invalid = _first_invalid_row(degree // 2, np.array([p], dtype=object),
                                 np.ones(1, dtype=bool), -row[:, 1], row)
    if invalid is not None:
        raise NonUnitaryRoots(invalid[1])
    if degree == 2:
        return (_quadratic_angle(-coeffs[1], p),)
    c1, c2 = coeffs[1:3]
    gap = math.sqrt(c1 * c1 - 4 * (c2 - 2 * p))   # (beta - beta')^2 >= 0, exact
    return tuple(sorted(
        _quadratic_angle(b, p) for b in ((-c1 + gap) / 2.0, (-c1 - gap) / 2.0)))
