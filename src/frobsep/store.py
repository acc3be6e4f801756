"""Per-curve Frobenius trace tables: read-only numpy columns, kept as CSV.

A table's invariants are checked on whole columns when it is built.  On
disk it is a CSV file with a fixed header and one metadata comment line,
so expensive counts happen once; cache files hold one full bucket of
primes each and are written atomically (temp file + rename, single
writer).  All stored values are integers; normalized traces are
recomputed on demand to avoid precision drift.  A table is counted in
chunks of interleaved primes, one batch counting call per chunk; parallel
counts use one process pool per process, so the fork is paid once, not
once per table.
"""

from __future__ import annotations

import array
import functools
import os
import re
import tempfile
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Final

import numpy as np

from .curves import (DEFAULT_FP2_CEILING, DEFAULT_FP_CEILING, CurveSpec,
                     count_points_many, euler_factor)
from .errors import (CeilingExceeded, ConflictError, IncompleteTable,
                     SchemaError, ValidationError)

CSV_HEADER: Final = "p,good,count_fp,a_p,lpoly"
METADATA_PREFIX: Final = "# frobsep-trace-table"
CACHE_BUCKET: Final = 100_000
CACHE_ENV_VAR: Final = "FROBSEP_CACHE"
_LABEL_RE: Final = re.compile(r"^[A-Za-z0-9._-]+$")
_PARALLEL_THRESHOLD: Final = 500          # primes; below this pool dispatch loses


def sieve_primes(n: int) -> np.ndarray:
    """All primes <= n, ascending, as int64."""
    flags = np.ones(max(n + 1, 2), dtype=bool)
    flags[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.flatnonzero(flags).astype(np.int64)


@dataclass(frozen=True, eq=False)
class TraceTable:
    """Frobenius data of one curve as read-only columns, one row per prime.

    `p` (int64) ascends strictly; `good` flags good reduction; `a_p` (int64)
    is 0 at bad primes.  `lpoly` is None or an (n, 2g+1) int64 array of
    ascending Euler-factor coefficients, with an all-zero row where no
    factor is stored.  #C(F_p) = p + 1 - a_p is derived, not stored.
    """

    curve_label: str
    conductor: int
    genus: int
    p: np.ndarray
    a_p: np.ndarray
    good: np.ndarray
    lpoly: np.ndarray | None = None

    def __post_init__(self):
        if not _LABEL_RE.match(self.curve_label):
            raise ValidationError(f"label {self.curve_label!r} not filesystem-safe")
        if self.genus not in (1, 2):
            raise ValidationError(f"unsupported genus {self.genus}")
        for name, dtype in (("p", np.int64), ("a_p", np.int64), ("good", bool),
                            ("lpoly", np.int64)):
            values = getattr(self, name)
            if values is not None:
                try:
                    col = np.array(values, dtype=dtype)
                except OverflowError:
                    raise ValidationError(f"{name} value does not fit in int64") from None
                col.setflags(write=False)
                object.__setattr__(self, name, col)
        if self.lpoly is not None and not self.lpoly.any():
            object.__setattr__(self, "lpoly", None)    # no row stores a factor
        n = len(self.p)
        if self.a_p.shape != (n,) or self.good.shape != (n,) or (
                self.lpoly is not None and self.lpoly.shape != (n, 2 * self.genus + 1)):
            raise ValidationError("columns must be n rows, lpoly n x (2g+1)")
        invalid = _first_invalid_row(self.genus, self.p, self.good, self.a_p,
                                     self.lpoly)
        if invalid is not None:
            raise ValidationError(invalid[1], row=invalid[0])

    def __eq__(self, other):
        if not isinstance(other, TraceTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def rows(self, primes: np.ndarray) -> np.ndarray:
        """Row index of each of `primes`; every one must be in the table."""
        absent = primes[~np.isin(primes, self.p)]
        if absent.size:
            raise IncompleteTable(
                f"{self.curve_label}: table lacks prime {absent[0]}")
        return np.searchsorted(self.p, primes)


def _first_invalid_row(g, p, good, a_p, lpoly) -> tuple[int, str] | None:
    """(row, message) of the first row that breaks an invariant, else None.

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


def check_p_max(p_max: int, ceiling: int) -> None:
    """What `compute_range` asks of p_max before it counts anything."""
    if p_max < 0:
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    if p_max > ceiling:
        raise CeilingExceeded(f"p_max={p_max} above counting ceiling {ceiling}")


def compute_range(curve: CurveSpec, p_max: int, *,
                  with_lpoly: bool = False,
                  ceiling: int = DEFAULT_FP_CEILING,
                  fp2_ceiling: int = DEFAULT_FP2_CEILING,
                  cache_dir: str | os.PathLike | None = None,
                  workers: int = 1) -> TraceTable:
    """Trace table for every prime <= p_max, cached in full buckets.

    Buckets are joined in ascending-prime order whatever the worker count,
    so repeated runs export byte-identical files.  `workers` 0 means one per
    CPU; more than the CPU count are never started.  Only genus 2 stores
    Euler factors, so `with_lpoly` is ignored for genus 1.
    """
    check_p_max(p_max, ceiling)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    with_lpoly = with_lpoly and curve.genus == 2
    workers = min(workers or os.cpu_count() or 1, os.cpu_count() or 1)
    every = sieve_primes(p_max)
    blocks = []
    for lo in range(0, p_max + 1, CACHE_BUCKET):
        hi = min(lo + CACHE_BUCKET - 1, p_max)
        primes = every[(every >= lo) & (every <= hi)]
        if cache_dir is not None and hi == lo + CACHE_BUCKET - 1:
            blocks.append(_cached_bucket(curve, lo, primes, with_lpoly, ceiling,
                                         fp2_ceiling, cache_dir, workers))
        else:
            blocks.append(_compute_block(curve, primes, with_lpoly, ceiling,
                                         fp2_ceiling, workers))
    if len(blocks) == 1:
        return blocks[0]
    # one check of the joined columns; a block without Euler factors adds
    # all-zero lpoly rows, and an all-zero lpoly column is stored as None
    width = 2 * curve.genus + 1
    lpoly = np.concatenate([np.zeros((len(b.p), width), dtype=np.int64)
                            if b.lpoly is None else b.lpoly for b in blocks])
    return TraceTable(curve_label=curve.label, conductor=curve.conductor,
                      genus=curve.genus,
                      p=np.concatenate([b.p for b in blocks]),
                      a_p=np.concatenate([b.a_p for b in blocks]),
                      good=np.concatenate([b.good for b in blocks]), lpoly=lpoly)


def _compute_block(curve, primes, with_lpoly, ceiling, fp2_ceiling,
                   workers) -> TraceTable:
    # one interleaved chunk per worker: chunks cost alike, where contiguous
    # ones grow with p, and each pays the counting kernel's fixed cost once
    k = workers if len(primes) >= _PARALLEL_THRESHOLD else 1
    args = [(curve, primes[i::k], with_lpoly, ceiling, fp2_ceiling) for i in range(k)]
    good = np.zeros(len(primes), dtype=bool)
    factors = np.zeros((len(primes), 5 if with_lpoly else 2), dtype=np.int64)
    mapper = _pool(workers).map if k > 1 else map
    try:
        for i, (part_good, part_factors) in enumerate(mapper(_count_block, args)):
            good[i::k], factors[i::k] = part_good, part_factors
    except BrokenProcessPool:
        _pool.cache_clear()         # a broken pool is never handed out again
        raise
    return TraceTable(curve_label=curve.label, conductor=curve.conductor,
                      genus=curve.genus, p=primes, a_p=-factors[:, 1], good=good,
                      lpoly=factors if with_lpoly else None)


@functools.cache
def _pool(workers: int) -> ProcessPoolExecutor:
    """The process's one pool of `workers`; joined at interpreter exit."""
    return ProcessPoolExecutor(max_workers=workers)


def _count_block(args) -> tuple[np.ndarray, np.ndarray]:
    """Good-reduction flags and Euler factors of one chunk of primes, or
    just (1, -a_p), with zero rows at bad primes."""
    curve, primes, with_lpoly, ceiling, fp2_ceiling = args
    good = np.array([not curve.is_bad(p) for p in primes.tolist()], dtype=bool)
    factors = np.zeros((len(primes), 5 if with_lpoly else 2), dtype=np.int64)
    if with_lpoly:
        for row in np.flatnonzero(good):
            factors[row] = euler_factor(curve, int(primes[row]), ceiling=ceiling,
                                        fp2_ceiling=fp2_ceiling)
    else:
        factors[good, 0] = 1
        factors[good, 1] = count_points_many(curve, primes[good], ceiling=ceiling) \
            - primes[good] - 1
    return good, factors


def bad_prime_sets(curve: CurveSpec, p_max: int) -> tuple[list[int], list[int]]:
    """Primes <= p_max dividing the conductor vs. dividing the discriminant.

    The table flags a prime bad when it lands in either set; callers report
    the discrepancy when the two disagree.
    """
    disc = abs(curve.discriminant)
    primes = sieve_primes(p_max).tolist()
    by_n = [p for p in primes if curve.conductor % p == 0]
    by_disc = [p for p in primes if disc % p == 0]
    return by_n, by_disc


# ---------------------------------------------------------------------------
# CSV round trip


def to_csv_text(table: TraceTable, model: str | None = None) -> str:
    """CSV text; a bucket's `model` fingerprint joins the metadata line."""
    meta = (f"{METADATA_PREFIX} label={table.curve_label} conductor={table.conductor} "
            f"genus={table.genus}")
    if model is not None:
        meta += f" model={model}"
    lines = [meta, CSV_HEADER]
    lpoly = table.lpoly.tolist() if table.lpoly is not None else None
    rows = zip(table.p.tolist(), table.good.tolist(), table.a_p.tolist())
    for i, (p, good, a_p) in enumerate(rows):
        if good:
            factor = ";".join(map(str, lpoly[i])) if lpoly and lpoly[i][0] else ""
            lines.append(f"{p},1,{p + 1 - a_p},{a_p},{factor}")
        else:
            lines.append(f"{p},0,,,")
    return "\n".join(lines) + "\n"


def _parse_metadata(line: str) -> dict:
    """Metadata key/value pairs; conductor and genus come back as ints.
    Keys it does not know, such as those older files carry, are ignored."""
    if not line.startswith(METADATA_PREFIX):
        raise SchemaError("missing trace-table metadata line")
    tokens = line[len(METADATA_PREFIX):].split()
    if not all("=" in kv for kv in tokens):
        raise SchemaError(f"metadata token without '=' in {line!r}")
    meta = dict(kv.split("=", 1) for kv in tokens)
    for key in ("label", "conductor", "genus"):
        if key not in meta:
            raise SchemaError(f"metadata line lacks {key}")
    try:
        meta["conductor"], meta["genus"] = int(meta["conductor"]), int(meta["genus"])
    except ValueError:
        raise SchemaError(f"conductor and genus must be integers in {line!r}") from None
    if meta["genus"] not in (1, 2):
        raise SchemaError(f"genus {meta['genus']} is not 1 or 2")
    return meta


def from_csv_text(text: str, model: str | None = None) -> TraceTable:
    """Table from CSV text; a row that breaks an invariant names its line.

    Each row is parsed and its #C(F_p) column checked against a_p here; the
    table's constructor checks every other invariant, once.

    With `model`, the text is a cache bucket for that fingerprint: one for
    another model is a conflict, and one without a fingerprint predates
    them and reads as holding no rows.
    """
    lines = text.splitlines()
    meta = _parse_metadata(lines[0] if lines else "")
    if len(lines) < 2 or lines[1] != CSV_HEADER:
        raise SchemaError(f"header must be exactly {CSV_HEADER!r}")
    if model is not None and meta.get("model", model) != model:
        raise ConflictError(f"{meta['label']}: table built for model "
                            f"{meta['model']}, not {model}")
    width = 2 * meta["genus"] + 1
    # lineno, p, good, count_fp, a_p, lpoly per row; count_fp is kept so
    # that it too is parsed as int64 and an overflow there names itself
    values = array.array("q")
    body = lines[2:] if model is None or "model" in meta else []
    for lineno, raw in enumerate(body, start=3):
        if not raw:
            continue
        parts = raw.split(",")
        if len(parts) != 5:
            raise ValidationError(f"expected 5 fields, got {len(parts)}", lineno)
        p, good, count, a_p, lpoly = parts
        if good not in ("0", "1"):
            raise ValidationError(f"malformed row: good flag {good!r}", lineno)
        if good == "1" and not (count and a_p):
            raise ValidationError(f"good prime {p} lacks count/trace", lineno)
        if good == "0" and (count or a_p or lpoly):
            raise ValidationError(f"bad prime {p} carries trace data", lineno)
        try:
            factor = [int(c) for c in lpoly.split(";")] if lpoly else [0] * width
            if len(factor) != width:
                raise ValidationError(f"p={p}: L-polynomial mismatch", lineno)
            row = [int(p), int(good), int(count or 0), int(a_p or 0)]
            values.extend([lineno, *row, *factor])
        except ValueError as exc:
            raise ValidationError(f"malformed row: {exc}", lineno) from None
        except OverflowError:
            raise ValidationError("value does not fit in int64", lineno) from None
        if good == "1" and row[2] != row[0] + 1 - row[3]:
            raise ValidationError(f"p={row[0]}: a_p != p + 1 - #C(F_p)", lineno)
    cols = np.frombuffer(values, dtype=np.int64).reshape(-1, 5 + width)
    linenos, p, good, _, a_p = cols[:, :5].T
    try:
        return TraceTable(curve_label=meta["label"], conductor=meta["conductor"],
                          genus=meta["genus"], p=p, a_p=a_p, good=good == 1,
                          lpoly=cols[:, 5:])
    except ValidationError as exc:
        if exc.row is None:
            raise
        raise ValidationError(str(exc), int(linenos[exc.row])) from None


def export_csv(table: TraceTable, path: str | os.PathLike,
               model: str | None = None) -> None:
    """Write atomically: readers only ever observe complete files."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(to_csv_text(table, model))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def import_csv(path: str | os.PathLike, model: str | None = None) -> TraceTable:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return from_csv_text(fh.read(), model)


# ---------------------------------------------------------------------------
# bucket cache


def _bucket_path(cache_dir, label: str, lo: int) -> Path:
    return Path(cache_dir) / f"{label}.b{lo // CACHE_BUCKET:04d}.csv"


def _model_fingerprint(curve: CurveSpec) -> str:
    """Canonical f and h, ascending and trimmed: `f0,f1,.../h0,h1,...`."""
    return "/".join(",".join(str(c) for c in coeffs) for coeffs in (curve.f, curve.h))


def _cached_bucket(curve, lo, primes, with_lpoly, ceiling, fp2_ceiling,
                   cache_dir, workers) -> TraceTable:
    """One full bucket from the cache, counted and rewritten when stale.

    A file for another label, conductor, genus or model is a conflict.  A
    file without a model fingerprint, or whose primes are not exactly those
    of the bucket, is stale.
    """
    path = _bucket_path(cache_dir, curve.label, lo)
    model = _model_fingerprint(curve)
    if path.exists():
        cached = import_csv(path, model)
        declared = (curve.label, curve.conductor, curve.genus)
        if (cached.curve_label, cached.conductor, cached.genus) != declared:
            raise ConflictError(f"cache file {path} holds label, conductor, genus "
                                f"{cached.curve_label, cached.conductor, cached.genus}"
                                f", not {declared}")
        lacks_lpoly = with_lpoly and (
            cached.lpoly is None or not cached.lpoly[cached.good, 0].all())
        if np.array_equal(cached.p, primes) and not lacks_lpoly:
            return cached
    bucket = _compute_block(curve, primes, with_lpoly, ceiling, fp2_ceiling, workers)
    export_csv(bucket, path, model)
    return bucket
