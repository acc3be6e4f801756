"""Persisted per-curve Frobenius trace tables.

Tables are CSV files with a fixed header and one metadata comment line, so
expensive counts happen once; cache files hold one full bucket of primes
each and are written atomically (temp file + rename, single writer).  All
stored values are integers; normalized traces are recomputed on demand to
avoid precision drift.
"""

from __future__ import annotations

import os
import re
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Final, Iterable

import numpy as np

from .curves import (DEFAULT_FP2_CEILING, DEFAULT_FP_CEILING, CurveSpec,
                     PrimeTrace, euler_factor, frobenius_trace,
                     unitarized_eigenangles)
from .errors import (CeilingExceeded, ConflictError, NonUnitaryRoots,
                     SchemaError, ValidationError)

CSV_HEADER: Final = "p,good,count_fp,a_p,lpoly"
METADATA_PREFIX: Final = "# frobsep-trace-table"
CACHE_BUCKET: Final = 100_000
CACHE_ENV_VAR: Final = "FROBSEP_CACHE"
_LABEL_RE: Final = re.compile(r"^[A-Za-z0-9._-]+$")
_PARALLEL_THRESHOLD: Final = 500          # primes; below this fork overhead loses


def sieve_primes(n: int) -> list[int]:
    """All primes <= n, ascending."""
    if n < 2:
        return []
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return [int(p) for p in np.flatnonzero(flags)]


@dataclass(frozen=True)
class TraceTable:
    """Ordered Frobenius data for one curve, bad primes flagged and empty."""

    curve_label: str
    conductor: int
    genus: int
    entries: tuple[PrimeTrace, ...]
    provenance: str = "computed"

    def __post_init__(self):
        if not _LABEL_RE.match(self.curve_label):
            raise ValidationError(f"label {self.curve_label!r} not filesystem-safe")
        if self.provenance not in ("computed", "imported"):
            raise ValidationError(f"unknown provenance {self.provenance!r}")
        last = 0
        for e in self.entries:
            if e.p <= last:
                raise ValidationError(f"primes not strictly ascending at p={e.p}")
            last = e.p
            self._check_entry(e)

    def _check_entry(self, e: PrimeTrace, line: int | None = None):
        if e.good:
            if e.point_count_fp is None or e.a_p is None:
                raise ValidationError(f"good prime {e.p} lacks count/trace", line)
            if e.a_p != e.p + 1 - e.point_count_fp:
                raise ValidationError(f"p={e.p}: a_p != p + 1 - #C(F_p)", line)
            if e.a_p * e.a_p > 4 * self.genus * self.genus * e.p:
                raise ValidationError(f"p={e.p}: Weil bound violated", line)
            if e.lpoly is not None:
                if len(e.lpoly) != 2 * self.genus + 1 or e.lpoly[1] != -e.a_p:
                    raise ValidationError(f"p={e.p}: L-polynomial mismatch", line)
                try:
                    unitarized_eigenangles(e.lpoly, e.p)
                except NonUnitaryRoots as exc:
                    raise ValidationError(f"p={e.p}: {exc}", line) from None
        else:
            if e.a_p is not None or e.point_count_fp is not None or e.lpoly is not None:
                raise ValidationError(f"bad prime {e.p} carries trace data", line)

    def entry(self, p: int) -> PrimeTrace | None:
        return self._by_prime().get(p)

    def _by_prime(self) -> dict[int, PrimeTrace]:
        cached = getattr(self, "_index", None)
        if cached is None:
            cached = {e.p: e for e in self.entries}
            object.__setattr__(self, "_index", cached)
        return cached

    def missing_prime(self, p_max: int) -> int | None:
        """First prime <= p_max without an entry, or None when fully covered."""
        have = self._by_prime()
        for p in sieve_primes(p_max):
            if p not in have:
                return p
        return None

    @property
    def max_prime(self) -> int:
        return self.entries[-1].p if self.entries else 0


def compute_range(curve: CurveSpec, p_max: int, *,
                  with_lpoly: bool = False,
                  ceiling: int = DEFAULT_FP_CEILING,
                  fp2_ceiling: int = DEFAULT_FP2_CEILING,
                  cache_dir: str | os.PathLike | None = None,
                  workers: int = 1) -> TraceTable:
    """Trace table for every prime <= p_max, cached in full buckets.

    Results are merged in ascending-prime order whatever the worker count,
    so repeated runs export byte-identical files.
    """
    if p_max > ceiling:
        raise CeilingExceeded(f"p_max={p_max} above counting ceiling {ceiling}")
    entries: list[PrimeTrace] = []
    for lo in range(0, p_max + 1, CACHE_BUCKET):
        hi = min(lo + CACHE_BUCKET - 1, p_max)
        full_bucket = hi == lo + CACHE_BUCKET - 1
        if cache_dir is not None and full_bucket:
            entries.extend(_cached_bucket(curve, lo, with_lpoly, ceiling,
                                          fp2_ceiling, cache_dir, workers))
        else:
            primes = [p for p in sieve_primes(hi) if p >= lo]
            entries.extend(_compute_entries(curve, primes, with_lpoly,
                                            ceiling, fp2_ceiling, workers))
    return TraceTable(curve_label=curve.label, conductor=curve.conductor,
                      genus=curve.genus, entries=tuple(entries))


def _compute_entries(curve, primes, with_lpoly, ceiling, fp2_ceiling, workers):
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers > 1 and len(primes) >= _PARALLEL_THRESHOLD:
        size = max(1, (len(primes) + 4 * workers - 1) // (4 * workers))
        chunks = [primes[i: i + size] for i in range(0, len(primes), size)]
        args = [(curve, chunk, with_lpoly, ceiling, fp2_ceiling) for chunk in chunks]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_count_block, args))
        return [e for block in blocks for e in block]
    return _count_block((curve, list(primes), with_lpoly, ceiling, fp2_ceiling))


def _count_block(args) -> list[PrimeTrace]:
    curve, primes, with_lpoly, ceiling, fp2_ceiling = args
    out = []
    for p in primes:
        if curve.is_bad(p):
            out.append(PrimeTrace.bad(p))
        elif with_lpoly and curve.genus == 2:
            lpoly = euler_factor(curve, p, ceiling=ceiling, fp2_ceiling=fp2_ceiling)
            n = p + 1 + lpoly[1]
            out.append(PrimeTrace(p=p, good=True, point_count_fp=n,
                                  a_p=-lpoly[1], lpoly=lpoly))
        else:
            out.append(frobenius_trace(curve, p, ceiling=ceiling))
    return out


def bad_prime_sets(curve: CurveSpec, p_max: int) -> tuple[list[int], list[int]]:
    """Primes <= p_max dividing the conductor vs. dividing the discriminant.

    The table flags a prime bad when it lands in either set; callers report
    the discrepancy when the two disagree.
    """
    disc = abs(curve.discriminant)
    by_n = [p for p in sieve_primes(p_max) if curve.conductor % p == 0]
    by_disc = [p for p in sieve_primes(p_max) if disc % p == 0]
    return by_n, by_disc


# ---------------------------------------------------------------------------
# CSV round trip


def to_csv_text(table: TraceTable, model: str | None = None) -> str:
    """CSV text; a bucket's `model` fingerprint joins the metadata line."""
    meta = (f"{METADATA_PREFIX} label={table.curve_label} conductor={table.conductor} "
            f"genus={table.genus} provenance={table.provenance}")
    if model is not None:
        meta += f" model={model}"
    lines = [meta, CSV_HEADER]
    for e in table.entries:
        if e.good:
            lpoly = ";".join(str(c) for c in e.lpoly) if e.lpoly else ""
            lines.append(f"{e.p},1,{e.point_count_fp},{e.a_p},{lpoly}")
        else:
            lines.append(f"{e.p},0,,,")
    return "\n".join(lines) + "\n"


def _parse_metadata(line: str) -> dict[str, str]:
    if not line.startswith(METADATA_PREFIX):
        raise SchemaError("missing trace-table metadata line")
    meta = dict(kv.split("=", 1) for kv in line[len(METADATA_PREFIX):].split())
    for key in ("label", "conductor", "genus", "provenance"):
        if key not in meta:
            raise SchemaError(f"metadata line lacks {key}")
    return meta


def from_csv_text(text: str) -> TraceTable:
    lines = text.splitlines()
    meta = _parse_metadata(lines[0] if lines else "")
    if len(lines) < 2 or lines[1] != CSV_HEADER:
        raise SchemaError(f"header must be exactly {CSV_HEADER!r}")
    entries = []
    genus = int(meta["genus"])
    table = TraceTable(curve_label=meta["label"], conductor=int(meta["conductor"]),
                       genus=genus, entries=(), provenance=meta["provenance"])
    last_p = 0
    for lineno, raw in enumerate(lines[2:], start=3):
        if not raw:
            continue
        parts = raw.split(",")
        if len(parts) != 5:
            raise ValidationError(f"expected 5 fields, got {len(parts)}", lineno)
        try:
            p = int(parts[0])
            good = {"0": False, "1": True}[parts[1]]
            count = int(parts[2]) if parts[2] else None
            a_p = int(parts[3]) if parts[3] else None
            lpoly = tuple(int(c) for c in parts[4].split(";")) if parts[4] else None
        except (ValueError, KeyError) as exc:
            raise ValidationError(f"malformed row: {exc}", lineno) from None
        if p <= last_p:
            raise ValidationError(f"primes not ascending at p={p}", lineno)
        last_p = p
        entry = PrimeTrace(p=p, good=good, point_count_fp=count, a_p=a_p,
                           lpoly=lpoly)
        table._check_entry(entry, lineno)
        entries.append(entry)
    return replace(table, entries=tuple(entries))


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


def import_csv(path: str | os.PathLike) -> TraceTable:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return from_csv_text(fh.read())


def merge(t1: TraceTable, t2: TraceTable) -> TraceTable:
    """Union of primes; any disagreement on shared primes is a hard error."""
    if (t1.curve_label, t1.conductor, t1.genus) != (t2.curve_label, t2.conductor, t2.genus):
        raise ValidationError(
            f"cannot merge tables for {t1.curve_label!r} and {t2.curve_label!r}")
    merged: dict[int, PrimeTrace] = {e.p: e for e in t1.entries}
    for e in t2.entries:
        old = merged.get(e.p)
        if old is None:
            merged[e.p] = e
            continue
        if (old.good, old.point_count_fp, old.a_p) != (e.good, e.point_count_fp, e.a_p):
            raise ConflictError(
                f"{t1.curve_label}: tables disagree at p={e.p} "
                f"({old.a_p} vs {e.a_p})")
        if old.lpoly is not None and e.lpoly is not None and old.lpoly != e.lpoly:
            raise ConflictError(f"{t1.curve_label}: L-polynomials disagree at p={e.p}")
        if old.lpoly is None and e.lpoly is not None:
            merged[e.p] = e
    provenance = t1.provenance if t1.provenance == t2.provenance else "imported"
    entries = tuple(merged[p] for p in sorted(merged))
    return TraceTable(curve_label=t1.curve_label, conductor=t1.conductor,
                      genus=t1.genus, entries=entries, provenance=provenance)


# ---------------------------------------------------------------------------
# bucket cache


def _bucket_path(cache_dir, label: str, lo: int) -> Path:
    return Path(cache_dir) / f"{label}.b{lo // CACHE_BUCKET:04d}.csv"


def _model_fingerprint(curve: CurveSpec) -> str:
    """Canonical f and h, ascending and trimmed: `f0,f1,.../h0,h1,...`."""
    return "/".join(",".join(str(c) for c in coeffs) for coeffs in (curve.f, curve.h))


def _cached_bucket(curve, lo, with_lpoly, ceiling, fp2_ceiling,
                   cache_dir, workers) -> tuple[PrimeTrace, ...]:
    """One full bucket from the cache, counted and rewritten when stale.

    A file for another declaration of the label (conductor, genus or model)
    is a conflict.  A file without a model fingerprint, or whose primes are
    not exactly those of the bucket, is stale.
    """
    path = _bucket_path(cache_dir, curve.label, lo)
    model = _model_fingerprint(curve)
    primes = [p for p in sieve_primes(lo + CACHE_BUCKET - 1) if p >= lo]
    if path.exists():
        with open(path, "r", encoding="utf-8") as fh:
            meta = _parse_metadata(fh.readline())
        if ((int(meta["conductor"]), int(meta["genus"]), meta.get("model", model))
                != (curve.conductor, curve.genus, model)):
            raise ConflictError(
                f"cache file {path} was built for a different declaration of "
                f"{curve.label!r}")
        if "model" in meta:
            cached = import_csv(path)
            fresh = [e.p for e in cached.entries] == primes
            if fresh and not (with_lpoly and curve.genus == 2 and any(
                    e.good and e.lpoly is None for e in cached.entries)):
                return cached.entries
    entries = tuple(_compute_entries(curve, primes, with_lpoly, ceiling,
                                     fp2_ceiling, workers))
    bucket = TraceTable(curve_label=curve.label, conductor=curve.conductor,
                        genus=curve.genus, entries=entries)
    export_csv(bucket, path, model)
    return entries
