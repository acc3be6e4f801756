"""Per-curve Frobenius trace tables: read-only numpy columns, kept as CSV.

A table's invariants are checked on whole columns when it is built.  On
disk it is a CSV file with a fixed header and one metadata comment line,
so expensive counts happen once; cache files hold one full bucket of
primes each and are written atomically (temp file + rename, single
writer).  All stored values are integers; normalized traces are
recomputed on demand to avoid precision drift.  Many curves are counted
together as lanes (curve, prime): `CurveSpec.bad_primes` decides each block's
bad primes once, and their rows stay zero; one guard pass checks every good
lane, and each interleaved chunk of them gets one `euler_factors` call on
its lanes, primes and `lpoly` alone.  A parallel count forks its children
for that call alone and reaps them before it returns.
"""

from __future__ import annotations

import array
import os
import pickle
import re
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Final

import numpy as np

from . import curves
from .curves import (DEFAULT_FP2_CEILING, DEFAULT_FP_CEILING, CurveSpec,
                     _first_invalid_row, euler_factors)
from .errors import (CeilingExceeded, ChildFailed, ConflictError, IncompleteTable,
                     SchemaError, ValidationError)

CSV_HEADER: Final = "p,good,count_fp,a_p,lpoly"
METADATA_PREFIX: Final = "# frobsep-trace-table"
CACHE_BUCKET: Final = 100_000
CACHE_ENV_VAR: Final = "FROBSEP_CACHE"
_LABEL_RE: Final = re.compile(r"^[A-Za-z0-9._-]+$")
_PARALLEL_THRESHOLD: Final = 500   # primes of one curve's block; below, forks lose


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
        rows = np.searchsorted(self.p, primes)      # len(p) above the last prime
        absent = primes[np.append(self.p, 0)[rows] != primes]
        if absent.size:
            raise IncompleteTable(f"{self.curve_label}: table lacks prime {absent[0]}")
        return rows


def check_p_max(p_max: int, ceiling: int) -> None:
    """What `compute_range` asks of p_max before it counts anything."""
    if p_max < 0:
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    if p_max > ceiling:
        raise CeilingExceeded(f"p_max={p_max} above counting ceiling {ceiling}")


def compute_range(curve: CurveSpec, p_max: int, *, with_lpoly: bool = False,
                  ceiling: int = DEFAULT_FP_CEILING, fp2_ceiling: int = DEFAULT_FP2_CEILING,
                  cache_dir: str | os.PathLike | None = None, workers: int = 1) -> TraceTable:
    """Trace table of `curve` to p_max: the one-curve case of `compute_ranges`."""
    return compute_ranges({curve: p_max}, with_lpoly=with_lpoly, ceiling=ceiling,
                          fp2_ceiling=fp2_ceiling, cache_dir=cache_dir,
                          workers=workers)[curve]


def compute_ranges(p_maxes: dict[CurveSpec, int], *, with_lpoly: bool = False,
                   ceiling: int = DEFAULT_FP_CEILING, fp2_ceiling: int = DEFAULT_FP2_CEILING,
                   cache_dir: str | os.PathLike | None = None,
                   workers: int = 1) -> dict[CurveSpec, TraceTable]:
    """Trace table of each curve for every prime <= its p_max, cached in
    full buckets, which are read first; every block left, across all curves,
    is counted as one set of lanes (curve, prime).  Buckets are joined in
    ascending-prime order whatever the worker count, so repeated runs export
    byte-identical files.  `workers` 0 means one per CPU this process may
    run on; more than those are never used.  Only genus 2 stores Euler
    factors, so `with_lpoly` is ignored for genus 1.
    """
    for p_max in p_maxes.values():
        check_p_max(p_max, ceiling)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(workers or cpus, cpus) if hasattr(os, "fork") else 1
    every = sieve_primes(max(p_maxes.values(), default=0))
    blocks = []         # [curve, primes, full bucket's path or None, table or None]
    for curve, p_max in p_maxes.items():
        for lo in range(0, p_max + 1, CACHE_BUCKET):
            hi = min(lo + CACHE_BUCKET - 1, p_max)
            primes = every[(every >= lo) & (every <= hi)]
            path = (_bucket_path(cache_dir, curve.label, lo) if cache_dir is not None
                    and hi == lo + CACHE_BUCKET - 1 else None)
            blocks.append([curve, primes, path, path and _cached_bucket(
                curve, path, primes, with_lpoly)])
    todo = [block for block in blocks if block[3] is None]
    paths = [path for _, _, path, _ in todo if path is not None]
    twice = next((path for path in paths if paths.count(path) > 1), None)
    if twice is not None:
        raise ConflictError(f"two curves under one label would write {twice}")
    lanes = [curve for curve, block, *_ in todo for _ in range(len(block))]
    primes = np.concatenate([np.zeros(0, np.int64), *(block for _, block, *_ in todo)])
    good = np.concatenate([np.zeros(0, bool), *(
        ~np.logical_or(*curve.bad_primes(block)) for curve, block, *_ in todo)])
    lanes = [lanes[i] for i in np.flatnonzero(good).tolist()]
    curves.check_lanes(lanes, primes[good], fp2_ceiling=fp2_ceiling if with_lpoly else None)
    k = workers if any(len(block) >= _PARALLEL_THRESHOLD for _, block, *_ in todo) else 1
    factors = np.zeros((len(primes), 5), dtype=np.int64)
    factors[good] = _count_lanes(k, lanes, primes[good], with_lpoly)
    ends = np.cumsum([len(primes) for _, primes, _, _ in todo])[:-1]
    for block, rows in zip(todo, np.split(factors, ends)):
        curve, primes, path, _ = block
        block[3] = TraceTable(
            curve_label=curve.label, conductor=curve.conductor, genus=curve.genus,
            p=primes, a_p=-rows[:, 1], good=rows[:, 0] == 1,
            lpoly=rows if with_lpoly and curve.genus == 2 else None)
        if path is not None:
            export_csv(block[3], path, _model_fingerprint(curve))
    return {curve: _join(curve, [table for c, _, _, table in blocks if c is curve])
            for curve in p_maxes}


def _join(curve: CurveSpec, blocks: list[TraceTable]) -> TraceTable:
    if len(blocks) == 1:
        return blocks[0]
    # one check of the joined columns; a block without Euler factors adds
    # all-zero lpoly rows, and an all-zero lpoly column is stored as None
    width = 2 * curve.genus + 1
    lpoly = np.concatenate([np.zeros((len(b.p), width), dtype=np.int64)
                            if b.lpoly is None else b.lpoly for b in blocks])
    columns = {name: np.concatenate([getattr(b, name) for b in blocks])
               for name in ("p", "a_p", "good")}
    return TraceTable(curve.label, curve.conductor, curve.genus, lpoly=lpoly, **columns)


def _count_lanes(k, lanes, primes, lpoly) -> np.ndarray:
    """`euler_factors` of every lane, curve lanes[i] at primes[i], in order.
    With k > 1, this process and up to k - 1 forked children each count one
    interleaved chunk of the lanes: chunks cost alike, where contiguous ones
    grow with p, and each pays the fixed cost once.  No lanes, no call."""
    chunks = [(lanes[i::k], primes[i::k]) for i in range(min(k, len(lanes)))]
    factors = np.zeros((len(primes), 5), dtype=np.int64)
    reaps = []
    try:
        for chunk in chunks[1:]:
            reaps.append(_fork(*chunk, lpoly))
        if chunks:
            factors[0::k] = euler_factors(*chunks[0], lpoly=lpoly)
    finally:
        parts = [reap() for reap in reaps]    # even when a fork or chunk 0 raised
    for i, part in enumerate(parts, start=1):
        if isinstance(part, BaseException):
            raise part
        factors[i::k] = part
    return factors


def _fork(lanes, primes, lpoly):
    """Fork a child that pickles `euler_factors(lanes, primes, lpoly=lpoly)`, or
    its error, to a pipe.  Returns the function that reads the pipe to EOF,
    reaps the child and returns its factors or the exception to raise."""
    read, write = os.pipe()
    if (pid := os.fork()) == 0:         # the child: its body ends in os._exit
        try:
            try:
                result = euler_factors(lanes, primes, lpoly=lpoly)
            except BaseException as exc:    # raised again, with its type, by the parent
                import traceback
                exc.__notes__ = [traceback.format_exc()]    # shows any earlier note
                result = pickle.loads(pickle.dumps(exc))   # one that cannot load fails here
            with open(write, "wb") as fh:
                pickle.dump(result, fh)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write)

    def reap():
        with open(read, "rb") as fh:
            data = fh.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return pickle.loads(data) if status == 0 else ChildFailed(
            f"counting child {pid} ended with exit status {status} and no result")
    return reap


def bad_prime_sets(curve: CurveSpec, primes) -> tuple[list[int], list[int]]:
    """The `primes` dividing the conductor vs. dividing the discriminant.

    The table flags a prime bad when it lands in either set; callers pass
    its primes and report the discrepancy when the two disagree.
    """
    return tuple(primes[mask].tolist() for mask in curve.bad_primes(primes))


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


def _cached_bucket(curve, path, primes, with_lpoly) -> TraceTable | None:
    """The full bucket at `path`, or None when it is missing or stale.

    A file for another label, conductor, genus or model is a conflict.  A
    file without a model fingerprint, or whose primes are not exactly those
    of the bucket, is stale.
    """
    if not path.exists():
        return None
    cached = import_csv(path, _model_fingerprint(curve))
    declared = (curve.label, curve.conductor, curve.genus)
    if (cached.curve_label, cached.conductor, cached.genus) != declared:
        raise ConflictError(f"cache file {path} holds label, conductor, genus "
                            f"{cached.curve_label, cached.conductor, cached.genus}"
                            f", not {declared}")
    lacks_lpoly = with_lpoly and curve.genus == 2 and (
        cached.lpoly is None or not cached.lpoly[cached.good, 0].all())
    return None if lacks_lpoly or not np.array_equal(cached.p, primes) else cached
