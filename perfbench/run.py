"""Benchmark of the frobsep command line: closed-loop workloads, end-to-end
and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; NAME is a workload below or ``all``.
One client runs the workload's invocations one after another, each in a
fresh ``python -m frobsep`` process with ``src`` on ``PYTHONPATH`` and an
explicit ``--parallelism`` (at most 2, never more than the CPU count), so
every invocation pays imports and first-call cache fills as a user does.

``--trace 0`` repeats the invocation sequence as often as fits in
``--seconds`` (at least once) and reports the median per sequence of wall_s,
cpu_s (user + sys of every child, pool workers included), primes_per_s and
peak_rss_mb, plus setup_s, the median of several timed set-ups.  ``--trace
1`` runs the sequence once untraced and once through ``shim.py``, which
times the calls into each module, and adds the serial microbenchmarks of
``micro.py``; it reports the per-layer metrics.  Outputs are checked outside
the timed region.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; a result file with the machine,
library versions, parallelism, seed and revision goes to
``.bench_build/perfbench/results``.

The warm-analysis workload reads full 10^5-prime cache buckets of three
curves.  Counting them takes about a minute, so the first run in a checkout
builds them once under ``.bench_build/perfbench/prefill`` (rebuilt whenever
``src`` changes); each set-up copies them into its own cache directory.
Counting at that scale is timed by cold-tables instead.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
PARALLELISM = min(2, os.cpu_count() or 1)
SETUPS_PER_RUN = 5
RUN_LIMIT_S = 150.0              # a run must end well inside 180 s
PREFILL_LIMIT_S = 700.0          # a checkout's first run may take 900 s
BUCKET_PMAX = 99_999             # last prime slot of the first 10^5 cache bucket
SCAN_PMAX = 10_000
PREFILL_CURVES = ("11a1.json", "37a1.json", "g2b.json")
ORACLE_SAMPLE = 8                # bucket primes re-derived per cold-tables run


@functools.cache
def catalogue() -> dict:
    """Names, units and directions of every metric, from BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def unit(metric: str) -> str:
    doc = catalogue()
    return next(m["unit"] for m in doc["end_to_end"] + doc["per_layer"]
                if m["name"] == metric)


def _primes_upto(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if flags[p]:
            flags[p * p:: p] = bytearray(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if flags[p]]


PRIMES = _primes_upto(100_000)


def prime_pi(n: int) -> int:
    return bisect.bisect_right(PRIMES, n)


@dataclass(frozen=True)
class Invocation:
    """One CLI call; ``tables`` holds the p_max of every table it delivers."""

    args: tuple[str, ...]
    tables: tuple[int, ...] = ()
    exit_codes: frozenset[int] = frozenset({0})

    @property
    def entries(self) -> int:
        return sum(prime_pi(p_max) for p_max in self.tables)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    prefill: bool = False


WORKLOADS = {w.name: w for w in (
    # Counting at large p is most of the run, as it is for users building
    # tables; the analysis layers barely run.  11a1 to 99 999 is exactly one
    # full 10^5 bucket, so the cache-write path runs.
    Workload("cold-tables",
             (Invocation(("count", "11a1.json", "--pmax", "99999"), (BUCKET_PMAX,)),
              Invocation(("count", "g2b.json", "--pmax", "20000"), (20_000,)),
              Invocation(("count", "g2b.json", "--pmax", "97", "--lpoly"), (97,)))),
    # Every table comes from full cached buckets, so nothing is counted: the
    # run is cache reads and CSV parsing, kernel sums, evaluators, character
    # theory (t_chi search, quadrature, exact path) and imports.  It is the
    # read side of the buckets cold-tables writes, so a store change that
    # trades read cost for write cost shows on one of the two.
    Workload("warm-analysis",
             (Invocation(("sum", "11a1.json", "37a1.json", "--x", "1e3,1e4,1e5"),
                         (100_000, 100_000)),
              Invocation(("sum", "11a1.json", "g2b.json", "--x", "1e4,1e5"),
                         (100_000, 100_000)),
              Invocation(("sum", "11a1.json", "--x", "1e5", "--chi", "trivial"),
                         (100_000,)),
              Invocation(("sum", "11a1.json", "--x", "1e5", "--chi", "sym2.json"),
                         (100_000,)),
              Invocation(("separate", "11a1.json", "37a1.json", "--pmax", "99999"),
                         (BUCKET_PMAX, BUCKET_PMAX)),
              Invocation(("delta", "--g", "2", "--g2", "2"))),
             prefill=True),
    # Counting at small p, below a bucket, where per-call overhead dominates:
    # nothing is cached and each curve is recounted for every pair it is in.
    # Separates counting-backend gains (large p) from count-once and
    # prefix-cache gains (shared work).  The corpus comes from the seed.
    Workload("scan-corpus",
             (Invocation(("scan", "corpus.json", "--pmax", str(SCAN_PMAX)),
                         (SCAN_PMAX,) * 48, frozenset({0, 3})),)),
)}


# ---------------------------------------------------------------------------
# processes


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("FROBSEP_CACHE", None)
    return env


ENV = _child_env()


@dataclass
class Outcome:
    """One finished child process."""

    code: int
    wall: float
    cpu: float
    rss_mb: float
    spawn: float
    reap: float


def spawn(cmd: list[str], cwd: Path, stdout: Path, deadline: float) -> Outcome:
    """Run ``cmd`` to completion; killed (code -9) if it outlives ``deadline``."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=ENV)
        timer = threading.Timer(max(1.0, deadline - t0), os.kill,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(code=proc.returncode, wall=t1 - t0,
                   cpu=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss / 1024.0, spawn=t0, reap=t1)


def cli_command(inv: Invocation, spans: Path | None) -> list[str]:
    entry = ([sys.executable, str(HERE / "shim.py"), str(spans)] if spans
             else [sys.executable, "-m", "frobsep"])
    return entry + ["--cache-dir", "cache", "--parallelism", str(PARALLELISM),
                    *inv.args]


# ---------------------------------------------------------------------------
# set-up


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_prefill(deadline: float) -> Path:
    """Full first buckets of the warm-analysis curves, built once per source tree."""
    prefill, stamp = WORK / "prefill", WORK / "prefill.sha256"
    digest = src_digest()
    if prefill.is_dir() and stamp.is_file() and stamp.read_text() == digest:
        return prefill
    build = WORK / "prefill.build"
    shutil.rmtree(build, ignore_errors=True)
    shutil.rmtree(prefill, ignore_errors=True)
    (build / "cache").mkdir(parents=True)
    t0 = time.perf_counter()
    for name in PREFILL_CURVES:
        shutil.copyfile(HERE / "curves" / name, build / name)
        inv = Invocation(("count", name, "--pmax", str(BUCKET_PMAX)))
        outcome = spawn(cli_command(inv, None), build, build / f"{name}.out",
                        deadline)
        if outcome.code != 0:
            raise RuntimeError(f"pre-fill count of {name} exited {outcome.code}")
    os.replace(build / "cache", prefill)
    shutil.rmtree(build)
    stamp.write_text(digest)
    print(f"# built warm-analysis cache buckets in "
          f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return prefill


def setup(workload: Workload, seed: int, dest: Path, prefill: Path | None,
          deadline: float) -> float:
    """Write the workload's inputs into ``dest``; returns the set-up wall time."""
    cmd = [sys.executable, str(HERE / "inputs.py"), workload.name, str(seed),
           str(dest)] + ([str(prefill)] if workload.prefill else [])
    log = dest.with_name(dest.name + ".setup")
    outcome = spawn(cmd, dest.parent, log, deadline)
    if outcome.code != 0:
        raise RuntimeError(f"set-up of {workload.name} exited {outcome.code}: "
                           + log.with_suffix(".err").read_text()[-2000:])
    return outcome.wall


# ---------------------------------------------------------------------------
# one pass over a workload's invocations


@dataclass
class Sequence:
    inputs: Path
    outcomes: list[Outcome]
    wall: float
    spans: list[Path] | None

    def stdout(self, i: int) -> bytes:
        return (self.inputs / f"out-{i}.txt").read_bytes()


def run_sequence(workload: Workload, inputs: Path, traced: bool,
                 deadline: float) -> Sequence:
    outcomes, spans = [], [] if traced else None
    t0 = time.perf_counter()
    for i, inv in enumerate(workload.invocations):
        span_file = inputs / f"spans-{i}.json" if traced else None
        outcomes.append(spawn(cli_command(inv, span_file), inputs,
                              inputs / f"out-{i}.txt", deadline))
        if traced:
            spans.append(span_file)
    return Sequence(inputs, outcomes, time.perf_counter() - t0, spans)


def sequence_metrics(workload: Workload, seq: Sequence) -> dict[str, float]:
    entries = sum(inv.entries for inv in workload.invocations)
    return {"wall_s": seq.wall,
            "cpu_s": sum(o.cpu for o in seq.outcomes),
            "primes_per_s": entries / seq.wall,
            "peak_rss_mb": max(o.rss_mb for o in seq.outcomes)}


# ---------------------------------------------------------------------------
# output checks (outside the timed region)


def _reference() -> dict[str, dict]:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def _oracles():
    if str(ROOT / "tests") not in sys.path:
        sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    return oracles


def oracle_model(path: Path) -> SimpleNamespace:
    doc = json.loads(path.read_text(encoding="utf-8"))
    model = doc["model"]
    if "a_invariants" in model:
        a1, a2, a3, a4, a6 = model["a_invariants"]
        f, h = (a6, a4, a2, 1), (a3, a1)
    else:
        f, h = tuple(model["f"]), tuple(model.get("h", ()))
    return SimpleNamespace(label=doc["label"], genus=int(doc["genus"]),
                           conductor=int(doc["conductor"]), f=f, h=h, traces={})


def oracle_trace(curve: SimpleNamespace, p: int) -> int:
    """a_p by tests/oracles (explicit Legendre symbols; enumeration at p = 2)."""
    if p not in curve.traces:
        oracles = _oracles()
        count = (oracles.enumerate_points(curve, p) if p == 2
                 else oracles.legendre_count(curve, p))
        curve.traces[p] = p + 1 - count
    return curve.traces[p]


def check_bucket(inputs: Path, seed: int) -> list[str]:
    """The written 11a1 bucket covers every prime, flags 11 bad, and agrees
    with the oracle on a seeded sample of good primes."""
    path = inputs / "cache" / "11a1.b0000.csv"
    if not path.is_file():
        return [f"{path.name} was not written"]
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    header, rows = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    primes = [int(r[col["p"]]) for r in rows]
    if primes != PRIMES[:prime_pi(BUCKET_PMAX)]:
        return ["bucket does not hold exactly the primes below 10^5"]
    bad = [int(r[col["p"]]) for r in rows if r[col["good"]] == "0"]
    if bad != [11]:
        return [f"bucket bad primes {bad}, expected [11]"]
    curve = oracle_model(inputs / "11a1.json")
    problems = []
    for r in random.Random(seed).sample([r for r in rows if r[col["good"]] == "1"],
                                        ORACLE_SAMPLE):
        p = int(r[col["p"]])
        if int(r[col["a_p"]]) != oracle_trace(curve, p):
            problems.append(f"bucket a_{p} = {r[col['a_p']]}, oracle says "
                            f"{oracle_trace(curve, p)}")
    return problems


def check_scan(inputs: Path, stdout: bytes, code: int) -> list[str]:
    """Every least prime re-derived: opposite oracle signs there, none below."""
    corpus = json.loads((inputs / "corpus.json").read_text())
    curves = {}
    for pair in corpus["pairs"]:
        for name in pair:
            curves.setdefault(name, oracle_model(inputs / name))
    lines = stdout.decode().splitlines()
    if lines[0] != "labelA,labelB,N,N2,least_prime,log_bound,ratio":
        return ["scan header changed"]
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != len(corpus["pairs"]) or not lines[-1].startswith("# max_ratio="):
        return ["scan output has the wrong shape"]
    problems, ratios = [], []
    for (name_a, name_b), row in zip(corpus["pairs"], rows):
        a, b = curves[name_a], curves[name_b]
        if row[:4] != [a.label, b.label, str(a.conductor), str(b.conductor)]:
            problems.append(f"row {row[:4]} does not match pair {name_a}, {name_b}")
            continue
        least = int(row[4]) if row[4] else None
        for p in PRIMES[:prime_pi(least or SCAN_PMAX)]:
            if a.conductor % p == 0 or b.conductor % p == 0:
                continue
            separates = oracle_trace(a, p) * oracle_trace(b, p) < 0
            if separates != (p == least):
                problems.append(f"{a.label},{b.label}: least prime {least} but "
                                f"p={p} {'separates' if separates else 'does not'}")
                break
        if least is not None:
            ratios.append(float(row[6]))
    if ratios and lines[-1] != f"# max_ratio={max(ratios):.12g}":
        problems.append(f"summary {lines[-1]!r} is not the max ratio")
    if code != (3 if len(ratios) < len(rows) else 0):
        problems.append(f"exit code {code} does not match the records")
    return problems


def check_invocation(inv: Invocation, seqs: list[Sequence], n: int, i: int,
                     reference: dict, seed: int) -> list[str]:
    """What is wrong with invocation ``i`` of sequence ``n``."""
    code, stdout = seqs[n].outcomes[i].code, seqs[n].stdout(i)
    if code not in inv.exit_codes:
        return [f"exit code {code}"]
    problems = []
    ref = reference.get(" ".join(inv.args))
    if ref is not None:
        if (code, stdout.decode()) != (ref["exit"], ref["stdout"]):
            problems.append("stdout differs from the reference")
    elif n > 0:
        if (code, stdout) != (seqs[0].outcomes[i].code, seqs[0].stdout(i)):
            problems.append("stdout differs from sequence 0")
    else:
        problems += check_scan(seqs[n].inputs, stdout, code)
    if n == 0 and inv.args[:2] == ("count", "11a1.json"):
        problems += check_bucket(seqs[n].inputs, seed)
    return problems


def check_run(workload: Workload, seqs: list[Sequence],
              seed: int) -> dict[str, list[str]]:
    """Failed invocations of every sequence, each with what is wrong with it."""
    reference = _reference().get(workload.name, {})
    failed = {}
    for n in range(len(seqs)):
        for i, inv in enumerate(workload.invocations):
            try:
                problems = check_invocation(inv, seqs, n, i, reference, seed)
            except (ValueError, IndexError, KeyError) as exc:
                # output the checks cannot parse fails the check, not the run
                problems = [f"malformed output: {exc!r}"]
            if problems:
                failed[f"sequence {n} `{' '.join(inv.args)}`"] = problems
    return failed


# ---------------------------------------------------------------------------
# per-layer metrics from the traced sequence


def _load_spans(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# span name -> (inclusive-time metric, call-count metric or None)
SPAN_METRICS = {
    "curves.spec": ("curves.spec_s", None),
    "store.import_csv": ("store.import_csv_s", None),
    "store.export_csv": ("store.export_csv_s", None),
    "store.sieve_primes": ("store.sieve_primes_s", "store.sieve_primes.calls"),
    "evaluators.construct": ("evaluators.construct_s", None),
    "kernels.weighted_sum": ("kernels.weighted_sum_s", "kernels.weighted_sum.calls"),
    "symplectic.psi_character": ("symplectic.psi_character_s", None),
    "symplectic.trivial_multiplicity": ("symplectic.trivial_multiplicity_s", None),
    "laurent.trivial_multiplicity_exact": ("laurent.trivial_multiplicity_exact_s",
                                           None),
    "separation.least_separating_prime": ("separation.least_separating_prime_s",
                                          "separation.least_separating_prime.calls"),
    "separation.separation_scan": ("separation.separation_scan_s", None),
}


def layer_metrics(workload: Workload, traced: Sequence,
                  untraced: Sequence) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics, and the functions the shim could not trace."""
    m = {metric["name"]: 0.0 for metric in catalogue()["per_layer"]}
    untraceable = set()
    needed: dict[tuple, int] = {}
    pool_cpu = pool_capacity = 0.0
    process = traced.wall - sum(o.reap - o.spawn for o in traced.outcomes)
    for inv, outcome, path in zip(workload.invocations, traced.outcomes,
                                  traced.spans):
        doc = _load_spans(path)
        spans = doc["spans"]
        untraceable.update(doc["unwrapped"])
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        top = 0.0
        for i, (name, start, end, parent, facts) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            if parent < 0:
                top += dur
            m[f"layer.{name.split('.')[0]}_s"] += own
            if name == "cli.main":
                m[f"cli.{inv.args[0]}_s"] += dur
                m["cli.self_s"] += own
            elif name == "store.compute_range":
                m["store.compute_range.calls"] += 1
                m["store.compute_range.self_s"] += own
                if facts:
                    label, genus, f, h = facts["curve"]
                    key = (label, tuple(f), tuple(h), facts["lpoly"])
                    needed[key] = max(needed.get(key, 0), facts["p_max"])
                    counted = prime_pi(facts["p_max"])
                    for b in facts["hit_buckets"]:
                        lo, hi = b * facts["bucket"], (b + 1) * facts["bucket"] - 1
                        counted -= prime_pi(min(hi, facts["p_max"])) - prime_pi(lo - 1)
                    m["store.recount_ratio"] += counted
                    m["store.cache.hits"] += len(facts["hit_buckets"])
                    m["store.cache.misses"] += facts["misses"]
                    m["store.cache.writes"] += facts["writes"]
                    if facts["child_cpu"] > 0:
                        pool_cpu += facts["child_cpu"]
                        pool_capacity += dur * (facts["workers"] or os.cpu_count())
            elif name in SPAN_METRICS:
                time_metric, count_metric = SPAN_METRICS[name]
                m[time_metric] += dur
                if count_metric:
                    m[count_metric] += 1
            if facts and name == "store.import_csv":
                m["store.csv_bytes_read"] += facts["bytes"]
            elif facts and name == "store.export_csv":
                m["store.csv_bytes_written"] += facts["bytes"]
            elif facts and name == "kernels.weighted_sum":
                m["kernels.terms"] += facts["terms"]
        process += (outcome.reap - outcome.spawn) - top
    m["layer.process_s"] += process
    distinct = sum(prime_pi(p_max) for p_max in needed.values())
    m["store.recount_ratio"] = m["store.recount_ratio"] / distinct if distinct else 0.0
    m["store.pool.efficiency"] = pool_cpu / pool_capacity if pool_capacity else 0.0
    m["trace.wall_s"] = traced.wall
    m["trace.untraced_wall_s"] = untraced.wall
    m["trace.overhead_s"] = traced.wall - untraced.wall
    return m, sorted(untraceable)


def microbenchmarks(deadline: float, scratch: Path) -> dict[str, float]:
    """Serial counting medians and the fresh-process import time of frobsep.cli."""
    out = scratch / "micro.json"
    outcome = spawn([sys.executable, str(HERE / "micro.py")], scratch, out, deadline)
    if outcome.code != 0:
        raise RuntimeError(f"micro.py exited {outcome.code}")
    result = json.loads(out.read_text())
    probe = ("import time; t = time.perf_counter(); import frobsep.cli; "
             "print(time.perf_counter() - t)")
    imports = []
    for _ in range(5):
        spawn([sys.executable, "-c", probe], scratch, out, deadline)
        imports.append(float(out.read_text()))
    result["cli.import_s"] = statistics.median(imports)
    return result


# ---------------------------------------------------------------------------
# provenance


def provenance(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model or platform.processor(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "sympy": version("sympy"),
            "parallelism": PARALLELISM, "seed": seed, "git_revision": revision,
            "src_sha256": src_digest()}


# ---------------------------------------------------------------------------
# a run


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 run_dir: Path) -> dict:
    # the one-off pre-fill may use the longer budget of a checkout's first run
    prefill = (ensure_prefill(time.perf_counter() + PREFILL_LIMIT_S)
               if workload.prefill else None)
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups, seqs = [], []

    def next_inputs() -> Path:
        dest = run_dir / f"inputs-{len(setups)}"
        setups.append(setup(workload, seed, dest, prefill, deadline))
        return dest

    if trace:
        untraced = run_sequence(workload, next_inputs(), False, deadline)
        traced = run_sequence(workload, next_inputs(), True, deadline)
        seqs = [untraced, traced]
    else:
        # the first sequence sets how many fit in --seconds, so a run
        # measures at most --seconds (or one sequence) on any host
        seqs.append(run_sequence(workload, next_inputs(), False, deadline))
        reps = max(1, int(seconds // seqs[0].wall))
        while len(seqs) < reps:
            inputs = next_inputs()
            if time.perf_counter() + seqs[-1].wall > deadline - 10:
                break
            seqs.append(run_sequence(workload, inputs, False, deadline))
    while len(setups) < SETUPS_PER_RUN:
        next_inputs()
    problems = check_run(workload, seqs, seed)
    timed = [sequence_metrics(workload, s) for s in (seqs[:1] if trace else seqs)]
    samples = {name: [t[name] for t in timed] for name in timed[0]}
    samples["setup_s"] = setups
    untraceable = []
    if trace:
        metrics, untraceable = layer_metrics(workload, traced, untraced)
        metrics.update(microbenchmarks(deadline, run_dir))
    else:
        metrics = {name: statistics.median(values) for name, values in samples.items()}
    return {"workload": workload.name, "trace": trace, "samples": samples,
            "untraceable": untraceable,
            "invocation_wall_s": [[o.wall for o in s.outcomes] for s in seqs],
            "metrics": metrics, "attempted": sum(len(s.outcomes) for s in seqs),
            "failed": len(problems), "problems": problems}


def report(result: dict) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    name = result["workload"]
    print(f"== {name}: {result['attempted']} invocations, {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']:.3g}")
    for where, found in result["problems"].items():
        print(f"   FAILED {where}: {'; '.join(found)}")
    for name in result["untraceable"]:
        print(f"   NOT TRACED {name}")
    for metric, value in result["metrics"].items():
        values = result["samples"].get(metric)
        extra = (f"median of n={len(values)}, min {min(values):.6g}, "
                 f"max {max(values):.6g}" if values else "")
        print(f"   {metric:<42} {value:>14.6g} {unit(metric):<6} {extra}")
    if result["trace"]:
        m = result["metrics"]
        layers = sum(v for k, v in m.items() if k.startswith("layer."))
        print(f"   layer self times sum to {layers:.4g} s = traced wall "
              f"{m['trace.wall_s']:.4g} s; untraced wall {m['trace.untraced_wall_s']:.4g} s,"
              f" tracing overhead {m['trace.overhead_s']:.4g} s "
              f"(layer.trace_s {m['layer.trace_s']:.4g} s of it)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "frobsep" / "__init__.py").is_file():
        print(f"error: no frobsep sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = []
    try:
        for name in names:
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            results.append(run_workload(WORKLOADS[name], args.seed, args.seconds,
                                        bool(args.trace), run_dir))
            report(results[-1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record = {"provenance": provenance(args.seed), "seconds": args.seconds,
              "results": results}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                         f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"# results: {out.relative_to(ROOT)}", file=sys.stderr)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}/" if args.workload == "all" else ""
        for metric, value in r["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit(metric)}
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
