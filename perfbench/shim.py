"""Traced CLI entry point for the benchmark's per-layer run.

    PYTHONPATH=src python perfbench/shim.py SPANS_FILE CLI_ARGS...

Behaves like ``python -m frobsep CLI_ARGS...`` but first wraps the public
functions of each layer and records a span around every call: name, start,
end and parent span.  Spans stay in memory and are written to SPANS_FILE as
JSON when ``frobsep.cli.main`` returns.  Each function is wrapped once, in
the module namespace its caller looks it up in: ``cli`` imports the
evaluator classes by name, so they are wrapped there; ``separation`` and
``kernels`` import ``sieve_primes`` by name, so each of those bindings is
wrapped as well as the one inside ``store``.  Point counting inside pool
workers is not wrapped: it shows up as ``store.compute_range`` self time,
and the serial microbenchmarks time it directly.

Bookkeeping that a wrapper does outside the wrapped call (cache-directory
listings, file sizes, child CPU time) is recorded as ``trace.bookkeeping``
spans, so it counts as tracing cost, not as any layer's.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time


class Tracer:
    """In-memory span recorder; each span is [name, start, end, parent, facts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.unwrapped: list[str] = []
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _guard(self, name: str, step):
        # bookkeeping must never change what the program does: a signature
        # or argument it does not expect costs the facts, not the call
        try:
            return step()
        except Exception as exc:
            self.unwrapped.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``before(bound)`` runs ahead of the call and its value reaches
        ``after(state, bound, result)``, whose value becomes the span's facts.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.unwrapped.append(name)
            return
        signature = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = state = None
            if signature is not None:
                book = self.open("trace.bookkeeping")
                bound = self._guard(name, lambda: signature.bind(*args, **kwargs))
                if bound is not None:
                    bound.apply_defaults()
                    if before is not None:
                        state = self._guard(name, lambda: before(bound))
                self.close(book)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None and bound is not None:
                book = self.open("trace.bookkeeping")
                span[4] = self._guard(name, lambda: after(state, bound, result))
                self.close(book)
            return result

        setattr(owner, attr, staticmethod(traced) if isinstance(owner, type)
                else traced)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _bucket_files(cache_dir, label: str) -> dict[str, tuple[int, int]]:
    if cache_dir is None or not os.path.isdir(cache_dir):
        return {}
    out = {}
    with os.scandir(cache_dir) as it:
        for entry in it:
            if entry.name.startswith(label + ".b") and entry.name.endswith(".csv"):
                st = entry.stat()
                out[entry.name] = (st.st_size, st.st_mtime_ns)
    return out


def _install(tracer: Tracer) -> None:
    from frobsep import (cli, curves, kernels, laurent, separation, store,
                         symplectic)

    bucket = getattr(store, "CACHE_BUCKET", 100_000)

    def range_before(bound):
        args = bound.arguments
        return (_bucket_files(args.get("cache_dir"), args["curve"].label),
                _children_cpu())

    def range_after(state, bound, result):
        files_before, cpu_before = state
        args = bound.arguments
        curve, p_max = args["curve"], int(args["p_max"])
        files_after = _bucket_files(args.get("cache_dir"), curve.label)
        hit = sorted(n for n, st in files_before.items() if files_after.get(n) == st)
        writes = sum(1 for n, st in files_after.items() if files_before.get(n) != st)
        full = (p_max + 1) // bucket if args.get("cache_dir") is not None else 0
        return {"curve": [curve.label, curve.genus, list(curve.f), list(curve.h)],
                "p_max": p_max,
                "lpoly": bool(args.get("with_lpoly")) and curve.genus == 2,
                "hit_buckets": [int(n[len(curve.label) + 2:-4]) for n in hit],
                "bucket": bucket,
                "misses": max(0, full - len(hit)),
                "writes": writes,
                "workers": int(args.get("workers") or 0),
                "child_cpu": _children_cpu() - cpu_before}

    def size_before(bound):
        return os.path.getsize(bound.arguments["path"])

    def import_after(size, bound, result):
        return {"bytes": size}

    def export_after(state, bound, result):
        return {"bytes": os.path.getsize(bound.arguments["path"])}

    def sum_after(state, bound, report):
        return {"terms": report.primes_used + report.bad_primes_skipped}

    tracer.wrap(curves.CurveSpec, "from_path", "curves.spec")
    tracer.wrap(store, "compute_range", "store.compute_range",
                before=range_before, after=range_after)
    for module in (store, separation, kernels):
        tracer.wrap(module, "sieve_primes", "store.sieve_primes")
    tracer.wrap(store, "import_csv", "store.import_csv",
                before=size_before, after=import_after)
    tracer.wrap(store, "export_csv", "store.export_csv", after=export_after)
    tracer.wrap(store, "bad_prime_sets", "store.bad_prime_sets")
    for cls in ("PsiPairEvaluator", "TrivialEvaluator", "VirtualCharEvaluator"):
        tracer.wrap(cli, cls, "evaluators.construct")
    tracer.wrap(kernels, "weighted_sum", "kernels.weighted_sum", after=sum_after)
    tracer.wrap(symplectic.VirtualCharacter, "from_path", "symplectic.character_load")
    for fn in ("psi_character", "trivial_multiplicity", "trivial_multiplicity_exact"):
        tracer.wrap(symplectic, fn, f"symplectic.{fn}")
    tracer.wrap(laurent, "trivial_multiplicity_exact",
                "laurent.trivial_multiplicity_exact")
    tracer.wrap(separation, "least_separating_prime",
                "separation.least_separating_prime")
    tracer.wrap(separation, "separation_scan", "separation.separation_scan")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    span = tracer.open("cli.import")
    from frobsep import cli
    tracer.close(span)
    book = tracer.open("trace.bookkeeping")
    _install(tracer)
    tracer.close(book)
    span = tracer.open("cli.main")
    try:
        code = cli.main(cli_args)
        sys.stdout.flush()
    finally:
        tracer.close(span)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "unwrapped": tracer.unwrapped}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
