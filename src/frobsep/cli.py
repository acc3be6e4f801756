"""Command-line entry point for reproducible experiment runs.

All numeric output is printed with 12 significant digits in fixed
locale-independent formatting; identical invocations against identical
cache state produce byte-identical stdout at any parallelism.

Exit codes: 0 success, 1 usage, 2 validation/data error, 3 domain outcome
(for instance no separating prime below the search bound).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

from . import kernels, separation, store, symplectic
from .curves import CurveSpec, DEFAULT_FP2_CEILING, DEFAULT_FP_CEILING
from .errors import FrobsepError
from .evaluators import (PsiPairEvaluator, TautologicalEvaluator,
                         TrivialEvaluator, VirtualCharEvaluator)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_DOMAIN = 3


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by every subcommand."""

    cache_dir: str | None
    quadrature_order: int = symplectic.DEFAULT_QUADRATURE_ORDER
    kernel_a: float = kernels.DEFAULT_KERNEL_A
    count_ceiling: int = DEFAULT_FP_CEILING
    fp2_ceiling: int = DEFAULT_FP2_CEILING
    parallelism: int = 0

    def __post_init__(self):
        if not 0.0 < self.kernel_a <= 0.25:
            raise ValueError(f"kernel a={self.kernel_a} outside (0, 1/4]")
        if self.quadrature_order < symplectic.MIN_QUADRATURE_ORDER:
            raise ValueError(f"quadrature order must be >= "
                             f"{symplectic.MIN_QUADRATURE_ORDER}")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frobsep", description=__doc__)
    parser.add_argument("--cache-dir", default=None,
                        help="trace-table cache directory (falls back to "
                             f"${store.CACHE_ENV_VAR})")
    parser.add_argument("--quadrature-order", type=int, default=64)
    parser.add_argument("--kernel-a", type=float, default=0.25)
    parser.add_argument("--count-ceiling", type=int, default=DEFAULT_FP_CEILING)
    parser.add_argument("--fp2-ceiling", type=int, default=DEFAULT_FP2_CEILING)
    parser.add_argument("--parallelism", type=int, default=0,
                        help="worker processes for counting; 0 = auto")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="build or extend a trace table")
    p_count.add_argument("curve", help="curve JSON file")
    p_count.add_argument("--pmax", type=int, required=True)
    p_count.add_argument("--lpoly", action="store_true",
                         help="store genus-2 Euler factors")

    p_delta = sub.add_parser("delta", help="trivial multiplicity of psi or a character")
    p_delta.add_argument("--g", type=int, required=True)
    p_delta.add_argument("--g2", type=int, default=None)
    p_delta.add_argument("--character", default=None,
                         help="virtual-character JSON file (overrides psi)")

    p_sum = sub.add_parser("sum", help="kernel-weighted sum reports")
    p_sum.add_argument("curve_a", help="curve JSON file")
    p_sum.add_argument("curve_b", nargs="?", default=None)
    p_sum.add_argument("--x", required=True,
                       help="cutoff or comma-separated ladder, e.g. 1e3,1e4")
    p_sum.add_argument("--chi", default="psi",
                       help="psi, trivial, or a virtual-character JSON file")

    p_sep = sub.add_parser("separate", help="least sign-separating prime of a pair")
    p_sep.add_argument("curve_a")
    p_sep.add_argument("curve_b")
    p_sep.add_argument("--pmax", type=int, required=True)

    p_scan = sub.add_parser("scan", help="separation scan over a corpus")
    p_scan.add_argument("corpus", help='JSON file {"pairs": [[fileA, fileB], ...]}')
    p_scan.add_argument("--pmax", type=int, required=True)

    p_kernel = sub.add_parser("kernel-check",
                              help="contour vs closed-form kernel table")
    p_kernel.add_argument("--y", required=True, help="comma-separated y values")
    p_kernel.add_argument("--T", type=float, default=1e5)
    return parser


def _config_from(args) -> RunConfig:
    cache = args.cache_dir or os.environ.get(store.CACHE_ENV_VAR) or None
    return RunConfig(cache_dir=cache,
                     quadrature_order=args.quadrature_order,
                     kernel_a=args.kernel_a,
                     count_ceiling=args.count_ceiling,
                     fp2_ceiling=args.fp2_ceiling,
                     parallelism=args.parallelism)


def _table(curve: CurveSpec, p_max: int, config: RunConfig,
           with_lpoly: bool = False) -> store.TraceTable:
    return store.compute_range(
        curve, p_max, with_lpoly=with_lpoly, ceiling=config.count_ceiling,
        fp2_ceiling=config.fp2_ceiling, cache_dir=config.cache_dir,
        workers=config.parallelism)


def _cmd_count(args, config: RunConfig, out) -> int:
    curve = CurveSpec.from_path(args.curve)
    table = _table(curve, args.pmax, config, with_lpoly=args.lpoly)
    good = sum(1 for e in table.entries if e.good)
    bad = len(table.entries) - good
    print(f"curve {curve.label} genus {curve.genus} conductor {curve.conductor}",
          file=out)
    print(f"primes <= {args.pmax}: {len(table.entries)} ({good} good, {bad} bad)",
          file=out)
    by_n, by_disc = store.bad_prime_sets(curve, args.pmax)
    if by_n != by_disc:
        print(f"bad-prime sets differ: conductor {by_n} vs discriminant {by_disc}",
              file=out)
    for e in table.entries[:5]:
        trace = e.a_p if e.good else "bad"
        print(f"  p={e.p} a_p={trace}", file=out)
    return EXIT_OK


def _cmd_delta(args, config: RunConfig, out) -> int:
    if args.character is not None:
        chi = symplectic.VirtualCharacter.from_path(args.character)
        name = f"chi[{os.path.basename(args.character)}]"
    else:
        if args.g2 is None:
            raise FrobsepError("delta needs --g2 (or --character)")
        chi = symplectic.psi_character(args.g, args.g2)
        name = f"psi[g={args.g},g'={args.g2}]"
    quad = symplectic.trivial_multiplicity(chi, order=config.quadrature_order)
    print(f"delta({name}) quadrature = {quad}", file=out)
    if max(chi.gs) <= 4:
        exact = symplectic.trivial_multiplicity_exact(chi)
        print(f"delta({name}) exact = {exact}", file=out)
        if exact != quad:
            raise FrobsepError(
                f"exact/quadrature delta disagree: {exact} vs {quad}")
    return EXIT_OK


def _parse_x_ladder(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v]
    except ValueError:
        raise ValueError(f"bad --x list {text!r}") from None
    if not values or any(x < 2 for x in values):
        raise ValueError("every x must be >= 2")
    return values


def _cmd_sum(args, config: RunConfig, out) -> int:
    ladder = _parse_x_ladder(args.x)
    p_max = int(max(ladder))
    curve_a = CurveSpec.from_path(args.curve_a)
    needs_lpoly = args.chi not in ("psi", "trivial")
    table_a = _table(curve_a, p_max, config,
                     with_lpoly=needs_lpoly and curve_a.genus == 2)
    if args.chi == "trivial":
        evaluator = TrivialEvaluator()
    elif args.chi == "psi":
        if args.curve_b is None:
            raise FrobsepError("psi sums need two curves")
        curve_b = CurveSpec.from_path(args.curve_b)
        table_b = _table(curve_b, p_max, config)
        evaluator = PsiPairEvaluator(table_a, table_b)
    else:
        chi = symplectic.VirtualCharacter.from_path(args.chi)
        if chi.is_product_group:
            if args.curve_b is None:
                raise FrobsepError("product-group characters need two curves")
            curve_b = CurveSpec.from_path(args.curve_b)
            table_b = _table(curve_b, p_max, config,
                             with_lpoly=curve_b.genus == 2)
            evaluator = VirtualCharEvaluator(chi, table_a, table_b)
        else:
            evaluator = VirtualCharEvaluator(chi, table_a)
    print(kernels.KernelSumReport.CSV_HEADER, file=out)
    for x in ladder:
        report = kernels.weighted_sum(
            evaluator, kernels.KernelParams(x=x, a=config.kernel_a))
        print(report.csv_row(), file=out)
    return EXIT_OK


def _cmd_separate(args, config: RunConfig, out) -> int:
    table_a = _table(CurveSpec.from_path(args.curve_a), args.pmax, config)
    table_b = _table(CurveSpec.from_path(args.curve_b), args.pmax, config)
    record = separation.least_separating_prime(table_a, table_b, args.pmax)
    print(separation.CSV_HEADER, file=out)
    print(record.csv_row(), file=out)
    if record.least_prime is None:
        print(f"# no separating prime <= {args.pmax}", file=out)
        return EXIT_DOMAIN
    return EXIT_OK


def _cmd_scan(args, config: RunConfig, out) -> int:
    import json

    with open(args.corpus, "r", encoding="utf-8") as fh:
        corpus = json.load(fh)
    base = os.path.dirname(os.path.abspath(args.corpus))
    tables: dict[CurveSpec, store.TraceTable] = {}   # each distinct curve counted once

    def table_of(name):
        curve = CurveSpec.from_path(os.path.join(base, name))
        if curve not in tables:
            tables[curve] = _table(curve, args.pmax, config)
        return tables[curve]

    pairs = [(table_of(file_a), table_of(file_b))
             for file_a, file_b in corpus["pairs"]]
    records = separation.separation_scan(pairs, args.pmax)
    out.write(separation.scan_csv(records))
    searched = [r for r in records if not r.note.startswith("skipped")]
    if any(r.least_prime is None for r in searched):
        return EXIT_DOMAIN
    return EXIT_OK


def _cmd_kernel_check(args, config: RunConfig, out) -> int:
    ys = [float(v) for v in args.y.split(",") if v]
    if not ys:
        raise ValueError("empty --y list")
    print("y,closed,contour,abs_err", file=out)
    for y in ys:
        closed = kernels.bach_kernel(y, config.kernel_a)
        contour = kernels.bach_kernel_contour(y, config.kernel_a, args.T)
        print(f"{_fmt(y)},{_fmt(closed)},{_fmt(contour)},{_fmt(abs(contour - closed))}",
              file=out)
    return EXIT_OK


_COMMANDS = {
    "count": _cmd_count,
    "delta": _cmd_delta,
    "sum": _cmd_sum,
    "separate": _cmd_separate,
    "scan": _cmd_scan,
    "kernel-check": _cmd_kernel_check,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        config = _config_from(args)
    except ValueError:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args, config, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FrobsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
