"""Command-line entry point for reproducible experiment runs.

All numeric output is printed with 12 significant digits in fixed
locale-independent formatting; identical invocations against identical
cache state produce byte-identical stdout at any parallelism.

Exit codes: 0 success, 1 usage, 2 validation/data error, 3 domain outcome
(for instance no separating prime below the search bound).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

# numpy's OpenBLAS starts a thread per core at import; counting runs in forked
# processes, and one BLAS thread makes start-up cheaper. A set value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
from . import store
from .curves import CurveSpec, DEFAULT_FP2_CEILING, DEFAULT_FP_CEILING
from .errors import FrobsepError, parsing
from .evaluators import PsiPairEvaluator, TrivialEvaluator, VirtualCharEvaluator

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_DOMAIN = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract wants 1
    def parse_known_args(self, args=None, namespace=None):
        self.argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        # `--unknown VALUE command` makes VALUE the command: name the flag instead
        value = message.split("'")[1] if "command: invalid choice" in message else None
        i = self.argv.index(value) if value in self.argv else 0
        flag = self.argv[i - 1].split("=")[0] if i else ""
        if flag.startswith("--") and not any(
                option.startswith(flag) for option in self._option_string_actions):
            message = f"unrecognized arguments: {self.argv[i - 1]}"
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def integer(text: str) -> int:
    """argparse type: an int, or an integral decimal read exactly (1e23 is 10**23)."""
    try:
        return int(text)
    except ValueError:     # at most 4 exponent digits keep 10**exponent small
        if re.fullmatch(r"\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d{1,4})?\s*", text):
            from fractions import Fraction
            value = Fraction(text)
            if value.denominator == 1:
                return int(value)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frobsep", description=__doc__)
    parser.add_argument("--cache-dir", default=None,
                        help="trace-table cache directory (falls back to "
                             f"${store.CACHE_ENV_VAR})")
    parser.add_argument("--kernel-a", type=float, default=0.25)
    parser.add_argument("--count-ceiling", type=integer, default=DEFAULT_FP_CEILING)
    parser.add_argument("--fp2-ceiling", type=integer, default=DEFAULT_FP2_CEILING)
    parser.add_argument("--parallelism", type=int, default=0, metavar="N",
                        help="N processes count: this one and N-1 children; 0 = per CPU")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="build or extend a trace table")
    p_count.add_argument("curve", help="curve JSON file")
    p_count.add_argument("--pmax", type=integer, required=True)
    p_count.add_argument("--lpoly", action="store_true",
                         help="store genus-2 Euler factors")

    p_delta = sub.add_parser("delta", help="trivial multiplicity of psi or a character")
    p_delta.add_argument("--g", type=int, default=None)
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
    p_sep.add_argument("--pmax", type=integer, required=True)

    p_scan = sub.add_parser("scan", help="separation scan over a corpus")
    p_scan.add_argument("corpus", help='JSON file {"pairs": [[fileA, fileB], ...]}')
    p_scan.add_argument("--pmax", type=integer, required=True)

    p_kernel = sub.add_parser("kernel-check",
                              help="contour vs closed-form kernel table")
    p_kernel.add_argument("--y", required=True, help="comma-separated y values")
    p_kernel.add_argument("--T", type=float, default=1e5)
    return parser


def _counting(args) -> dict:
    """Keywords of `store.compute_range(s)` set by the global flags."""
    return dict(ceiling=args.count_ceiling, fp2_ceiling=args.fp2_ceiling,
                cache_dir=args.cache_dir, workers=args.parallelism)


def _tables(args):
    """`tables({curve: width})` of the windowed search: one counting call."""
    return lambda widths: store.compute_ranges(widths, **_counting(args))


def _cmd_count(args, out) -> int:
    curve = CurveSpec.from_path(args.curve)
    table = store.compute_range(curve, args.pmax, with_lpoly=args.lpoly, **_counting(args))
    good = int(table.good.sum())
    print(f"curve {curve.label} genus {curve.genus} conductor {curve.conductor}",
          file=out)
    print(f"primes <= {args.pmax}: {len(table.p)} ({good} good, "
          f"{len(table.p) - good} bad)", file=out)
    by_n, by_disc = store.bad_prime_sets(curve, table.p)
    if by_n != by_disc:
        print(f"bad-prime sets differ: conductor {by_n} vs discriminant {by_disc}",
              file=out)
    for p, is_good, a_p in zip(table.p[:5].tolist(), table.good[:5].tolist(),
                               table.a_p[:5].tolist()):
        print(f"  p={p} a_p={a_p if is_good else 'bad'}", file=out)
    return EXIT_OK


def _cmd_delta(args, out) -> int:
    from . import laurent, symplectic
    if args.character is not None:
        chi = symplectic.VirtualCharacter.from_path(args.character)
        name = f"chi[{os.path.basename(args.character)}]"
        ranks = dict(zip(("--g", "--g2"), chi.gs))
        for flag, given in (("--g", args.g), ("--g2", args.g2)):
            if given is not None and given != ranks.get(flag):
                raise ValueError(f"{flag} {given} does not match the character's "
                                 + ", ".join(f"{f[2:]}={r}" for f, r in ranks.items()))
    else:
        if args.g is None:
            raise ValueError("delta needs --g (or --character)")
        if args.g2 is None:
            raise ValueError("delta needs --g2 (or --character)")
        chi = symplectic.psi_character(args.g, args.g2)
        name = f"psi[g={args.g},g'={args.g2}]"
    quad = symplectic.trivial_multiplicity(chi)
    print(f"delta({name}) quadrature = {quad}", file=out)
    if max(chi.gs) <= laurent.MAX_EXACT_RANK:
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
    if not values or not all(2 <= x < math.inf for x in values):
        raise ValueError("every x must be finite and >= 2")
    return values


def _cmd_sum(args, out) -> int:
    from . import kernels
    ladder = _parse_x_ladder(args.x)
    p_max = int(max(ladder))
    curve_a = CurveSpec.from_path(args.curve_a)   # checked even where unused
    if args.chi == "trivial":                     # chi = 1 needs no curve data
        evaluator = TrivialEvaluator()
    elif args.chi == "psi":
        if args.curve_b is None:
            raise FrobsepError("psi sums need two curves")
        evaluator = PsiPairEvaluator(
            store.compute_range(curve_a, p_max, **_counting(args)),
            store.compute_range(CurveSpec.from_path(args.curve_b), p_max, **_counting(args)))
    else:
        from . import symplectic
        chi = symplectic.VirtualCharacter.from_path(args.chi)
        specs = [curve_a]
        if chi.is_product_group:
            if args.curve_b is None:
                raise FrobsepError("product-group characters need two curves")
            specs.append(CurveSpec.from_path(args.curve_b))
        for g, curve in zip(chi.gs, specs):       # before anything is counted
            if g != curve.genus:
                raise ValueError(
                    f"character rank {g} does not match genus of {curve.label}")
        evaluator = VirtualCharEvaluator(chi, *(
            store.compute_range(curve, p_max, with_lpoly=True, **_counting(args))
            for curve in specs))
    store.check_p_max(p_max, args.count_ceiling)     # the trivial sum sieves to p_max too
    print(kernels.KernelSumReport.CSV_HEADER, file=out)
    for x in ladder:
        report = kernels.weighted_sum(
            evaluator, kernels.KernelParams(x=x, a=args.kernel_a))
        print(report.csv_row(), file=out)
    return EXIT_OK


def _cmd_separate(args, out) -> int:
    from . import separation
    curve_a = CurveSpec.from_path(args.curve_a)
    curve_b = CurveSpec.from_path(args.curve_b)
    store.check_p_max(args.pmax, args.count_ceiling)
    record = separation.windowed_search(curve_a, curve_b, _tables(args), args.pmax)
    print(separation.CSV_HEADER, file=out)
    print(record.csv_row(), file=out)
    if record.least_prime is None:
        print(f"# no separating prime <= {args.pmax}", file=out)
        return EXIT_DOMAIN
    return EXIT_OK


def _cmd_scan(args, out) -> int:
    from . import separation
    with open(args.corpus, "r", encoding="utf-8") as fh, parsing(args.corpus):
        names = [(str(a), str(b)) for a, b in json.load(fh)["pairs"]]
    base = os.path.dirname(os.path.abspath(args.corpus))
    files = dict.fromkeys(name for pair in names for name in pair)   # first appearance
    specs = {name: CurveSpec.from_path(os.path.join(base, name)) for name in files}
    store.check_p_max(args.pmax, args.count_ceiling)
    records = separation.separation_scan([(specs[a], specs[b]) for a, b in names],
                                         _tables(args), args.pmax)
    out.write(separation.scan_csv(records))
    unseparated = any(r.least_prime is None and not r.note.startswith("skipped")
                      for r in records)
    return EXIT_DOMAIN if unseparated else EXIT_OK


def _cmd_kernel_check(args, out) -> int:
    from . import kernels
    ys = [float(v) for v in args.y.split(",") if v]
    if not ys:
        raise ValueError("empty --y list")
    if not all(map(math.isfinite, [*ys, args.T])):
        raise ValueError("every y and T must be finite")
    rows = [(y, kernels.bach_kernel(y, args.kernel_a),     # every check before output
             kernels.bach_kernel_contour(y, args.kernel_a, args.T)) for y in ys]
    print("y,closed,contour,abs_err", file=out)
    for y, closed, contour in rows:
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
        if not 0.0 < args.kernel_a <= 0.25:
            parser.error(f"kernel a={args.kernel_a} outside (0, 1/4]")
        if args.parallelism < 0:
            parser.error(f"parallelism must be >= 0, got {args.parallelism}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    args.cache_dir = args.cache_dir or os.environ.get(store.CACHE_ENV_VAR) or None
    try:
        return _COMMANDS[args.command](args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FrobsepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
