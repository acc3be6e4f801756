"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Regression constants
were recorded on the first full run and guard against drift; they are not
derived from any asymptotic theory.
"""

import io
import math
import time

import numpy as np
import pytest

import oracles
from frobsep import (CurveSpec, KernelParams, bach_kernel, bach_kernel_contour,
                     chebyshev_sum, compute_range, count_points, euler_factor,
                     prime_power_tail, psi_character, weighted_sum)
from frobsep.curves import unitarized_roots
from frobsep import symplectic as sy
from frobsep.cli import main as cli_main
from frobsep.evaluators import (PsiPairEvaluator, TautologicalEvaluator,
                                TrivialEvaluator)
from frobsep.laurent import partitions_upto

# frozen on the first recorded run (11a1/37a1 reference pair)
RESIDUAL_OVER_SQRTX_BOUND = 8.0
TAIL_RATIO_BOUND = 0.005
CHEBYSHEV_TRIVIAL_BOUND = 0.05
CHEBYSHEV_TAUT_BOUND = 0.05

LADDER = (1e3, 1e4, 1e5)


@pytest.fixture(scope="module")
def reference_pair():
    c11 = CurveSpec.elliptic("11a1", (0, -1, 1, -10, -20), 11)
    c37 = CurveSpec.elliptic("37a1", (0, 0, 1, -1, 0), 37)
    start = time.monotonic()
    t11 = compute_range(c11, int(LADDER[-1]), workers=0)
    t37 = compute_range(c37, int(LADDER[-1]), workers=0)
    elapsed = time.monotonic() - start
    return t11, t37, elapsed


def test_criterion_01_kernel_identity():
    start = time.monotonic()
    worst = 0.0
    for y in (0.5, 1.5, math.e, 10.0):
        closed = bach_kernel(y, 0.25)
        contour = bach_kernel_contour(y, 0.25, 1e5)
        worst = max(worst, abs(contour - closed))
        assert abs(contour - closed) <= 1e-3
    # convergence order at the slow-decay point y = 1 (closed form is 0)
    errors = [abs(bach_kernel_contour(1.0, 0.25, T)) for T in (1e3, 2e3, 4e3)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(o >= 0.9 for o in orders)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS kernel identity: worst |contour-closed| = "
          f"{worst:.3e}, orders {orders[0]:.3f}/{orders[1]:.3f}, {elapsed:.1f}s")


def test_criterion_02_orthonormality():
    start = time.monotonic()
    worst = 0.0
    for g in (1, 2):
        weights = partitions_upto(3, g)
        for p1 in weights:
            for p2 in weights:
                chi1 = sy.VirtualCharacter((g,), {(p1,): 1})
                chi2 = sy.VirtualCharacter((g,), {(p2,): 1})
                raw = sy.inner_product_raw(chi1, chi2)
                dev = abs(raw - (1.0 if p1 == p2 else 0.0))
                worst = max(worst, dev)
                assert dev <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS orthonormality |lambda| <= 3, g <= 2: "
          f"max deviation {worst:.3e}, {elapsed:.1f}s")


def test_criterion_03_delta_psi():
    start = time.monotonic()
    for g, g2 in ((1, 1), (1, 2), (2, 2)):
        psi = psi_character(g, g2)
        quad = sy.trivial_multiplicity(psi)
        exact = sy.trivial_multiplicity_exact(psi)
        raw = sy.psi_delta_exact(g, g2)
        assert quad == exact == raw == 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS delta(psi) = 1 on (1,1),(1,2),(2,2), "
          f"quadrature == exact, {elapsed:.1f}s")


def test_criterion_04_frobenius_schur():
    assert sy.fs_indicator(sy.DominantWeight(1, (1,))) == -1
    assert sy.fs_indicator(sy.DominantWeight(2, (1,))) == -1
    assert sy.fs_indicator(sy.DominantWeight(1, ())) == 1
    print("\nACCEPTANCE 4 PASS Frobenius-Schur: V -> -1 on Sp(2), Sp(4); "
          "trivial -> +1")


def test_criterion_05_trace_oracles():
    start = time.monotonic()
    genus1 = CurveSpec.elliptic("11a1", (0, -1, 1, -10, -20), 11)
    genus2 = CurveSpec.hyperelliptic("g2b", [0, 0, 0, 0, 1, 1], [1, 1, 0, 1], 52)
    checked = 0
    for curve in (genus1, genus2):
        for p in oracles.primes_upto(1000):
            if curve.bad_primes([p])[1][0] or (curve.genus == 2 and p == 2):
                continue
            assert count_points(curve, p) == oracles.enumerate_points(curve, p)
            checked += 1
    factors = 0
    for p in oracles.primes_upto(200):
        if genus2.bad_primes([p])[1][0] or p == 2:
            continue
        coeffs = euler_factor(genus2, p, fp2_ceiling=50_000)
        for i in range(3):
            assert coeffs[4 - i] == p ** (2 - i) * coeffs[i]
        roots = unitarized_roots(coeffs, p)
        assert np.all(np.abs(np.abs(roots) - 1.0) <= 1e-9)
        # the unitarized roots must reproduce the integer factor:
        # np.poly gives [1, -e1, e2, ...], the ascending Euler coefficients
        rebuilt = np.poly(roots * math.sqrt(p)).real
        assert np.allclose(rebuilt, coeffs, rtol=1e-9, atol=1e-9)
        factors += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 PASS trace oracles: {checked} prime counts vs "
          f"enumeration, {factors} quartic factors unit-modulus, {elapsed:.1f}s")


def test_criterion_06_main_term_convergence(reference_pair):
    t11, t37, counting_time = reference_pair
    start = time.monotonic()
    evaluator = PsiPairEvaluator(t11, t37)
    assert evaluator.delta == 1
    deviations = []
    for x in LADDER:
        report = weighted_sum(evaluator, KernelParams(x=x))
        deviations.append(abs(report.sum_value / x - 16.0 / 25.0))
        assert abs(report.residual_over_sqrtx) <= RESIDUAL_OVER_SQRTX_BOUND
    assert deviations[0] > deviations[1] > deviations[2]
    elapsed = counting_time + (time.monotonic() - start)
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 6 PASS main term: |S/x - 16/25| = "
          f"{', '.join(f'{d:.4f}' for d in deviations)} decreasing; "
          f"residual/sqrt(x) within {RESIDUAL_OVER_SQRTX_BOUND}, "
          f"{elapsed:.0f}s incl. counting")


def test_criterion_07_sign_criterion_property():
    rng = np.random.default_rng(2024)
    total = 0
    for g, g2 in ((1, 1), (1, 2), (2, 2)):
        t = rng.uniform(-2.0 * g, 2.0 * g, size=100_000)
        t2 = rng.uniform(-2.0 * g2, 2.0 * g2, size=100_000)
        psi = t * t2 * (t - 2 * g) * (t2 + 2 * g2)
        assert np.array_equal(psi > 0, t * t2 < 0)
        total += t.size
    print(f"\nACCEPTANCE 7 PASS sign criterion: psi > 0 <=> t*t' < 0 on "
          f"{total} random interior points, zero failures")


def test_criterion_08_adams_pointwise():
    rng = np.random.default_rng(4096)
    worst = 0.0
    for g in (1, 2):
        for chi in (sy.tautological_char(g), sy.tensor_square_char(g),
                    sy.sym2_char(g)):
            doubled = sy.adams2(chi)
            for _ in range(100):
                pt = sy.TorusPoint(tuple(rng.uniform(0, math.pi, size=g)))
                dev = abs(doubled.value(pt) - chi.value(pt.power(2)))
                worst = max(worst, dev)
                assert dev <= 1e-9
    print(f"\nACCEPTANCE 8 PASS Adams pointwise identity: max deviation "
          f"{worst:.2e} over 600 samples")


def test_criterion_09_prime_power_tail(reference_pair):
    t11, _, _ = reference_pair
    evaluator = TautologicalEvaluator(t11)
    ratios = []
    for x in LADDER:
        tail, ratio = prime_power_tail(evaluator, x)
        ratios.append(ratio)
        assert abs(ratio) <= TAIL_RATIO_BOUND
    tail_1e4, _ = prime_power_tail(evaluator, 1e4)
    oracle = oracles.tail_double_sum("V", [t11], 1e4, 0.25)
    assert abs(tail_1e4 - oracle) <= 1e-9
    print(f"\nACCEPTANCE 9 PASS prime-power tail: ratios "
          f"{', '.join(f'{r:.5f}' for r in ratios)} within {TAIL_RATIO_BOUND}; "
          f"double-sum oracle matched at x = 1e4")


def test_criterion_10_chebyshev_comparison(reference_pair):
    t11, _, _ = reference_pair
    trivial_devs, taut_devs = [], []
    for x in LADDER:
        total, main = chebyshev_sum(TrivialEvaluator(), x)
        dev = abs(total - main) / (math.sqrt(x) * math.log(x))
        trivial_devs.append(dev)
        assert dev <= CHEBYSHEV_TRIVIAL_BOUND
        total, main = chebyshev_sum(TautologicalEvaluator(t11), x)
        assert main == 0.0
        dev = abs(total) / (math.sqrt(x) * math.log(x))
        taut_devs.append(dev)
        assert dev <= CHEBYSHEV_TAUT_BOUND
    print(f"\nACCEPTANCE 10 PASS Chebyshev comparison: trivial devs "
          f"{', '.join(f'{d:.4f}' for d in trivial_devs)}; tautological "
          f"{', '.join(f'{d:.4f}' for d in taut_devs)}")


def test_criterion_11_determinism(tmp_path, c11, c37):
    import json

    files = {}
    for curve in (c11, c37):
        path = tmp_path / f"{curve.label}.json"
        path.write_text(json.dumps(curve.to_json()), encoding="utf-8")
        files[curve.label] = str(path)
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(
        {"pairs": [[files["11a1"], files["37a1"]]]}), encoding="utf-8")

    sum_outputs, scan_outputs = [], []
    for par in ("1", "4", "0"):
        cache = tmp_path / f"cache{par}"
        out = io.StringIO()
        code = cli_main(["--cache-dir", str(cache), "--parallelism", par,
                         "sum", files["11a1"], files["37a1"], "--x", "600,1500"],
                        out=out)
        assert code == 0
        sum_outputs.append(out.getvalue())
        out = io.StringIO()
        code = cli_main(["--cache-dir", str(cache), "--parallelism", par,
                         "scan", str(corpus), "--pmax", "1500"], out=out)
        assert code == 0
        scan_outputs.append(out.getvalue())
    assert sum_outputs[0] == sum_outputs[1] == sum_outputs[2]
    assert scan_outputs[0] == scan_outputs[1] == scan_outputs[2]
    # repeated invocation against the now-warm cache stays byte-identical
    out = io.StringIO()
    cli_main(["--cache-dir", str(tmp_path / "cache1"), "--parallelism", "1",
              "sum", files["11a1"], files["37a1"], "--x", "600,1500"], out=out)
    assert out.getvalue() == sum_outputs[0]
    print("\nACCEPTANCE 11 PASS determinism: sum and scan byte-identical at "
          "parallelism 1, 4, auto and across reruns")
