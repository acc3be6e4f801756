import math

import numpy as np
import pytest

import oracles
from frobsep import (KernelParams, bach_kernel, bach_kernel_contour,
                     chebyshev_sum, prime_power_tail, weighted_sum)
from frobsep.errors import DomainError, IncompleteTable
from frobsep.evaluators import (PsiPairEvaluator, TautologicalEvaluator,
                                TrivialEvaluator, VirtualCharEvaluator)
from frobsep.kernels import li
from frobsep import symplectic as sy


def a_p_at(table, p):
    return int(table.a_p[table.rows(np.array([p]))[0]])


class TestBachKernel:
    def test_zero_at_one(self):
        assert bach_kernel(1.0, 0.25) == 0.0

    def test_zero_below_one(self):
        assert bach_kernel(0.5, 0.25) == 0.0

    def test_closed_form_point(self):
        # y = e^4: y^(-1/4) log y = 4/e
        assert bach_kernel(math.exp(4), 0.25) == pytest.approx(4 / math.e, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bach_kernel(0.0, 0.25)
        with pytest.raises(DomainError):
            bach_kernel(2.0, 1.5)
        for y in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                bach_kernel(y, 0.25)

    def test_continuity_at_one(self):
        assert bach_kernel(1.0 + 1e-9, 0.25) == pytest.approx(0.0, abs=1e-8)

    def test_maximum_location_and_value(self):
        a = 0.25
        peak = math.exp(1 / a)
        assert bach_kernel(peak, a) == pytest.approx(1 / (a * math.e), rel=1e-12)
        for y in (peak * 0.9, peak * 1.1):
            assert bach_kernel(y, a) < bach_kernel(peak, a)


class TestContour:
    def test_matches_closed_form(self):
        for y in (2.0, 0.5):
            closed = bach_kernel(y, 0.25)
            assert bach_kernel_contour(y, 0.25, 1e5) == pytest.approx(closed, abs=1e-3)

    def test_truncation_error_halves_when_T_doubles(self):
        # y = 1 is the slow-decay case: the tail integral is positive and ~1/T
        errors = [abs(bach_kernel_contour(1.0, 0.25, T)) for T in (1e3, 2e3, 4e3)]
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(o >= 0.9 for o in orders)

    @pytest.mark.parametrize("a", [0.25, 0.1])
    @pytest.mark.parametrize("T", [1e3, 1e4, 1e5, 1e6, 1e7])
    def test_matches_mpmath(self, T, a):
        for y in (0.01, 0.1, 0.5, 0.9, 0.999, 1.0, 1.001, 1.5, 2.0, math.e, 10.0,
                  100.0, 1000.0):
            err = abs(bach_kernel_contour(y, a, T) - oracles.contour_integral(y, a, T))
            assert err <= 1e-16 * max(1.0, y * y), (y, float(err))

    def test_low_truncation_rejected(self):
        # 1e12 is too high, not too low: the accuracy tests stop at 10^7
        for T in (100.0, 1e12):
            with pytest.raises(DomainError):
                bach_kernel_contour(2.0, 0.25, T)

    @pytest.mark.parametrize("y, T", [(2.0, math.nan), (2.0, math.inf),
                                      (math.nan, 1e5), (math.inf, 1e5)])
    def test_non_finite_rejected(self, y, T):
        with pytest.raises(DomainError, match="finite"):
            bach_kernel_contour(y, 0.25, T)


class TestWeightedSum:
    def test_trivial_main_term(self):
        report = weighted_sum(TrivialEvaluator(), KernelParams(x=1000.0))
        assert report.main_term == pytest.approx(0.64 * 1000.0)
        assert report.residual == report.sum_value - report.main_term
        assert report.primes_used == 168
        assert report.bad_primes_skipped == 0

    def test_trivial_residual_bounded_on_ladder(self):
        bound = 2.0   # regression constant, first recorded run
        for x in (1e3, 5e3, 2e4):
            report = weighted_sum(TrivialEvaluator(), KernelParams(x=x))
            assert abs(report.residual_over_sqrtx) < bound

    def test_delta_zero_character(self, t11):
        report = weighted_sum(TautologicalEvaluator(t11), KernelParams(x=1000.0))
        assert report.main_term == 0.0

    def test_bad_primes_skipped(self, t11, t37):
        report = weighted_sum(PsiPairEvaluator(t11, t37), KernelParams(x=100.0))
        assert report.bad_primes_skipped == 2    # 11 and 37

    def test_x_below_two_rejected(self):
        with pytest.raises(DomainError):
            KernelParams(x=1.0)

    def test_incomplete_table(self, t11, t37):
        with pytest.raises(IncompleteTable):
            weighted_sum(PsiPairEvaluator(t11, t37), KernelParams(x=1e6))

    def test_additive_in_character(self, t11):
        ev_v = VirtualCharEvaluator(sy.tautological_char(1), t11)
        ev_s = VirtualCharEvaluator(sy.sym2_char(1), t11)
        ev_sum = VirtualCharEvaluator(
            sy.VirtualCharacter((1,), {((1,),): 1, ((2,),): 1}), t11)
        x = 2000.0
        r1 = weighted_sum(ev_v, KernelParams(x=x))
        r2 = weighted_sum(ev_s, KernelParams(x=x))
        r12 = weighted_sum(ev_sum, KernelParams(x=x))
        assert r12.sum_value == pytest.approx(r1.sum_value + r2.sum_value, abs=1e-9)
        assert r12.main_term == r1.main_term + r2.main_term

    def test_general_a_main_term(self):
        report = weighted_sum(TrivialEvaluator(), KernelParams(x=1000.0, a=0.2))
        assert report.main_term == pytest.approx(1000.0 / 1.2 ** 2)

    def test_reports_are_deterministic(self, t11, t37):
        a = weighted_sum(PsiPairEvaluator(t11, t37), KernelParams(x=2500.0))
        b = weighted_sum(PsiPairEvaluator(t11, t37), KernelParams(x=2500.0))
        assert a == b


class TestPrimePowerTail:
    def test_empty_range(self, t11):
        tail, ratio = prime_power_tail(TautologicalEvaluator(t11), 3.0)
        assert tail == 0.0 and ratio == 0.0

    def test_matches_double_sum_oracle(self, t11):
        ev = TautologicalEvaluator(t11)
        x = 2000.0
        tail, _ = prime_power_tail(ev, x)
        want = oracles.tail_double_sum("V", [t11], x, 0.25)
        assert tail == pytest.approx(want, abs=1e-9)

    def test_ratio_bounded_over_sweep(self, t11):
        bound = 0.05   # regression constant, first recorded run
        ev = TautologicalEvaluator(t11)
        for x in (1e3, 2e3, 3e3):
            _, ratio = prime_power_tail(ev, x)
            assert abs(ratio) < bound


class TestChebyshev:
    def test_trivial_counts_primes(self, t11):
        total, main = chebyshev_sum(TrivialEvaluator(), 1000.0)
        assert total == 168.0
        assert main == pytest.approx(li(1000.0))

    def test_li_at_two_is_zero(self):
        assert li(2.0) == 0.0
        for x in (1.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                li(x)

    def test_li_matches_mpmath(self):
        for x in [2.0 + 1e-9, 2.5, *np.geomspace(2.0, 1e12, 60).tolist()]:
            want = oracles.li_from_two(x)
            assert abs(li(x) - want) <= 1e-14 * max(1.0, want), x

    def test_li_value(self):
        # Li(1000) with the lower limit at 2
        assert li(1000.0) == pytest.approx(176.5644942, abs=1e-6)

    def test_tautological_sum_small(self, t11):
        total, main = chebyshev_sum(TautologicalEvaluator(t11), 2000.0)
        assert main == 0.0
        x = 2000.0
        assert abs(total) / (math.sqrt(x) * math.log(x)) < 1.0

    def test_incomplete(self, t11):
        with pytest.raises(IncompleteTable):
            chebyshev_sum(TautologicalEvaluator(t11), 1e6)


class TestEvaluators:
    def test_genus2_power_needs_lpoly(self, g2b):
        from frobsep import compute_range
        from frobsep.errors import MissingEigendata

        plain = TautologicalEvaluator(compute_range(g2b, 30))
        with pytest.raises(MissingEigendata):
            plain.values(np.array([3]), r=2)
        rich = TautologicalEvaluator(compute_range(g2b, 30, with_lpoly=True))
        values = rich.values(np.array([3]), r=2)
        assert values.shape == (1,) and values.dtype == np.float64

    def test_psi_value_formula(self, t11, t37):
        ev = PsiPairEvaluator(t11, t37)
        p = 5
        t = a_p_at(t11, p) / math.sqrt(p)
        t2 = a_p_at(t37, p) / math.sqrt(p)
        assert ev.values(np.array([p]))[0] == pytest.approx(t * t2 * (t - 2) * (t2 + 2))
        assert ev.delta == 1

    def test_virtual_char_evaluator_matches_tautological(self, t11):
        ev_v = VirtualCharEvaluator(sy.tautological_char(1), t11)
        ev_t = TautologicalEvaluator(t11)
        primes = np.array([2, 3, 5, 7, 13])
        assert ev_v.values(primes) == pytest.approx(ev_t.values(primes), abs=1e-12)
        assert ev_v.values(primes, r=3) == pytest.approx(ev_t.values(primes, r=3),
                                                         abs=1e-9)

    def test_rank_mismatch_rejected(self, t11):
        with pytest.raises(ValueError):
            VirtualCharEvaluator(sy.tautological_char(2), t11)

    @pytest.mark.parametrize("curve", ["11a1", "g2b"])
    def test_frobenius_powers_match_angle_oracle(self, curve, t11, g2b):
        """V and Sym^2 V at Frob^r, r = 1..17, through the power map on
        Euler-factor coefficients, against the oracle's eigenvalue angles
        folded by hand; genus 2 reads its stored quartics."""
        from frobsep import compute_range

        table = t11 if curve == "11a1" else compute_range(g2b, 97, with_lpoly=True)
        g = table.genus
        primes = table.p[table.good]
        taut = TautologicalEvaluator(table)
        sym2 = VirtualCharEvaluator(sy.sym2_char(g), table)

        def sym2_by_power_sums(angles):
            # Sym^2 V is irreducible for USp(2g): h_2 = (p_1^2 + p_2) / 2
            p1 = sum(2.0 * math.cos(t) for t in angles)
            p2 = sum(2.0 * math.cos(2.0 * t) for t in angles)
            return (p1 * p1 + p2) / 2.0

        for r in range(1, 18):
            for evaluator, kind in ((taut, "V"), (sym2, sym2_by_power_sums)):
                want = [oracles.character_term(kind, [table], p, r)
                        for p in primes.tolist()]
                assert evaluator.values(primes, r) == pytest.approx(want, abs=1e-9)


class TestCoverage:
    """A prime the table lacks raises `IncompleteTable` naming the curve; it
    is never read as a bad prime.  t11 covers the primes up to 3000."""

    @pytest.mark.parametrize("make", [
        lambda t11, t37: TautologicalEvaluator(t11),
        lambda t11, t37: PsiPairEvaluator(t11, t37),
        lambda t11, t37: VirtualCharEvaluator(sy.tautological_char(1), t11),
    ], ids=["tautological", "psi", "virtual"])
    def test_good_raises_at_absent_prime(self, make, t11, t37):
        with pytest.raises(IncompleteTable, match="^11a1: table lacks prime 3001$"):
            make(t11, t37).good(np.array([2, 11, 3001]))

    @pytest.mark.parametrize("run", [
        lambda ev: weighted_sum(ev, KernelParams(x=1e4)),
        lambda ev: prime_power_tail(ev, 1e7),
        lambda ev: chebyshev_sum(ev, 1e4),
    ], ids=["weighted_sum", "prime_power_tail", "chebyshev_sum"])
    def test_sums_name_the_curve(self, run, t11):
        with pytest.raises(IncompleteTable, match="^11a1: table lacks prime 3001$"):
            run(TautologicalEvaluator(t11))


def sym2_by_hand(angles):
    # sp_(2) on USp(2) is U_2(cos theta) = 4 cos^2 theta - 1
    return 4.0 * math.cos(angles[0]) ** 2 - 1.0


class TestSecondRoute:
    """The array sums against plain per-prime float loops in `oracles`."""

    @pytest.fixture
    def cases(self, t11, t37):
        return {
            "psi": (PsiPairEvaluator(t11, t37), "psi", [t11, t37]),
            "trivial": (TrivialEvaluator(), "trivial", []),
            "sym2": (VirtualCharEvaluator(sy.sym2_char(1), t11), sym2_by_hand, [t11]),
        }

    @pytest.mark.parametrize("name", ["psi", "trivial", "sym2"])
    def test_sums_match_per_prime_loop(self, cases, name):
        evaluator, kind, tables = cases[name]
        for x in (100.0, 1000.0, 3000.0):
            # plain summation of ~430 terms of size <= 10^3 drifts by well
            # under 430 * 2^-52 * 10^3 ~ 1e-10 from the correctly rounded sum
            got = weighted_sum(evaluator, KernelParams(x=x)).sum_value
            assert got == pytest.approx(
                oracles.plain_weighted_sum(kind, tables, x, 0.25), abs=1e-9)
            total, _ = chebyshev_sum(evaluator, x)
            assert total == pytest.approx(
                oracles.plain_chebyshev_sum(kind, tables, x), abs=1e-9)

    @pytest.mark.parametrize("x, run, oracle", [
        # x = 2999 is prime: its own term has weight log(x / x) = 0
        (2999.0, lambda ev, x: weighted_sum(ev, KernelParams(x=x)).sum_value,
         oracles.plain_weighted_sum),
        # x = 49 = 7^2: the r = 2 terms, 7^2 itself at weight 0
        (49.0, lambda ev, x: prime_power_tail(ev, x)[0], oracles.tail_double_sum),
    ], ids=["prime-cutoff", "prime-square-cutoff"])
    def test_cutoff_on_a_prime_power(self, t11, x, run, oracle):
        assert run(TautologicalEvaluator(t11), x) == pytest.approx(
            oracle("V", [t11], x, 0.25), abs=1e-9)

    def test_genus2_tail_matches_per_prime_loop(self, g2b):
        # r >= 2 terms of a genus-2 curve come from its stored quartics
        from frobsep import compute_range

        table = compute_range(g2b, 100, with_lpoly=True)
        tail, _ = prime_power_tail(TautologicalEvaluator(table), 5000.0)
        assert tail == pytest.approx(
            oracles.tail_double_sum("V", [table], 5000.0, 0.25), abs=1e-9)

    def test_sum_is_independent_of_prime_order(self, t11, t37):
        # fsum is correctly rounded, so summing the terms in reverse order
        # reproduces the reported value bit for bit
        import frobsep.kernels as kernels_mod

        ev = PsiPairEvaluator(t11, t37)
        x = 3000.0
        primes = kernels_mod.sieve_primes(int(x))
        primes = primes[ev.good(primes)]
        terms = kernels_mod._terms(ev, primes, 1, x, 0.25)
        assert weighted_sum(ev, KernelParams(x=x)).sum_value == math.fsum(
            terms[::-1].tolist())
