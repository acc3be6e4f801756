import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobsep import (KernelParams, least_separating_prime, psi_value,
                     separation_scan, sign_criterion_equivalence, weighted_sum)
from frobsep.errors import BoundaryCase, IncompleteTable, WeilViolation
from frobsep.evaluators import PsiPairEvaluator
from frobsep.separation import CSV_HEADER, scan_csv
from frobsep.store import TraceTable


def synthetic_table(label, conductor, traces):
    return TraceTable(curve_label=label, conductor=conductor, genus=1,
                      p=[p for p, _ in traces], a_p=[a or 0 for _, a in traces],
                      good=[a is not None for _, a in traces])


class TestPsiValue:
    def test_examples(self):
        assert psi_value(1, -1, 1, 1) == 1
        assert psi_value(1, 1, 1, 1) == -3
        assert psi_value(0, 1.5, 1, 1) == 0

    def test_weil_violation(self):
        with pytest.raises(WeilViolation):
            psi_value(2.5, 0.0, 1, 1)

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]), st.data())
    def test_positive_iff_opposite_signs(self, gs, data):
        """Strictly inside the Weil box (t - 2g) < 0 < (t2 + 2g2), so psi > 0
        exactly when t * t2 < 0.  That sign is read off t and t2, since the
        float product t * t2 can itself underflow to -0.0."""
        g, g2 = gs
        inside = lambda bound: st.floats(-bound, bound, exclude_min=True,
                                         exclude_max=True).filter(bool)
        t, t2 = data.draw(inside(2 * g)), data.draw(inside(2 * g2))
        assert (psi_value(t, t2, g, g2) > 0) == ((t < 0) != (t2 < 0))


class TestSignCriterion:
    def test_random_interior_points_agree(self):
        rng = np.random.default_rng(3)
        for g, g2 in [(1, 1), (1, 2), (2, 2)]:
            t = rng.uniform(-2 * g, 2 * g, size=2000)
            t2 = rng.uniform(-2 * g2, 2 * g2, size=2000)
            for a, b in zip(t, t2):
                lhs, rhs = sign_criterion_equivalence(a, b, g, g2)
                assert lhs == rhs

    def test_boundary_reported(self):
        with pytest.raises(BoundaryCase):
            sign_criterion_equivalence(2.0, 0.5, 1, 1)

    def test_zero_trace_gives_false_false(self):
        assert sign_criterion_equivalence(0.0, 1.0, 1, 1) == (False, False)

    @pytest.mark.parametrize("t,t2", [(1.9999999999999998, -5e-324), (1e-200, -1e-200)])
    def test_underflowing_product_still_agrees(self, t, t2):
        """t * t2 or the whole psi product rounds to 0 here, so the signs
        come from the factors, and psi_value returns the smallest subnormal
        with the exact product's sign."""
        assert sign_criterion_equivalence(t, t2, 1, 1) == (True, True)
        assert t * t2 * (t - 2) * (t2 + 2) == 0.0
        assert psi_value(t, t2, 1, 1) == math.ulp(0.0)
        assert psi_value(t, -t2, 1, 1) == -math.ulp(0.0)


class TestLeastSeparatingPrime:
    def test_first_prime_qualifies(self):
        ta = synthetic_table("A", 5, [(2, 1), (3, 1)])
        tb = synthetic_table("B", 7, [(2, -1), (3, 1)])
        record = least_separating_prime(ta, tb, 3)
        assert record.least_prime == 2
        assert record.ratio == pytest.approx(2 / math.log(2 * 5 * 7) ** 2)

    def test_self_pair_never_separates(self, t11):
        clone = TraceTable(curve_label="11a1clone", conductor=t11.conductor,
                           genus=1, p=t11.p, a_p=t11.a_p, good=t11.good)
        record = least_separating_prime(t11, clone, 2000)
        assert record.least_prime is None
        assert record.ratio is None

    def test_zero_traces_do_not_qualify(self):
        ta = synthetic_table("A", 5, [(2, 0), (3, -2)])
        tb = synthetic_table("B", 7, [(2, 1), (3, 1)])
        assert least_separating_prime(ta, tb, 3).least_prime == 3

    def test_matches_linear_scan_oracle(self, t11, t37):
        record = least_separating_prime(t11, t37, 3000)
        brute = None
        for p, good_a, good_b, a, b in zip(t11.p.tolist(), t11.good, t37.good,
                                           t11.a_p.tolist(), t37.a_p.tolist()):
            if good_a and good_b and a * b < 0:
                brute = p
                break
        assert record.least_prime == brute == 5

    def test_invariant_under_extension(self, t11, t37):
        small = least_separating_prime(t11, t37, 100)
        large = least_separating_prime(t11, t37, 3000)
        assert small.least_prime == large.least_prime

    def test_incomplete_table(self, t11, t37):
        with pytest.raises(IncompleteTable):
            least_separating_prime(t11, t37, 10 ** 6)


class TestScan:
    def test_empty_corpus(self):
        assert separation_scan([], 100) == []
        assert scan_csv([]).splitlines()[0] == CSV_HEADER

    def test_identical_labels_skipped(self, t11):
        records = separation_scan([(t11, t11)], 100)
        assert records[0].note.startswith("skipped")
        assert records[0].least_prime is None

    def test_error_collected_and_scan_continues(self, t11, t37):
        short = TraceTable(curve_label="short", conductor=3, genus=1,
                           p=t37.p[:2], a_p=t37.a_p[:2], good=t37.good[:2])
        records = separation_scan([(t11, short), (t11, t37)], 2000)
        assert records[0].note.startswith("error: short: table lacks prime")
        assert records[1].least_prime == 5

    def test_programming_error_propagates(self, t11, t37, monkeypatch):
        from frobsep import separation

        def broken(*args):
            raise TypeError("bug inside a pair")

        monkeypatch.setattr(separation, "least_separating_prime", broken)
        with pytest.raises(TypeError, match="bug inside a pair"):
            separation_scan([(t11, t37)], 100)

    def test_csv_summary_row(self, t11, t37):
        records = separation_scan([(t11, t37)], 2000)
        text = scan_csv(records)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[-1].startswith("# max_ratio=")


class TestStoredPairInvariant:
    def test_three_way_sign_equivalence(self, t11, t37):
        # normalization preserves sign, so psi > 0, abar*abar' < 0 and
        # a_p*a_p' < 0 agree at every good prime with strict Weil inequality
        for p, good_a, good_b, a, b in zip(t11.p.tolist(), t11.good, t37.good,
                                           t11.a_p.tolist(), t37.a_p.tolist()):
            if not (good_a and good_b):
                continue
            t, t2 = a / math.sqrt(p), b / math.sqrt(p)
            if abs(t) >= 2 or abs(t2) >= 2:
                continue
            positive = psi_value(t, t2, 1, 1) > 0
            assert positive == (t * t2 < 0) == (a * b < 0)


class TestEndToEnd:
    def test_positive_weighted_sum_implies_separating_prime(self, t11, t37):
        # the psi summand is positive only at separating primes, so a
        # positive sum at cutoff x forces one at or below x
        x = 2000.0
        report = weighted_sum(PsiPairEvaluator(t11, t37), KernelParams(x=x))
        assert report.sum_value > 0
        record = least_separating_prime(t11, t37, int(x))
        assert record.least_prime is not None and record.least_prime <= x
