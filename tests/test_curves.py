import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from frobsep import (CurveSpec, count_points, count_points_Fp2, euler_factor,
                     frobenius_trace, unitarized_eigenangles)
from frobsep import curves
from frobsep.curves import eigenangles_from_trace
from frobsep.errors import (BadReduction, CeilingExceeded, NonUnitaryRoots,
                            UnsupportedModel, ValidationError)


class TestCountPoints:
    def test_x3_plus_x_at_3(self, c32):
        assert count_points(c32, 3) == 4
        assert count_points(c32, 3) == oracles.enumerate_points(c32, 3)

    def test_bad_reduction_raises(self, c32):
        with pytest.raises(BadReduction):
            count_points(c32, 2)   # disc -64

    def test_ceiling(self, c32):
        with pytest.raises(CeilingExceeded):
            count_points(c32, 101, ceiling=100)

    def test_genus2_matches_enumeration(self, g2a):
        assert count_points(g2a, 7) == oracles.enumerate_points(g2a, 7)

    def test_char2_long_weierstrass(self, c11, c37):
        for curve in (c11, c37):
            assert count_points(curve, 2) == oracles.enumerate_points(curve, 2)

    def test_production_equals_both_oracles_below_100(self, c11, g2b):
        for curve in (c11, g2b):
            for p in oracles.primes_upto(100):
                if not curve.good_reduction(p):
                    continue
                n = count_points(curve, p)
                assert n == oracles.enumerate_points(curve, p)
                if p > 2:
                    assert n == oracles.legendre_count(curve, p)


class TestGroupOrderRoute:
    """Baby-step giant-step counts against the sweep, which stays the reference."""

    MID_PRIMES = [p for p in oracles.primes_upto(20_000) if p > curves.MESTRE_BOUND]

    @staticmethod
    def _both_routes(curve, p):
        big = [c % p for c in curves._square_completed(curve.f, curve.h)]
        return curves._count_points_bsgs(big, p), curves._count_points_sweep(curve, p, big)

    def test_equals_sweep_to_1e4(self, c11, c37, c32):
        c15 = CurveSpec.elliptic("15a1", (1, 1, 1, -10, -10), 15)  # Z/4 x Z/2 torsion
        for curve in (c11, c37, c32, c15):
            for p in (q for q in self.MID_PRIMES if q <= 10_000):
                if not curve.good_reduction(p):
                    continue
                via_bsgs, via_sweep = self._both_routes(curve, p)
                assert via_bsgs == via_sweep, (curve.label, p)
                if curve is c32 and p % 4 == 3:
                    assert via_bsgs == p + 1           # CM: supersingular
                if curve is c15:
                    assert via_bsgs % 8 == 0           # Z/4 x Z/2 injects into E(F_p)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=5, max_size=5),
           st.sampled_from(MID_PRIMES))
    def test_random_models_match_legendre_oracle(self, a_invariants, p):
        try:
            curve = CurveSpec.elliptic("rand", a_invariants, 1)
        except ValidationError:
            assume(False)
        assume(curve.good_reduction(p))
        assert count_points(curve, p) == oracles.legendre_count(curve, p)

    def test_route_choice_and_fallback(self, c11, monkeypatch):
        swept = []
        sweep = curves._count_points_sweep
        monkeypatch.setattr(curves, "_count_points_sweep",
                            lambda curve, p, big: swept.append(p) or sweep(curve, p, big))
        for p in (curves.MESTRE_BOUND, 233):
            assert count_points(c11, p) == oracles.legendre_count(c11, p)
        assert swept == [curves.MESTRE_BOUND]
        monkeypatch.setattr(curves, "_BSGS_POINT_BUDGET", 0)
        assert count_points(c11, 1009) == oracles.legendre_count(c11, 1009)
        assert swept == [curves.MESTRE_BOUND, 1009]


class TestFrobeniusTrace:
    def test_a3_of_x3_plus_x(self, c32):
        assert frobenius_trace(c32, 3).a_p == 0

    def test_weil_bound_holds(self, c11, g2b):
        for curve in (c11, g2b):
            for p in oracles.primes_upto(200):
                if curve.good_reduction(p):
                    tr = frobenius_trace(curve, p)
                    assert tr.a_p ** 2 <= 4 * curve.genus ** 2 * p

    def test_dual_oracles_agree_at_5(self):
        curve = CurveSpec.elliptic("32b", (0, 0, 0, -1, 0), 32)  # y^2 = x^3 - x
        n_enum = oracles.enumerate_points(curve, 5)
        n_leg = oracles.legendre_count(curve, 5)
        assert n_enum == n_leg
        assert frobenius_trace(curve, 5).a_p == 5 + 1 - n_enum == -2

    def test_normalized_trace(self, c11):
        tr = frobenius_trace(c11, 3)
        assert tr.a_p_normalized == pytest.approx(tr.a_p / math.sqrt(3))


class TestFp2:
    def test_genus1_unsupported(self, c11):
        with pytest.raises(UnsupportedModel):
            count_points_Fp2(c11, 3)

    def test_matches_field_enumeration(self, g2a, g2b):
        for curve, p in [(g2a, 3), (g2a, 7), (g2b, 3), (g2b, 5)]:
            assert count_points_Fp2(curve, p) == oracles.enumerate_points_fp2(curve, p)

    def test_ceiling(self, g2a):
        with pytest.raises(CeilingExceeded):
            count_points_Fp2(g2a, 7, ceiling=10)


class TestEulerFactor:
    def test_genus1_shape(self, c32):
        assert euler_factor(c32, 3) == (1, 0, 3)

    def test_genus2_functional_equation(self, g2a, g2b):
        for curve in (g2a, g2b):
            for p in oracles.primes_upto(50):
                if not curve.good_reduction(p) or p == 2:
                    continue
                c = euler_factor(curve, p)
                assert c[0] == 1
                for i in range(3):
                    assert c[4 - i] == p ** (2 - i) * c[i]

    def test_x5_plus_1_at_7_has_sqrt7_roots(self, g2a):
        coeffs = euler_factor(g2a, 7)
        roots = np.roots(coeffs[::-1])
        assert np.allclose(np.abs(1.0 / roots), math.sqrt(7), atol=1e-9)

    def test_power_sum_identity(self, g2a, g2b):
        for curve in (g2a, g2b):
            for p in oracles.primes_upto(50):
                if not curve.good_reduction(p) or p == 2:
                    continue
                coeffs = euler_factor(curve, p)
                alphas = 1.0 / np.roots(coeffs[::-1])
                a1 = -coeffs[1]
                s2 = p * p + 1 - count_points_Fp2(curve, p)
                assert abs(alphas.sum().real - a1) <= 1e-6 * max(1, abs(a1))
                assert abs((alphas ** 2).sum().real - s2) <= 1e-6 * max(1, abs(s2))


class TestEigenangles:
    def test_supersingular_gives_right_angle(self):
        assert unitarized_eigenangles((1, 0, 3), 3) == pytest.approx((math.pi / 2,))

    def test_boundary_double_root(self):
        # unit-norm double root at 1: clamped cosine lands on theta = 0
        assert unitarized_eigenangles((1, -2, 1), 1) == pytest.approx((0.0, ))

    def test_trace_recovered(self, g2a):
        for p in (3, 7, 11, 13):
            if not g2a.good_reduction(p):
                continue
            coeffs = euler_factor(g2a, p)
            thetas = unitarized_eigenangles(coeffs, p)
            want = -coeffs[1] / math.sqrt(p)
            got = sum(2 * math.cos(t) for t in thetas)
            assert got == pytest.approx(want, abs=1e-9)

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryRoots):
            unitarized_eigenangles((1, 100, 7), 7)
        with pytest.raises(NonUnitaryRoots):
            unitarized_eigenangles((1, 0, 0, 0, 7), 7)   # functional eq. broken
        with pytest.raises(NonUnitaryRoots):
            unitarized_eigenangles((1, 0, 3), 7)          # constant term != p

    def test_resolvent_matches_numeric_roots(self):
        from frobsep.curves import _polished_roots

        # (1,-36,586,-4716,17161) at p=131 has a near-double root; the
        # resolvent route stays exact where generic rootfinding loses half
        # its digits
        cases = [((1, -36, 586, -4716, 17161), 131),
                 ((1, 2, 1, 6, 9), 3),
                 ((1, -15, 112, -1695, 12769), 113)]
        for coeffs, p in cases:
            thetas = unitarized_eigenangles(coeffs, p)
            numeric = np.sort(np.arccos(np.clip(
                (1.0 / (_polished_roots(coeffs) * math.sqrt(p))).real, -1, 1)))[::2]
            assert np.allclose(thetas, numeric, atol=1e-6)

    def test_genus1_shortcut_matches(self, c11):
        for p in (3, 5, 7, 13):
            a = frobenius_trace(c11, p).a_p
            via_poly = unitarized_eigenangles((1, -a, p), p)
            assert eigenangles_from_trace(a, p) == pytest.approx(via_poly, abs=1e-9)


class TestCurveSpec:
    def test_known_discriminant(self, c11):
        assert c11.discriminant == -161051   # -11^5

    def test_singular_model_rejected(self):
        with pytest.raises(ValidationError):
            CurveSpec.elliptic("sing", (0, 0, 0, 0, 0), 1)   # y^2 = x^3
        with pytest.raises(ValidationError):
            CurveSpec.hyperelliptic("sing2", [0, 0, 0, 0, 0, 0, 1], [], 1)  # y^2 = x^6

    def test_genus_consistency(self):
        with pytest.raises(ValidationError):
            CurveSpec(label="short", genus=1, f=(1, 0, 0), h=(), conductor=1)
        with pytest.raises(ValidationError):
            CurveSpec.hyperelliptic("quartic", [1, 0, 0, 0, 1], [], 1)

    def test_json_round_trip(self, c11, g2b, tmp_path):
        import json

        for curve in (c11, g2b):
            doc = curve.to_json()
            assert CurveSpec.from_json(doc) == curve
            path = tmp_path / f"{curve.label}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert CurveSpec.from_path(path) == curve

    def test_bad_prime_flagging(self, g2b):
        # disc -2^12 * 13^2, conductor 52 = 2^2 * 13
        assert g2b.is_bad(2) and g2b.is_bad(13)
        assert not g2b.is_bad(3)

    def test_genus2_always_bad_at_2(self, g2a, g2b):
        for curve in (g2a, g2b):
            assert curve.discriminant % 2 == 0
