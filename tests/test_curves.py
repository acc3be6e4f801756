import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from frobsep import (CurveSpec, count_points, count_points_Fp2, euler_factor,
                     unitarized_eigenangles)
from frobsep import curves
from frobsep.errors import (BadReduction, CeilingExceeded, NonUnitaryRoots,
                            UnsupportedModel, ValidationError)


def smooth_primes(curve, primes) -> list[int]:
    """The primes of `primes` that do not divide the model discriminant."""
    primes = np.asarray(primes, dtype=np.int64)
    return primes[~curve.bad_primes(primes)[1]].tolist()


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
        with pytest.raises(CeilingExceeded):
            count_points(c32, 2 ** 89 - 1)                # beyond int64

    def test_genus2_matches_enumeration(self, g2a):
        assert count_points(g2a, 7) == oracles.enumerate_points(g2a, 7)

    def test_char2_long_weierstrass(self, c11, c37):
        for curve in (c11, c37):
            assert count_points(curve, 2) == oracles.enumerate_points(curve, 2)

    def test_production_equals_both_oracles_below_100(self, c11, g2b):
        for curve in (c11, g2b):
            for p in smooth_primes(curve, oracles.primes_upto(100)):
                n = count_points(curve, p)
                assert n == oracles.enumerate_points(curve, p)
                if p > 2:
                    assert n == oracles.legendre_count(curve, p)


class TestGroupOrderRoute:
    """The lockstep group-order search against the sweep, which stays the
    reference, and against the scalar search and brute-force orders."""

    MID_PRIMES = np.array([p for p in oracles.primes_upto(20_000)
                           if p > curves.MESTRE_BOUND])

    C15 = CurveSpec.elliptic("15a1", (1, 1, 1, -10, -10), 15)   # Z/4 x Z/2 torsion
    # seed-7 scan-corpus curves with conductor = radical(disc); at each of
    # these primes the search meets a point of order <= m
    SMALL_ORDER = (CurveSpec("s7-g1-6", 1, (4, -3, 1, 1), (0, 1), 9779),
                   CurveSpec("s7-g1-7", 1, (8, 5, -1, 1), (), 826))
    SMALL_ORDER_PRIMES = (("s7-g1-6", 743), ("s7-g1-6", 3001),
                          ("s7-g1-7", 11821), ("s7-g1-7", 16987))

    @staticmethod
    def _searched(curve, primes):
        """Good primes among `primes` and the search's counts, one call."""
        primes = primes[~curve.bad_primes(primes)[1]]
        big = curves._square_completed(curve.f, curve.h)
        return primes, curves._count_points_bsgs([big] * len(primes), primes)

    @staticmethod
    def _swept(curve, primes):
        big = curves._square_completed(curve.f, curve.h)
        return [curves._count_points_sweep([[c % p for c in big]], p)[0]
                for p in primes.tolist()]

    def test_equals_sweep_to_1e4(self, c11, c37, c32):
        c15 = self.C15
        for curve in (c11, c37, c32, c15):
            primes, counts = self._searched(curve, self.MID_PRIMES[self.MID_PRIMES <= 10_000])
            assert counts.tolist() == self._swept(curve, primes), curve.label
            if curve is c32:
                assert (counts[primes % 4 == 3] == primes[primes % 4 == 3] + 1).all()
            if curve is c15:
                assert (counts % 8 == 0).all()         # Z/4 x Z/2 injects into E(F_p)

    def test_equals_sweep_to_2e4_never_undecided(self, c11, c37, c32):
        """The rest of (229, 2e4]: above 1e4 for the curves above, all of it
        for the small-order models.  No prime is left to the sweep."""
        for curve in (c11, c37, c32, self.C15, *self.SMALL_ORDER):
            low = 0 if curve in self.SMALL_ORDER else 10_000
            primes, counts = self._searched(curve, self.MID_PRIMES[self.MID_PRIMES > low])
            assert counts.all(), (curve.label, primes[counts == 0])
            assert counts.tolist() == self._swept(curve, primes), curve.label

    def test_orders_match_repeated_addition(self, c11, c37, c32, monkeypatch):
        """Each lane the search runs to 2e4 against the brute-force orders:
        every one whose point has order n <= 2m, also with the interval
        shifted by 1 .. n - 1 so the windows meet the multiples of n at every
        offset, and every 211th of the rest.  The search gives up on a lane
        only at a baby step at O or with y = 0 (n <= m or n = 2m) or at a
        sum that comes out (0:0:0); every other lane's multiples are exact."""
        calls = []
        search = curves._multiples
        monkeypatch.setattr(curves, "_multiples", lambda *args:
                            calls.append(args) or search(*args))
        labels = []
        for curve in (c11, c37, c32, self.C15, *self.SMALL_ORDER):
            self._searched(curve, self.MID_PRIMES)
            labels += [curve.label] * (len(calls) - len(labels))
        lanes = [(label, int(p[i]), int(a[i]), (int(x[i]), int(y[i])), int(lo[i]), int(hi[i]))
                 for label, (p, a, (x, y), lo, hi) in zip(labels, calls)
                 for i in range(len(p))]
        seen = {"n <= m": set(), "m < n < 2m": set(), "n = 2m": set()}
        cases = []
        for i, (label, p, a, point, lo, hi) in enumerate(lanes):
            m = math.isqrt((hi - lo) // 2) + 1
            n = oracles.point_order(point, a, p, 2 * m)
            if n is not None:
                seen["n <= m" if n <= m else "n = 2m" if n == 2 * m
                     else "m < n < 2m"].add((label, p))
            elif i % 211:
                continue
            cases += [(n, m, label, p, a, point, lo + s, hi + s) for s in range(n or 1)]
        _, _, _, p, a, point, lo, hi = zip(*cases)
        as_int = lambda col: np.array(col, dtype=np.int64)
        lane, k, gave_up = search(as_int(p), as_int(a), tuple(map(as_int, zip(*point))),
                                  as_int(lo), as_int(hi))
        found = [set() for _ in cases]
        for i, k_i in zip(lane.tolist(), k.tolist()):
            found[i].add(k_i)
        exact = 0
        for i, (n_i, m_i, label, p_i, a_i, point_i, lo_i, hi_i) in enumerate(cases):
            if n_i is not None and (n_i <= m_i or n_i == 2 * m_i):
                assert gave_up[i], (label, p_i, point_i)
            elif not gave_up[i]:
                assert found[i] == oracles.orders_in_interval(point_i, a_i, p_i, lo_i, hi_i), \
                    (label, p_i, point_i, lo_i)
                exact += n_i is not None
        assert seen["n <= m"] >= set(self.SMALL_ORDER_PRIMES)
        assert seen["m < n < 2m"] and seen["n = 2m"]
        assert exact > 0                       # m < n < 2m windows were compared

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=5, max_size=5),
           st.sampled_from(MID_PRIMES.tolist()))
    def test_random_models_match_legendre_oracle(self, a_invariants, p):
        try:
            curve = CurveSpec.elliptic("rand", a_invariants, 1)
        except ValidationError:
            assume(False)
        assume(not curve.bad_primes([p])[1][0])
        assert count_points(curve, p) == oracles.legendre_count(curve, p)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=5, max_size=5),
           st.lists(st.sampled_from(MID_PRIMES[MID_PRIMES < 4000].tolist()),
                    min_size=1, max_size=8, unique=True),
           st.integers(0, 8))
    def test_random_prime_sets_match_legendre_and_any_chunking(self, a_invariants,
                                                               primes, cut):
        try:
            curve = CurveSpec.elliptic("rand", a_invariants, 1)
        except ValidationError:
            assume(False)
        primes = np.array(smooth_primes(curve, primes), dtype=np.int64)
        assume(primes.size)
        counts = curves.count_points_many(curve, primes)
        assert counts.tolist() == [oracles.legendre_count(curve, p) for p in primes.tolist()]
        chunks = [curves.count_points_many(curve, part)
                  for part in (primes[:cut], primes[cut:], primes[::-1])]
        assert np.concatenate(chunks[:2]).tolist() == counts.tolist()
        assert chunks[2].tolist() == counts[::-1].tolist()

    @pytest.mark.parametrize("p", [55_103, 55_109, 1_999_993])
    def test_lazy_sweep_equals_reduce_every_step(self, c11, g2b, p):
        """All coefficients p - 1 give the largest Horner values; p^4 < 2^63
        at 55103 but not at 55109, and 1999993 is the largest prime below
        the default ceiling."""
        for curve, big in ((c11, [p - 1] * 4 + [0] * 3), (g2b, [p - 1] * 7)):
            assert curves._count_points_sweep([big], p) == \
                [oracles.sweep_count(curve, p, big)], (curve.label, p)

    def test_lazy_sweep_reduces_at_exactly_2_63(self, g2b):
        """F's coefficients are the base-(p - 1) digits of 2^63, so the last
        Horner step reaches 2^63 exactly at x = p - 1 unless it reduces."""
        p, big, rest = 607, [], 2 ** 63
        while rest:
            rest, digit = divmod(rest, p - 1)
            big.append(digit)
        assert len(big) == 7 and sum(c * (p - 1) ** i for i, c in enumerate(big)) == 2 ** 63
        assert curves._count_points_sweep([big], p) == [oracles.sweep_count(g2b, p, big)]

    def test_search_int64_bound(self, c11):
        """At the largest prime the search accepts, with every coefficient
        of F at p - 1, it agrees with the scalar search in Python integers;
        a prime above the bound is refused."""
        p = next(q for q in range(curves.SEARCH_PMAX - 1, 0, -2)
                 if all(q % d for d in range(3, math.isqrt(q) + 1, 2)))
        big = [p - 1] * 7
        want = oracles.bsgs_count(big, p)
        assert want is not None
        assert curves._count_points_bsgs([tuple(big)], np.array([p])).tolist() == [want]
        assert count_points(c11, p, ceiling=p) == \
            oracles.bsgs_count([c % p for c in curves._square_completed(c11.f, c11.h)], p)
        with pytest.raises(CeilingExceeded):
            count_points(c11, 268_435_459, ceiling=2 ** 29)   # first prime above 2^28

    def test_route_choice_and_fallback(self, c11, monkeypatch):
        swept = []
        sweep = curves._count_points_sweep
        monkeypatch.setattr(curves, "_count_points_sweep",
                            lambda bigs, p: swept.append(p) or sweep(bigs, p))
        for p in (curves.MESTRE_BOUND, 233):
            assert count_points(c11, p) == oracles.legendre_count(c11, p)
        assert swept == [curves.MESTRE_BOUND]
        monkeypatch.setattr(curves, "_BSGS_POINT_BUDGET", 0)
        assert count_points(c11, 1009) == oracles.legendre_count(c11, 1009)
        assert swept == [curves.MESTRE_BOUND, 1009]
        primes = self.MID_PRIMES[:40]
        assert curves.count_points_many(c11, primes).tolist() == \
            [oracles.legendre_count(c11, p) for p in primes.tolist()]
        assert swept[2:] == primes.tolist()      # every lane goes to the sweep


class TestFrobeniusTrace:
    """a_p = p + 1 - #C(F_p), from `count_points`; `euler_factor` asserts
    the Weil bound on it."""

    def test_weil_bound_holds(self, c11, g2b):
        for curve in (c11, g2b):
            for p in smooth_primes(curve, oracles.primes_upto(200)):
                a_p = p + 1 - count_points(curve, p)
                assert a_p ** 2 <= 4 * curve.genus ** 2 * p

    def test_dual_oracles_agree_at_5(self):
        curve = CurveSpec.elliptic("32b", (0, 0, 0, -1, 0), 32)  # y^2 = x^3 - x
        n_enum = oracles.enumerate_points(curve, 5)
        n_leg = oracles.legendre_count(curve, 5)
        assert n_enum == n_leg
        assert 5 + 1 - count_points(curve, 5) == 5 + 1 - n_enum == -2

    def test_weil_violation_raises(self, c11, g2b, monkeypatch):
        monkeypatch.setattr(curves, "_count_points_sweep",     # counts p <= 229
                            lambda bigs, p: [p + 101] * len(bigs))
        for curve in (c11, g2b):                  # a_3 = -100
            with pytest.raises(ValidationError, match="Weil bound"):
                euler_factor(curve, 3)


class TestFp2:
    def test_genus1_unsupported(self, c11):
        with pytest.raises(UnsupportedModel):
            count_points_Fp2(c11, 3)

    def test_matches_field_enumeration(self):
        """Every good odd p <= 13 on g2a, g2b and the seed-7 corpus models:
        26 pairs; the oracle is O(p^4), so the bound stays small."""
        pairs = 0
        for label, f, h, _ in TestCurveSpec.FROZEN_GENUS2:
            curve = CurveSpec.hyperelliptic(label, f, h, 1)
            for p in smooth_primes(curve, oracles.primes_upto(13)[1:]):
                assert count_points_Fp2(curve, p) == \
                    oracles.enumerate_points_fp2(curve, p), (label, p)
                pairs += 1
        assert pairs == 26

    def test_ceiling(self, g2a):
        with pytest.raises(CeilingExceeded):
            count_points_Fp2(g2a, 7, ceiling=10)

    @pytest.mark.parametrize("p, error, message", [
        (13, BadReduction, r"^g2b: p=13 divides the model discriminant$"),
        (2 ** 89 - 1, CeilingExceeded,                    # beyond int64
         rf"^p\^2={(2 ** 89 - 1) ** 2} above enumeration ceiling 10000$"),
    ])
    def test_guards(self, g2b, p, error, message):
        with pytest.raises(error, match=message):
            count_points_Fp2(g2b, p)


class TestEulerFactor:
    def test_one_guard_pass_per_call(self, c11, g2b, monkeypatch):
        """Each entry runs `check_lanes` once and then reads `euler_factors`."""
        guards, check = [], curves.check_lanes
        monkeypatch.setattr(curves, "check_lanes",
                            lambda *args, **kw: guards.append(1) or check(*args, **kw))
        calls = [(euler_factor, c11, 97), (euler_factor, g2b, 97),
                 (count_points_Fp2, g2b, 97), (count_points, g2b, 97),
                 (curves.count_points_many, c11, [233, 239, 241])]
        for entry, curve, p in calls:
            guards.clear()
            entry(curve, p)
            assert guards == [1], entry.__name__

    def test_genus1_shape(self, c32):
        assert euler_factor(c32, 3) == (1, 0, 3)

    def test_genus2_functional_equation(self, g2a, g2b):
        for curve in (g2a, g2b):
            for p in smooth_primes(curve, oracles.primes_upto(50)[1:]):
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
            for p in smooth_primes(curve, oracles.primes_upto(50)[1:]):
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
        for p in smooth_primes(g2a, (3, 7, 11, 13)):
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
        # (1,-36,586,-4716,17161) at p=131 has a near-double root; the
        # resolvent route stays exact where generic rootfinding loses half
        # its digits
        cases = [((1, -36, 586, -4716, 17161), 131),
                 ((1, 2, 1, 6, 9), 3),
                 ((1, -15, 112, -1695, 12769), 113)]
        for coeffs, p in cases:
            thetas = unitarized_eigenangles(coeffs, p)
            numeric = np.sort(np.arccos(np.clip(
                (1.0 / (oracles.polished_roots(coeffs) * math.sqrt(p))).real, -1, 1)))[::2]
            assert np.allclose(thetas, numeric, atol=1e-6)


class TestCurveSpec:
    def test_known_discriminant(self, c11):
        assert c11.discriminant == -161051   # -11^5

    # genus-1 models of the seed-7 benchmark scan corpus and their
    # discriminants, frozen as literals from the b-invariant formula
    FROZEN_GENUS1 = [
        ("s7-0", (1, -3, 0, 1), (), 1296),
        ("s7-1", (8, -4, 0, 1), (), -23552),
        ("s7-2", (-8, -4, 0, 1), (1,), -21851),
        ("s7-3", (-2, -4, 1, 1), (1,), 5157),
        ("s7-4", (9, -4, -1, 1), (0, 1), -22733),
        ("s7-5", (-8, -2, -1, 1), (0, 1), -30772),
        ("s7-6", (4, -3, 1, 1), (0, 1), -9779),
        ("s7-7", (8, 5, -1, 1), (), -46256),
    ]

    def test_frozen_genus1_discriminants(self):
        for label, f, h, disc in self.FROZEN_GENUS1:
            curve = CurveSpec(label=label, genus=1, f=f, h=h, conductor=1)
            assert curve.discriminant == disc, label

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-30, 30), min_size=5, max_size=5))
    def test_genus1_discriminant_matches_sympy_oracle(self, a_invariants):
        """Against the discriminant of the cubic 4f + h^2, over 16."""
        want = oracles.weierstrass_discriminant(a_invariants)
        if want == 0:
            with pytest.raises(ValidationError, match="zero discriminant"):
                CurveSpec.elliptic("e", a_invariants, 1)
        else:
            assert CurveSpec.elliptic("e", a_invariants, 1).discriminant == want

    @pytest.mark.parametrize("doc, message", [
        ({"label": "x"}, "missing field 'genus'"),
        ({"label": "x", "genus": "two", "conductor": 11, "model": {"f": [1]}}, "'two'"),
        ({"label": "x", "genus": 1, "conductor": 11, "model": {"a_invariants": [0]}},
         "not enough values"),
        ([], "list indices"),
    ], ids=["missing-field", "genus-not-int", "short-a-invariants", "not-an-object"])
    def test_malformed_json_is_validation_error(self, doc, message):
        with pytest.raises(ValidationError, match=message):
            CurveSpec.from_json(doc)

    # genus-2 discriminants as computed through sympy, frozen as literals
    FROZEN_GENUS2 = [
        ("g2a", (1, 0, 0, 0, 0, 1), (), 3276800000),
        ("g2b", (0, 0, 0, 0, 1, 1), (1, 1, 0, 1), -692224),
        # genus-2 models of the seed-7 benchmark scan corpus
        ("s7-8", (0, -2, 2, -2, 2, -2), (1, 1, 1, 1), -693370880),
        ("s7-9", (2, 1, 0, 0, -1, -1), (0, 1, 1, 1), -2559328256),
        ("s7-10", (1, 0, 2, -2, -2, 2, 1), (0, 1, 0, 1), -2898339364864),
        ("s7-11", (1, -2, -2, 2, 2, 0, 1), (1, 1, 1), -5045127299072),
    ]
    FROZEN_FORMS = [
        ([1, 2, 3, 4, 5, 6, 7], -157351936),
        ([1, 0, 0, 0, 0, 1, 0], 3125),                 # root at infinity
        ([0, 1, 0, 0, 0, 1, 0], 256),                  # roots at 0 and infinity
        ([0, -2, 2, 0, -1, 1, 0], -3888),              # roots at 0, 1 and infinity
        ([0, 10, -13, 4, -2, 1, 0], -11265100),        # roots at 0, 1, 2 and infinity
        ([0, -42, 71, -31, 1, 1, 0], 3657830400),      # roots at 0..3 and infinity
        ([0, 24, -50, 35, -10, 1, 0], 82944),          # roots at 0..4 and infinity
        ([0, 0, 1, 0, -1, 0, 0], 0),                   # double root at 0
        ([0, 1, -3, 2, 0, 0, 0], 0),                   # double root at infinity
        ([0, 0, 0, 0, 0, 0, 1], 0),
        ([3, 0, 0, 0, 0, 0, 0], 0),
        ([0] * 7, 0),
    ]

    def test_frozen_genus2_discriminants(self):
        for label, f, h, disc in self.FROZEN_GENUS2:
            assert CurveSpec.hyperelliptic(label, f, h, 1).discriminant == disc, label

    def test_frozen_form_discriminants(self):
        for coeffs, disc in self.FROZEN_FORMS:
            assert curves._binary_form_discriminant(coeffs) == disc, coeffs

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=7, max_size=7),
           st.sampled_from(["full", "a6=0", "a0=a6=0", "zero"]))
    def test_discriminant_matches_sympy_oracle(self, coeffs, shape):
        if shape != "full":
            coeffs[6] = 0
        if shape in ("a0=a6=0", "zero"):
            coeffs[0] = 0
        if shape == "zero":
            coeffs = [0] * 7
        assert (curves._binary_form_discriminant(coeffs)
                == oracles.sextic_discriminant(coeffs))

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
        by_n, by_disc = g2b.bad_primes([2, 3, 13])
        assert by_n.tolist() == by_disc.tolist() == [True, False, True]

    def test_genus2_always_bad_at_2(self, g2a, g2b):
        for curve in (g2a, g2b):
            assert curve.discriminant % 2 == 0
