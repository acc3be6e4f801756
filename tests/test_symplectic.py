import math

import numpy as np
import pytest

from frobsep import laurent
from frobsep import symplectic as sy
from frobsep.errors import NonIntegral, UnsupportedModel, ValidationError


def all_weights(g, max_degree=3):
    return [sy.DominantWeight(g, parts)
            for parts in laurent.partitions_upto(max_degree, g)]


class TestCharValue:
    def test_su2_at_right_angle(self):
        w = sy.DominantWeight(1, (1,))
        assert sy.char_value(w, sy.TorusPoint((math.pi / 2,))) == pytest.approx(0.0, abs=1e-12)

    def test_identity_gives_dimension(self):
        # -identity acts on V^{(x) |lambda|} by (-1)^|lambda|
        for g in (1, 2, 3):
            for w in all_weights(g, max_degree=4):
                d = sy.dimension(w)
                ident = sy.TorusPoint((0.0,) * g)
                minus = sy.TorusPoint((math.pi,) * g)
                assert sy.char_value(w, ident) == pytest.approx(d, abs=1e-9)
                assert sy.char_value(w, minus) == pytest.approx(
                    (-1) ** sum(w.parts) * d, abs=1e-9)

    def test_lambda11_identity_value(self):
        w = sy.DominantWeight(2, (1, 1))
        assert sy.char_value(w, sy.TorusPoint((0.0, 0.0))) == pytest.approx(5.0, abs=1e-10)

    def test_matches_antisymmetrized_oracle_at_random_points(self):
        rng = np.random.default_rng(7)
        for g in (1, 2):
            for w in all_weights(g):
                for _ in range(20):
                    angles = tuple(rng.uniform(0.05, math.pi - 0.05, size=g))
                    want = laurent.character_value_exact(w.parts, g, angles)
                    got = sy.char_value(w, sy.TorusPoint(angles))
                    assert got == pytest.approx(want, abs=1e-9)

    def test_near_coincident_angles_stay_accurate(self):
        """Merging angles need no special case: the determinant has no
        denominator, so the value is continuous across the diagonal."""
        w = sy.DominantWeight(2, (2, 1))
        base = 0.9
        for eps in (1e-5, 1e-4):
            got = sy.char_value(w, sy.TorusPoint((base, base + eps)))
            want = laurent.character_value_exact(w.parts, 2, (base, base + eps))
            assert got == pytest.approx(want, abs=1e-8)
        limit = sy.char_value(w, sy.TorusPoint((base, base)))
        near = laurent.character_value_exact(w.parts, 2, (base, base + 1e-7))
        assert limit == pytest.approx(near, abs=1e-5)
        inside = sy.char_value(w, sy.TorusPoint((base, base + 1e-8)))
        assert inside == pytest.approx(limit, abs=1e-6)

    def test_rank3_coincident_cosines(self):
        """Two equal angles at rank 3 agree with the antisymmetrized oracle
        just off the diagonal."""
        w = sy.DominantWeight(3, (1,))
        got = sy.char_value(w, sy.TorusPoint((0.7, 0.7, 1.9)))
        near = laurent.character_value_exact(w.parts, 3, (0.7, 0.7 + 1e-7, 1.9))
        assert got == pytest.approx(near, abs=1e-6)

    @pytest.mark.parametrize("angles", [(math.pi, math.pi, 0.5), (0.7, 0.7, 1.9),
                                        (0.266, 0.276, 0.260)])
    def test_coincident_and_clustered_angles(self, angles):
        """Against the exact Laurent polynomial of sp_lambda summed monomial
        by monomial at the eigenvalues, which has no denominator either; a
        Weyl ratio loses digits or turns 0/0 at these points."""
        for w in all_weights(3, max_degree=4):
            want = laurent.evaluate(sy._sp_poly(w.parts, 3), angles)
            got = sy.char_value(w, sy.TorusPoint(angles))
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sy.char_value(sy.DominantWeight(2, (1,)), sy.TorusPoint((0.3,)))


class TestPowerMap:
    # twice the worst error the power_map docstring quotes for each rank
    TOLERANCE = {1: 8e-14, 2: 6e-11}

    @pytest.mark.parametrize("g", [1, 2])
    def test_matches_angle_route(self, g):
        """e(x^r) by Newton's identities against the coefficients of the
        r-th power's folded angles, at 1000 random points and r <= 17."""
        thetas = np.random.default_rng(0).uniform(0.0, math.pi, size=(1000, g))
        e = sy._e_at_angles(thetas)
        for r in range(1, 18):
            want = sy._e_at_angles([sy.TorusPoint(tuple(t)).power(r).angles
                                    for t in thetas])
            assert np.abs(sy.power_map(e, r) - want).max() <= self.TOLERANCE[g], r


class TestDimension:
    def test_small_table(self):
        assert sy.dimension(sy.DominantWeight(2, (1,))) == 4
        assert sy.dimension(sy.DominantWeight(1, ())) == 1
        assert sy.dimension(sy.DominantWeight(2, (2,))) == 10

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            sy.DominantWeight(1, (1, 1))
        with pytest.raises(ValueError):
            sy.DominantWeight(2, (1, 2))


class TestWeylIntegrate:
    """Haar integrals on the Weyl-density grid, through inner products."""

    def test_normalization(self):
        one = sy.trivial_char(1)
        assert sy.inner_product_raw(one, one) == pytest.approx(1.0, abs=1e-14)

    def test_tautological_integrates_to_zero(self):
        val = sy.inner_product_raw(sy.tautological_char(1), sy.trivial_char(1))
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_tautological_square_integrates_to_one(self):
        v = sy.tautological_char(1)
        assert sy.inner_product_raw(v, v) == pytest.approx(1.0, abs=1e-9)


class TestInnerProducts:
    def test_orthonormality_small_weights(self):
        # the grid is exact for every pair, so only rounding is left
        for g in (1, 2, 3):
            ws = all_weights(g)
            for w1 in ws:
                for w2 in ws:
                    chi1 = sy.VirtualCharacter((g,), {(w1.parts,): 1})
                    chi2 = sy.VirtualCharacter((g,), {(w2.parts,): 1})
                    raw = sy.inner_product_raw(chi1, chi2)
                    want = 1.0 if w1 == w2 else 0.0
                    assert abs(raw - want) < 1e-12
                    assert sy.inner_product(chi1, chi2) == int(want)

    def test_nonintegral_gate(self, monkeypatch):
        monkeypatch.setattr(sy, "_pair_integral", lambda g, p1, p2: 0.5)
        chi = sy.VirtualCharacter((1,), {((4,),): 1})
        with pytest.raises(NonIntegral):
            sy.inner_product(chi, chi)

    def test_tensor_square_contains_one_trivial(self):
        # Alt^2 V carries the symplectic form for every rank
        for g in (1, 2):
            vv = sy.tensor_square_char(g)
            assert sy.inner_product(vv, sy.trivial_char(g)) == 1


class TestTrivialMultiplicity:
    def test_tautological_has_none(self):
        for g in (1, 2):
            assert sy.trivial_multiplicity(sy.tautological_char(g)) == 0

    def test_box_product_factorizes(self):
        v_box_v = sy.box_product(sy.tautological_char(1), sy.tautological_char(2))
        assert sy.trivial_multiplicity(v_box_v) == 0

    def test_odd_degree_in_second_factor_vanishes(self):
        chi = sy.box_product(sy.tautological_char(1), sy.tensor_square_char(1))
        # V box (V (x) V): odd total degree in the first factor
        assert sy.trivial_multiplicity(chi) == 0
        raw = sy.inner_product_raw(
            chi, sy.VirtualCharacter(chi.gs, {((), ()): 1}))
        assert abs(raw) < 1e-9

    def test_matches_exact_path(self):
        for g in (1, 2):
            chi = sy.tensor_square_char(g)
            assert sy.trivial_multiplicity(chi) == sy.trivial_multiplicity_exact(chi) == 1


class TestPsiCharacter:
    @pytest.mark.parametrize("g,g2", [(1, 1), (1, 2), (2, 2), (3, 1)])
    def test_delta_is_one_by_both_paths(self, g, g2):
        psi = sy.psi_character(g, g2)
        assert sy.trivial_multiplicity(psi) == 1
        assert sy.trivial_multiplicity_exact(psi) == 1
        assert sy.psi_delta_exact(g, g2) == 1

    def test_vanishes_at_identity(self):
        psi = sy.psi_character(1, 1)
        ident = sy.TorusPoint((0.0,), (0.0,))
        assert psi.value(ident) == pytest.approx(0.0, abs=1e-9)

    def test_sign_identity_point(self):
        # traces (1, -1) give psi = 1
        psi = sy.psi_character(1, 1)
        pt = sy.TorusPoint((math.acos(0.5),), (math.acos(-0.5),))
        assert psi.value(pt) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("g,g2", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_evaluation_matches_trace_formula(self, g, g2):
        # psi = t*t'*(t - 2g)*(t' + 2g') at factor traces t = sum 2 cos(theta)
        psi = sy.psi_character(g, g2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            angles = rng.uniform(0.0, math.pi, size=g)
            angles2 = rng.uniform(0.0, math.pi, size=g2)
            t = 2 * np.cos(angles).sum()
            t2 = 2 * np.cos(angles2).sum()
            want = t * t2 * (t - 2 * g) * (t2 + 2 * g2)
            pt = sy.TorusPoint(tuple(angles), tuple(angles2))
            assert psi.value(pt) == pytest.approx(want, abs=1e-9)


class TestAdams:
    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("make", [sy.tautological_char, sy.tensor_square_char,
                                      sy.sym2_char])
    def test_pointwise_identity(self, g, make):
        chi = make(g)
        doubled = sy.adams2(chi)
        rng = np.random.default_rng(11)
        for _ in range(100):
            angles = tuple(rng.uniform(0.0, math.pi, size=g))
            pt = sy.TorusPoint(angles)
            squared = pt.power(2)
            assert doubled.value(pt) == pytest.approx(chi.value(squared), abs=1e-9)

    def test_adams_of_v_matches_exact_substitution(self):
        for g in (1, 2):
            got = sy.adams2(sy.tautological_char(g)).terms
            want = laurent.decompose(
                laurent.power_substitution(laurent.tautological(g), 2), g)
            assert {k[0]: c for k, c in got.items()} == want

    def test_fs_indicator_values(self):
        assert sy.fs_indicator(sy.DominantWeight(1, (1,))) == -1
        assert sy.fs_indicator(sy.DominantWeight(2, (1,))) == -1
        assert sy.fs_indicator(sy.DominantWeight(1, ())) == 1
        assert sy.fs_indicator(sy.DominantWeight(1, (2,))) == 1
        # every USp(2g) irreducible is self-dual, symplectic exactly when
        # |lambda| is odd; at rank 3 the doubled angles meet off the diagonal
        for g in (1, 2, 3):
            for w in all_weights(g):
                assert sy.fs_indicator(w) == (-1) ** sum(w.parts)

    def test_fs_equals_delta_of_adams(self):
        for g in (1, 2):
            chi = sy.tautological_char(g)
            assert sy.trivial_multiplicity(sy.adams2(chi)) == sy.fs_indicator(
                sy.DominantWeight(g, (1,)))

    def test_rank_above_exact_limit_unsupported(self):
        with pytest.raises(UnsupportedModel, match="adams2 supports rank <= 4"):
            sy.adams2(sy.tautological_char(5))


class TestVirtualCharacterType:
    def test_json_round_trip(self):
        psi = sy.psi_character(1, 2)
        doc = psi.to_json()
        assert doc["g"] == 1 and doc["g2"] == 2
        assert sy.VirtualCharacter.from_json(doc) == psi

    def test_single_factor_json(self):
        chi = sy.tensor_square_char(2)
        assert sy.VirtualCharacter.from_json(chi.to_json()) == chi

    def test_malformed_json_is_validation_error(self):
        for doc in ({"g": 1}, {"g": 1, "terms": [{"lambda": [1]}]}, {"g": "x", "terms": []}):
            with pytest.raises(ValidationError):
                sy.VirtualCharacter.from_json(doc)

    def test_zero_coefficients_dropped(self):
        # V - V: the keys (1,) and ((1,),) name the same term
        chi = sy.VirtualCharacter((1,), {((1,),): 1, (1,): -1, ((2,),): 0})
        assert chi.terms == {}

    def test_torus_point_validation(self):
        with pytest.raises(ValueError):
            sy.TorusPoint((4.0,))

    def test_power_folds_back(self):
        pt = sy.TorusPoint((2.0,))
        folded = pt.power(2)
        assert 0.0 <= folded.angles[0] <= math.pi
        assert math.cos(folded.angles[0]) == pytest.approx(math.cos(4.0), abs=1e-12)
