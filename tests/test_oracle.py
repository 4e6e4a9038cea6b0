from fractions import Fraction
from math import comb

import pytest

from barychi.combinatorics import ext_binomial
from barychi.engine import chi_c_direct, chi_c_strata
from barychi.errors import NonPositiveWeight, TooManyVertices
from barychi.model import validate
from barychi.oracle import FiniteWeightedSpace, oracle_chi, skeleton_chi
from barychi.series import chi_c_series

F = Fraction


class TestFiniteWeightedSpace:
    def test_padding(self):
        space = FiniteWeightedSpace.of(4, (F(1, 2),))
        assert space.vertex_weights == (F(1, 2), F(1), F(1), F(1))
        assert space.m == 4

    def test_rejects_zero_weight(self):
        with pytest.raises(NonPositiveWeight):
            FiniteWeightedSpace((F(0),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FiniteWeightedSpace(())

    def test_rejects_surplus_weights(self):
        with pytest.raises(ValueError):
            FiniteWeightedSpace.of(1, (F(1, 2), F(1, 3)))


class TestOracleChi:
    def test_two_vertices(self):
        space = FiniteWeightedSpace.of(2, (F(1, 2),))
        assert oracle_chi(space, F(1)) == 2

    def test_three_vertices(self):
        space = FiniteWeightedSpace.of(3, (F(1, 2), F(1, 2)))
        assert oracle_chi(space, F(1)) == 2

    def test_unit_weights_give_skeleta(self):
        for n in range(0, 7):
            for k in range(1, n + 2):
                space = FiniteWeightedSpace.of(n + 1)
                assert oracle_chi(space, F(k)) == skeleton_chi(n, k)

    def test_vertex_cap(self):
        with pytest.raises(TooManyVertices):
            oracle_chi(FiniteWeightedSpace.of(23), F(1))

    def test_saturation(self):
        space = FiniteWeightedSpace((F(1, 2), F(3), F(1)))
        total = sum(space.vertex_weights)
        assert oracle_chi(space, total) == 1
        assert oracle_chi(space, total + 5) == 1

    def test_empty_complex(self):
        space = FiniteWeightedSpace((F(1, 2), F(2, 3)))
        assert oracle_chi(space, F(1, 3)) == 0

    def test_matches_engines(self, finite_corpus):
        for space, rho in finite_corpus[:100]:
            expected = oracle_chi(space, rho)
            inst = validate(space.matching_instance(rho))
            assert chi_c_direct(inst).chi_c_value == expected
            assert chi_c_strata(inst).chi_c_value == expected
            assert chi_c_series(inst).chi_c_value == expected


class TestSkeletonChi:
    def test_triangle_boundary(self):
        assert skeleton_chi(2, 2) == 0

    def test_one_skeleton_of_tetrahedron(self):
        assert skeleton_chi(3, 2) == -2 == 1 - ext_binomial(-2, 2)

    def test_full_simplex_contractible(self):
        for n in range(0, 8):
            assert skeleton_chi(n, n + 1) == 1

    def test_triple_identity(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                face_count = skeleton_chi(n, k)
                assert face_count == 1 - ext_binomial(k - (n + 1), k)
                assert face_count == 1 + (-1) ** (k - 1) * comb(n, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            skeleton_chi(3, 0)
        with pytest.raises(ValueError):
            skeleton_chi(3, 5)
