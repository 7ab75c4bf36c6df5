"""Special-function tests against closed forms and frozen reference values."""

import math

import numpy as np
import pytest

from diagmc import special
from diagmc.special import (
    kolmogorov_critical,
    kolmogorov_sf,
    regularized_incomplete_beta,
    student_t_cdf,
)

XS = np.array([-8.0, -3.0, -1.5, -0.5, 0.0, 0.3, 1.0, 2.5, 6.0])

# reference CDF values computed with an independent implementation
T10_REF = np.array([
    5.887471394833078e-06, 0.006671827511284783, 0.08225366322272008,
    0.3139468028714865, 0.5, 0.6148396962171008, 0.82955343384897,
    0.9842765778816956, 0.9999339455698226,
])
T2_5_REF = np.array([
    0.003828322065521722, 0.03628804777451591, 0.123918226543148,
    0.3288489599348574, 0.5, 0.6063288142524015, 0.7979694863608633,
    0.9477150184609223, 0.9923591350572385,
])


class TestIncompleteBeta:
    def test_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_power_law_cases(self):
        x = np.linspace(0.01, 0.99, 23)
        # I_x(a, 1) = x^a and I_x(1, b) = 1 - (1-x)^b
        assert np.allclose(regularized_incomplete_beta(3.5, 1.0, x), x**3.5, rtol=1e-13)
        assert np.allclose(
            regularized_incomplete_beta(1.0, 2.25, x), 1.0 - (1.0 - x) ** 2.25, rtol=1e-12
        )

    def test_arcsine_case(self):
        x = np.linspace(0.01, 0.99, 23)
        expected = 2.0 / math.pi * np.arcsin(np.sqrt(x))
        assert np.allclose(regularized_incomplete_beta(0.5, 0.5, x), expected, rtol=1e-12)

    def test_reflection_symmetry(self):
        x = np.linspace(0.05, 0.95, 15)
        lhs = regularized_incomplete_beta(2.0, 5.0, x)
        rhs = 1.0 - regularized_incomplete_beta(5.0, 2.0, 1.0 - x)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

    def test_monotone_in_x(self):
        x = np.linspace(0.0, 1.0, 101)
        values = regularized_incomplete_beta(4.0, 0.5, x)
        assert np.all(np.diff(values) >= 0.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestStudentT:
    def test_cauchy_closed_form(self):
        expected = 0.5 + np.arctan(XS) / math.pi
        assert np.allclose(student_t_cdf(XS, 1.0), expected, rtol=1e-13, atol=1e-15)

    def test_two_dof_closed_form(self):
        expected = 0.5 + XS / (2.0 * np.sqrt(2.0 + XS * XS))
        assert np.allclose(student_t_cdf(XS, 2.0), expected, rtol=1e-13, atol=1e-15)

    def test_frozen_references(self):
        assert np.allclose(student_t_cdf(XS, 10.0), T10_REF, rtol=1e-12, atol=1e-15)
        assert np.allclose(student_t_cdf(XS, 2.5), T2_5_REF, rtol=1e-12, atol=1e-15)

    def test_symmetry_and_center(self):
        x = np.linspace(0.1, 5.0, 21)
        for dof in (3.0, 10.0, 42.0):
            assert np.allclose(
                student_t_cdf(-x, dof), 1.0 - student_t_cdf(x, dof), rtol=1e-12
            )
            assert student_t_cdf(0.0, dof) == 0.5

    def test_large_dof_approaches_normal(self):
        x = np.linspace(-3.0, 3.0, 13)
        normal = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in x]))
        assert np.allclose(student_t_cdf(x, 1e7), normal, atol=2e-7)

    def test_scalar_input(self):
        out = student_t_cdf(1.0, 10.0)
        assert np.ndim(out) == 0
        assert out == pytest.approx(0.82955343384897, rel=1e-12)

    def test_invalid_dof(self):
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0.0)


class TestKolmogorov:
    # classic critical values of the asymptotic distribution
    REFERENCES = [
        (0.4, 0.997192326777), (0.8, 0.544142411574), (1.0, 0.269999671677),
        (1.2238, 0.100023427836), (1.3581, 0.0499996304317),
        (1.6276, 0.0100015373331), (2.0, 0.00067092525578),
    ]

    @pytest.mark.parametrize("x,expected", REFERENCES)
    def test_reference_values(self, x, expected):
        assert kolmogorov_sf(x) == pytest.approx(expected, rel=1e-9)

    def test_series_switch_is_continuous(self):
        assert kolmogorov_sf(1.0 - 1e-9) == pytest.approx(kolmogorov_sf(1.0 + 1e-9), rel=1e-6)

    def test_limits(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(-1.0) == 1.0
        assert kolmogorov_sf(10.0) < 1e-30

    def test_critical_inverts_sf(self):
        for alpha in (0.1, 0.05, 0.01):
            crit = kolmogorov_critical(alpha)
            assert kolmogorov_sf(crit) == pytest.approx(alpha, rel=1e-6)
        assert kolmogorov_critical(0.01) == pytest.approx(1.62762, abs=1e-4)

    def test_critical_computed_once_per_alpha(self, monkeypatch):
        # the bisection evaluates the series 200 times for a new alpha, never for a repeated one
        special._kolmogorov_critical.cache_clear()
        calls = []
        series = special.kolmogorov_sf
        monkeypatch.setattr(special, "kolmogorov_sf", lambda x: calls.append(x) or series(x))
        first = kolmogorov_critical(0.01)
        assert len(calls) == 200
        for alpha in (0.01, np.float64(0.01)):
            assert kolmogorov_critical(alpha) is first
        assert len(calls) == 200
        assert kolmogorov_critical(0.05) != first and len(calls) == 400

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            kolmogorov_critical(0.0)
