"""Tests for the Fourier basis: orthonormality, evaluation, projection."""

import numpy as np
import pytest

from fsim.basis import (
    BasisExpansion,
    FourierBasis,
    _trapz,
    inner_product,
    project_sample_rows,
    project_samples,
)


def quadrature_gram(basis, points=10_001):
    t = np.linspace(0.0, 1.0, points)
    psi = basis.design_matrix(t)
    return np.trapezoid(psi[:, :, None] * psi[:, None, :], t, axis=0)


class TestFourierBasis:
    def test_ordering(self):
        assert FourierBasis(6).labels() == ["const", "sin1", "cos1", "sin2", "cos2", "sin3"]
        assert FourierBasis(4, include_constant=False).labels() == [
            "sin1", "cos1", "sin2", "cos2"
        ]

    def test_design_matrix_values(self):
        psi = FourierBasis(3).design_matrix(np.array([0.0, 0.25]))
        np.testing.assert_allclose(psi[0], [1.0, 0.0, np.sqrt(2.0)], atol=1e-14)
        np.testing.assert_allclose(psi[1], [1.0, np.sqrt(2.0), 0.0], atol=1e-14)

    def test_gram_matrix_is_identity(self):
        gram = quadrature_gram(FourierBasis(25))
        assert np.abs(gram - np.eye(25)).max() < 1e-6

    def test_gram_matrix_without_constant(self):
        gram = quadrature_gram(FourierBasis(8, include_constant=False))
        assert np.abs(gram - np.eye(8)).max() < 1e-6

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            FourierBasis(0)

    def test_drop_constant(self):
        beta_basis = FourierBasis(25).drop_constant()
        assert beta_basis.dimension == 24
        assert not beta_basis.include_constant
        assert beta_basis.drop_constant() is beta_basis


class TestEvaluate:
    def test_constant_term(self):
        e = BasisExpansion(FourierBasis(5), [1, 0, 0, 0, 0])
        assert e.evaluate(0.37) == pytest.approx(1.0, abs=1e-14)

    def test_first_sine_at_zero(self):
        e = BasisExpansion(FourierBasis(5), [0, 1, 0, 0, 0])
        assert e.evaluate(0.0) == pytest.approx(0.0, abs=1e-14)

    def test_first_cosine_at_quarter(self):
        # sqrt(2) cos(2 pi / 4) = sqrt(2) cos(pi / 2) = 0
        e = BasisExpansion(FourierBasis(5), [0, 0, 1, 0, 0])
        assert e.evaluate(0.25) == pytest.approx(0.0, abs=1e-12)

    def test_domain_error(self):
        e = BasisExpansion(FourierBasis(3), [1, 0, 0])
        with pytest.raises(ValueError):
            e.evaluate(1.2)
        with pytest.raises(ValueError):
            e.evaluate(-0.1)

    def test_coefficients_are_locked(self):
        e = BasisExpansion(FourierBasis(3), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            e.coeffs[0] = 9.0

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            BasisExpansion(FourierBasis(3), [1.0, 2.0])


class TestInnerProduct:
    def test_unit_vector(self):
        e = BasisExpansion(FourierBasis(4), [0, 1, 0, 0])
        assert inner_product(e, e) == 1.0

    def test_orthogonality(self):
        basis = FourierBasis(4)
        f = BasisExpansion(basis, [1, 0, 0, 0])
        g = BasisExpansion(basis, [0, 1, 0, 0])
        assert inner_product(f, g) == 0.0

    def test_normalized_self_product(self):
        coeffs = np.array([0.0, 1.0, 1.0, 0.5, 0.0, 0.0])
        coeffs = coeffs / np.linalg.norm(coeffs)
        f = BasisExpansion(FourierBasis(6), coeffs)
        assert inner_product(f, f) == pytest.approx(1.0, abs=1e-14)

    def test_basis_mismatch(self):
        f = BasisExpansion(FourierBasis(4), [1, 0, 0, 0])
        g = BasisExpansion(FourierBasis(5), [1, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            inner_product(f, g)

    def test_agrees_with_quadrature(self):
        rng = np.random.default_rng(7)
        basis = FourierBasis(9)
        t = np.linspace(0.0, 1.0, 20_001)
        for _ in range(25):
            f = BasisExpansion(basis, rng.standard_normal(9))
            g = BasisExpansion(basis, rng.standard_normal(9))
            oracle = np.trapezoid(f.evaluate(t) * g.evaluate(t), t)
            assert inner_product(f, g) == pytest.approx(oracle, abs=1e-6)

    def test_parseval_norm(self):
        rng = np.random.default_rng(11)
        basis = FourierBasis(7)
        f = BasisExpansion(basis, rng.standard_normal(7))
        t = np.linspace(0.0, 1.0, 20_001)
        l2 = np.sqrt(np.trapezoid(f.evaluate(t) ** 2, t))
        assert f.norm() == pytest.approx(l2, abs=1e-6)


class TestProjection:
    def test_constant_samples(self):
        result = project_samples(np.full(200, 3.0), FourierBasis(6))
        np.testing.assert_allclose(result.coeffs, [3, 0, 0, 0, 0, 0], atol=1e-12)

    def test_basis_function_recovers_itself(self):
        t = np.linspace(0.0, 1.0, 1000)
        values = np.sqrt(2.0) * np.sin(2.0 * np.pi * t)
        result = project_samples(values, FourierBasis(6))
        np.testing.assert_allclose(result.coeffs, [0, 1, 0, 0, 0, 0], atol=1e-3)

    def test_linearity(self):
        t = np.linspace(0.0, 1.0, 1000)
        values = np.sqrt(2.0) * (np.sin(2.0 * np.pi * t) + np.cos(4.0 * np.pi * t))
        result = project_samples(values, FourierBasis(6))
        np.testing.assert_allclose(result.coeffs, [0, 1, 0, 0, 1, 0], atol=1e-3)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(3)
        basis = FourierBasis(25)
        original = BasisExpansion(basis, rng.standard_normal(25))
        t = np.linspace(0.0, 1.0, 10_000)
        recovered = project_samples(original.evaluate(t), basis)
        assert np.abs(recovered.coeffs - original.coeffs).max() < 1e-6

    def test_underdetermined(self):
        with pytest.raises(ValueError):
            project_samples(np.ones(4), FourierBasis(6))
        with pytest.raises(ValueError):
            project_sample_rows(np.ones((3, 4)), FourierBasis(6))

    @pytest.mark.parametrize("dimension, bins", [(1, 37), (13, 37), (25, 37), (37, 37), (9, 200)])
    def test_rows_are_one_history_projections_byte_for_byte(self, dimension, bins):
        rng = np.random.default_rng(dimension + bins)
        values = rng.normal(size=(400, bins)) * rng.uniform(0.01, 100.0, size=(400, 1))
        basis = FourierBasis(dimension)
        t = np.linspace(0.0, 1.0, bins)
        psi = basis.design_matrix(t)
        rows = project_sample_rows(values, basis)
        assert rows.shape == (400, dimension)
        for k in range(400):
            # the quadrature of one history on its own
            alone = _trapz(psi * values[k][:, None], t, axis=0)
            assert rows[k].tobytes() == alone.tobytes()
            assert project_samples(values[k], basis).coeffs.tobytes() == alone.tobytes()

    def test_rows_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            project_sample_rows(np.ones(37), FourierBasis(5))
        with pytest.raises(ValueError, match="one-dimensional"):
            project_samples(np.ones((2, 37)), FourierBasis(5))
