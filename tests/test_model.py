"""Tests for the index model: index computation, normalization, objective."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fsim.basis import BasisExpansion, FourierBasis
from fsim.kernel import smooth_kernel
from fsim.model import (
    Dataset,
    DegenerateObjectiveError,
    FunctionalBlock,
    IndexModelSpec,
    NormalizationError,
    StackedObjective,
    canonical_sign,
    compute_index,
    objective_loo_mse,
    spec_from_raw,
)
from fsim.optimize import safe_objective


def single_block_data(coeffs, y, w=None):
    basis = FourierBasis(coeffs.shape[1], include_constant=True)
    return Dataset(blocks=(FunctionalBlock(basis, coeffs),), y=np.asarray(y, float), w=w)


class TestDataset:
    def test_sample_count_consistency(self):
        basis = FourierBasis(4)
        with pytest.raises(ValueError):
            Dataset(blocks=(FunctionalBlock(basis, np.zeros((3, 4))),), y=np.zeros(5))

    def test_scalar_shape(self):
        basis = FourierBasis(4)
        with pytest.raises(ValueError):
            Dataset(blocks=(FunctionalBlock(basis, np.zeros((3, 4))),),
                    y=np.zeros(3), w=np.zeros(2))

    def test_search_dimension(self):
        rng = np.random.default_rng(0)
        data = single_block_data(rng.normal(size=(6, 5)), np.zeros(6))
        assert data.search_dimension() == 4
        data_w = single_block_data(rng.normal(size=(6, 5)), np.zeros(6), w=np.ones(6))
        assert data_w.search_dimension() == 5

    def test_subset(self):
        rng = np.random.default_rng(1)
        data = single_block_data(rng.normal(size=(6, 4)), rng.normal(size=6), w=np.arange(6.0))
        sub = data.subset([4, 1])
        assert sub.n == 2
        np.testing.assert_array_equal(sub.y, data.y[[4, 1]])
        np.testing.assert_array_equal(sub.w, [4.0, 1.0])
        np.testing.assert_array_equal(sub.blocks[0].coeffs, data.blocks[0].coeffs[[4, 1]])


class TestComputeIndex:
    def test_aligned_unit_coefficients(self):
        beta_coeffs = np.array([0.6, 0.8, 0.0])
        x = np.zeros((2, 4))
        x[:, 1:] = beta_coeffs
        data = single_block_data(x, np.zeros(2))
        spec = IndexModelSpec(
            (BasisExpansion(FourierBasis(3, include_constant=False), beta_coeffs),),
            bandwidth=1.0,
        )
        np.testing.assert_allclose(compute_index(data, spec), [1.0, 1.0], atol=1e-15)

    def test_zero_map(self):
        rng = np.random.default_rng(2)
        data = single_block_data(rng.normal(size=(4, 4)), np.zeros(4), w=rng.normal(size=4))
        spec = IndexModelSpec(
            (BasisExpansion(FourierBasis(3, include_constant=False), np.zeros(3)),),
            bandwidth=1.0,
            alpha=0.0,
        )
        np.testing.assert_array_equal(compute_index(data, spec), np.zeros(4))

    def test_two_blocks_plus_scalar_hand_computation(self):
        basis = FourierBasis(3, include_constant=True)
        block1 = FunctionalBlock(basis, np.array([[9.0, 1.0, 2.0]]))
        block2 = FunctionalBlock(basis, np.array([[-3.0, 3.0, -1.0]]))
        data = Dataset(blocks=(block1, block2), y=np.zeros(1), w=np.array([2.0]))
        beta_basis = basis.drop_constant()
        spec = IndexModelSpec(
            (
                BasisExpansion(beta_basis, [0.5, -1.0]),
                BasisExpansion(beta_basis, [2.0, 0.5]),
            ),
            bandwidth=1.0,
            alpha=0.25,
        )
        # 0.25*2 + (1*0.5 - 2*1) + (3*2 - 1*0.5) = 0.5 - 1.5 + 5.5
        assert compute_index(data, spec)[0] == pytest.approx(4.5, abs=1e-14)

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 5))
        data = single_block_data(x, np.zeros(7))
        beta_basis = FourierBasis(4, include_constant=False)
        c1 = rng.normal(size=4)
        c2 = rng.normal(size=4)
        z1 = compute_index(data, IndexModelSpec((BasisExpansion(beta_basis, c1),), 1.0))
        z2 = compute_index(data, IndexModelSpec((BasisExpansion(beta_basis, c2),), 1.0))
        z12 = compute_index(data, IndexModelSpec((BasisExpansion(beta_basis, c1 + c2),), 1.0))
        np.testing.assert_allclose(z12, z1 + z2, atol=1e-12)

    def test_block_count_mismatch(self):
        rng = np.random.default_rng(4)
        data = single_block_data(rng.normal(size=(4, 4)), np.zeros(4))
        beta_basis = FourierBasis(3, include_constant=False)
        spec = IndexModelSpec(
            (BasisExpansion(beta_basis, np.ones(3)), BasisExpansion(beta_basis, np.ones(3))),
            bandwidth=1.0,
        )
        with pytest.raises(ValueError):
            compute_index(data, spec)


class TestNormalizeSpec:
    """Normalization of a raw search vector by :func:`spec_from_raw`."""

    def test_rescales_coefficients_and_bandwidth(self):
        data = single_block_data(np.zeros((3, 6)), np.zeros(3))
        raw = np.zeros(5)
        raw[0] = 2.0
        spec = spec_from_raw(data, raw, 0.5)
        np.testing.assert_allclose(spec.beta_blocks[0].coeffs, [1, 0, 0, 0, 0])
        assert spec.bandwidth == pytest.approx(1.0)

    def test_unit_vector_unchanged(self):
        data = single_block_data(np.zeros((3, 5)), np.zeros(3))
        raw = np.zeros(4)
        raw[1] = 1.0
        spec = spec_from_raw(data, raw, 0.37)
        np.testing.assert_allclose(spec.beta_blocks[0].coeffs, raw)
        assert spec.bandwidth == pytest.approx(0.37)

    def test_zero_vector(self):
        data = single_block_data(np.zeros((3, 5)), np.zeros(3))
        with pytest.raises(NormalizationError):
            spec_from_raw(data, np.zeros(4), 0.5)

    def test_objective_weights_invariant_under_normalization(self):
        # the search objective scales its bandwidth by the current coefficient
        # norm, so the kernel weights at a raw point and at its normalized
        # version coincide
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 6))
        data = single_block_data(x, rng.normal(size=8))
        raw = rng.normal(size=5)
        h = 0.4
        z_raw = x[:, 1:] @ raw
        weights_raw = smooth_kernel(
            (z_raw[:, None] - z_raw[None, :]) / (h * np.linalg.norm(raw))
        )
        spec = spec_from_raw(data, raw, h)
        z_unit = compute_index(data, spec)
        weights_unit = smooth_kernel((z_unit[:, None] - z_unit[None, :]) / h)
        np.testing.assert_allclose(weights_raw, weights_unit, atol=1e-12)

    def test_spec_from_raw_rescales_alpha_with_functional_norm(self):
        rng = np.random.default_rng(6)
        data = single_block_data(rng.normal(size=(5, 4)), np.zeros(5), w=rng.normal(size=5))
        raw = np.array([3.0, 0.0, 4.0, 2.5])  # functional part norm 5, alpha 2.5
        spec = spec_from_raw(data, raw, h=0.2)
        np.testing.assert_allclose(spec.beta_blocks[0].coeffs, [0.6, 0.0, 0.8])
        assert spec.alpha == pytest.approx(0.5)
        assert spec.bandwidth == pytest.approx(1.0)


class TestCanonicalSign:
    def test_first_nonzero_positive(self):
        beta_basis = FourierBasis(3, include_constant=False)
        spec = IndexModelSpec((BasisExpansion(beta_basis, [-0.6, 0.8, 0.0]),), 1.0, alpha=0.3)
        flipped = canonical_sign(spec)
        np.testing.assert_allclose(flipped.coefficient_vector(), [0.6, -0.8, 0.0])
        assert flipped.alpha == pytest.approx(-0.3)

    def test_reference_alignment(self):
        beta_basis = FourierBasis(3, include_constant=False)
        spec = IndexModelSpec((BasisExpansion(beta_basis, [0.6, -0.8, 0.0]),), 1.0)
        reference = np.array([-1.0, 1.0, 0.0])
        flipped = canonical_sign(spec, reference)
        np.testing.assert_allclose(flipped.coefficient_vector(), [-0.6, 0.8, 0.0])
        kept = canonical_sign(spec, np.array([1.0, -1.0, 0.0]))
        assert kept is spec


class TestObjective:
    def test_constant_responses_give_zero(self):
        rng = np.random.default_rng(7)
        data = single_block_data(rng.normal(size=(10, 4)), np.full(10, 3.3))
        report = objective_loo_mse(data, rng.normal(size=3), 0.8)
        assert report.mse == pytest.approx(0.0, abs=1e-28)

    def test_near_linear_model_low_mse(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(300, 4))
        truth = np.array([0.6, 0.8, 0.0])
        z = x[:, 1:] @ truth
        noise_sd = 0.05
        y = z + noise_sd * rng.normal(size=300)
        data = single_block_data(x, y)
        report = objective_loo_mse(data, truth, 0.3)
        assert report.mse <= 2.0 * noise_sd**2

    def test_hand_expanded_double_sum(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=5)
        raw = rng.normal(size=3)
        h = 0.9
        data = single_block_data(x, y)
        z = x[:, 1:] @ raw
        h_eff = h * np.linalg.norm(raw)
        total = 0.0
        for i in range(5):
            num = den = 0.0
            for j in range(5):
                if j == i:
                    continue
                weight = smooth_kernel((z[i] - z[j]) / h_eff)
                num += weight * y[j]
                den += weight
            total += (y[i] - num / den) ** 2
        report = objective_loo_mse(data, raw, h)
        assert report.excluded_count == 0
        assert report.mse == pytest.approx(total / 5.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        data = single_block_data(x, y)
        for _ in range(10):
            raw = rng.normal(size=4)
            lam = rng.uniform(0.2, 5.0)
            base = objective_loo_mse(data, raw, 0.5)
            scaled = objective_loo_mse(data, lam * raw, 0.5)
            assert scaled.mse == pytest.approx(base.mse, abs=1e-12)
            assert scaled.excluded_count == base.excluded_count

    def test_sign_symmetry(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(20, 5))
        y = rng.normal(size=20)
        data = single_block_data(x, y)
        raw = rng.normal(size=4)
        assert objective_loo_mse(data, -raw, 0.5).mse == pytest.approx(
            objective_loo_mse(data, raw, 0.5).mse, abs=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 60), h=st.floats(0.1, 3.0),
           magnitude=st.floats(1e-3, 1e3), negative=st.booleans())
    def test_scale_and_sign_leave_objective_unchanged(self, seed, n, h, magnitude, negative):
        rng = np.random.default_rng(seed)
        data = single_block_data(rng.normal(size=(n, 5)), rng.normal(size=n))
        raw = rng.normal(size=4)
        z = data.blocks[0].nonconstant() @ (raw / np.linalg.norm(raw))
        # a pair within rounding of the window edge may flip in or out
        assume(not np.any(np.abs(np.abs(z[:, None] - z[None, :]) / h - 1.0) < 1e-9))
        lam = -magnitude if negative else magnitude
        try:
            base = objective_loo_mse(data, raw, h)
        except DegenerateObjectiveError:
            with pytest.raises(DegenerateObjectiveError):
                objective_loo_mse(data, lam * raw, h)
            return
        scaled = objective_loo_mse(data, lam * raw, h)
        assert scaled.excluded_count == base.excluded_count
        assert scaled.mse == pytest.approx(base.mse, rel=1e-9, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 60), h=st.floats(0.1, 3.0),
           power=st.integers(-20, 20), negative=st.booleans())
    def test_power_of_two_scale_and_sign_are_exact(self, seed, n, h, power, negative):
        rng = np.random.default_rng(seed)
        data = single_block_data(rng.normal(size=(n, 5)), rng.normal(size=n))
        raw = rng.normal(size=4)
        lam = -(2.0**power) if negative else 2.0**power
        try:
            base = objective_loo_mse(data, raw, h)
        except DegenerateObjectiveError:
            with pytest.raises(DegenerateObjectiveError):
                objective_loo_mse(data, lam * raw, h)
            return
        scaled = objective_loo_mse(data, lam * raw, h)
        assert scaled.excluded_count == base.excluded_count
        assert scaled.mse == base.mse

    def test_exclusions_counted(self):
        x = np.zeros((5, 3))
        x[:, 1] = [0.0, 0.005, 0.01, 0.015, 5.0]
        data = single_block_data(x, np.ones(5))
        report = objective_loo_mse(data, np.array([1.0, 0.0]), 0.05)
        assert report.excluded_count == 1

    def test_degenerate_objective(self):
        x = np.zeros((4, 3))
        x[:, 1] = [0.0, 10.0, 20.0, 30.0]
        data = single_block_data(x, np.ones(4))
        with pytest.raises(DegenerateObjectiveError):
            objective_loo_mse(data, np.array([1.0, 0.0]), 0.01)

    def test_minimum_sample_count(self):
        data = single_block_data(np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(DegenerateObjectiveError, match="at least 4 samples"):
            objective_loo_mse(data, np.ones(2), 0.5)

    def test_reported_index_is_normalized(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(8, 4))
        data = single_block_data(x, rng.normal(size=8))
        raw = np.array([6.0, 0.0, 8.0])
        report = objective_loo_mse(data, raw, 0.7)
        np.testing.assert_allclose(report.index_values, x[:, 1:] @ (raw / 10.0), atol=1e-14)


def two_block_data(n, seed):
    """Two functional blocks, one without a constant column, and a scalar covariate."""
    rng = np.random.default_rng(seed)
    first = FunctionalBlock(FourierBasis(5), rng.normal(size=(n, 5)))
    second = FunctionalBlock(FourierBasis(3, include_constant=False),
                             rng.uniform(-1.0, 1.0, size=(n, 3)))
    return Dataset(blocks=(first, second), y=rng.normal(size=n), w=rng.normal(size=n))


class TestStackedObjective:
    def test_matches_safe_objective_at_every_guard(self):
        data = two_block_data(40, seed=13)
        # three samples (below MIN_SAMPLES) and two subset sizes
        subsets = [np.arange(3), np.arange(30), np.arange(39, 9, -1), np.arange(9, 40)]
        datasets = [data.subset(indices) for indices in subsets]
        rng = np.random.default_rng(14)
        points = rng.normal(size=(12, data.search_dimension()))
        points[2, :-1] = 0.0  # zero functional norm, nonzero alpha
        which = np.arange(12) % 4
        # every sample excluded, about half excluded, a few excluded
        for h in (1e-6, 0.05, 0.5):
            got = StackedObjective(data, subsets, h)(which, points)
            expected = [safe_objective(datasets[k], p, h) for k, p in zip(which, points)]
            assert got.tolist() == expected
            assert np.isinf(got[which == 0]).all() and np.isinf(got[2])
        counts = [objective_loo_mse(datasets[k], points[i], 0.5).excluded_count
                  for i, k in enumerate(which) if k and i != 2]
        assert 0 < max(counts)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            StackedObjective(two_block_data(10, seed=15), [np.arange(10)], 0.0)
