"""Tests for the index model: index computation, normalization, objective."""

import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fsim import locfit, model
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
    search_index,
    spec_from_raw,
)
from test_optimize import one_point_value


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


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["responses", "block 0 coefficients", "scalar covariate"])
    def test_non_finite_values_are_refused(self, field, bad):
        # the data enter finite or not at all: the message names the field
        # and the first row that holds a NaN or an infinity
        coeffs, y, w = np.zeros((6, 4)), np.zeros(6), np.zeros(6)
        if field == "responses":
            y[4] = bad
        elif field == "scalar covariate":
            w[4] = bad
        else:
            coeffs[4, 2] = bad
        row = " at row 4, column 2" if field.startswith("block") else " at row 4"
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}{row}$"):
            single_block_data(coeffs, y, w)


class TestComputeIndex:
    def test_aligned_unit_coefficients(self):
        beta_coeffs = np.array([0.6, 0.8, 0.0])
        x = np.zeros((2, 4))
        x[:, 1:] = beta_coeffs
        data = single_block_data(x, np.zeros(2))
        spec = IndexModelSpec(
            (BasisExpansion(FourierBasis(3, include_constant=False), beta_coeffs),),
        )
        np.testing.assert_allclose(compute_index(data, spec), [1.0, 1.0], atol=1e-15)

    def test_zero_map(self):
        rng = np.random.default_rng(2)
        data = single_block_data(rng.normal(size=(4, 4)), np.zeros(4), w=rng.normal(size=4))
        spec = IndexModelSpec(
            (BasisExpansion(FourierBasis(3, include_constant=False), np.zeros(3)),),
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
        z1 = compute_index(data, IndexModelSpec((BasisExpansion(beta_basis, c1),)))
        z2 = compute_index(data, IndexModelSpec((BasisExpansion(beta_basis, c2),)))
        z12 = compute_index(data, IndexModelSpec((BasisExpansion(beta_basis, c1 + c2),)))
        np.testing.assert_allclose(z12, z1 + z2, atol=1e-12)

    def test_block_count_mismatch(self):
        rng = np.random.default_rng(4)
        data = single_block_data(rng.normal(size=(4, 4)), np.zeros(4))
        beta_basis = FourierBasis(3, include_constant=False)
        spec = IndexModelSpec(
            (BasisExpansion(beta_basis, np.ones(3)), BasisExpansion(beta_basis, np.ones(3))),
        )
        with pytest.raises(ValueError):
            compute_index(data, spec)

    def test_scalar_mismatch_in_either_direction(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 4))
        beta = BasisExpansion(FourierBasis(3, include_constant=False), np.ones(3))
        with pytest.raises(ValueError, match="spec has a scalar coefficient"):
            compute_index(single_block_data(x, np.zeros(4)), IndexModelSpec((beta,), 0.5))
        with pytest.raises(ValueError, match="dataset has a scalar"):
            compute_index(single_block_data(x, np.zeros(4), w=np.ones(4)),
                          IndexModelSpec((beta,)))


class TestNormalizeSpec:
    """Normalization of a raw search vector by :func:`spec_from_raw`."""

    def test_rescales_coefficients(self):
        data = single_block_data(np.zeros((3, 6)), np.zeros(3))
        raw = np.zeros(5)
        raw[0] = 2.0
        spec = spec_from_raw(data, raw)
        np.testing.assert_allclose(spec.beta_blocks[0].coeffs, [1, 0, 0, 0, 0])

    def test_unit_vector_unchanged(self):
        data = single_block_data(np.zeros((3, 5)), np.zeros(3))
        raw = np.zeros(4)
        raw[1] = 1.0
        spec = spec_from_raw(data, raw)
        np.testing.assert_allclose(spec.beta_blocks[0].coeffs, raw)

    def test_zero_vector(self):
        data = single_block_data(np.zeros((3, 5)), np.zeros(3))
        with pytest.raises(NormalizationError):
            spec_from_raw(data, np.zeros(4))

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
        spec = spec_from_raw(data, raw)
        z_unit = compute_index(data, spec)
        weights_unit = smooth_kernel((z_unit[:, None] - z_unit[None, :]) / h)
        np.testing.assert_allclose(weights_raw, weights_unit, atol=1e-12)

    def test_spec_from_raw_rescales_alpha_with_functional_norm(self):
        rng = np.random.default_rng(6)
        data = single_block_data(rng.normal(size=(5, 4)), np.zeros(5), w=rng.normal(size=5))
        raw = np.array([3.0, 0.0, 4.0, 2.5])  # functional part norm 5, alpha 2.5
        spec = spec_from_raw(data, raw)
        np.testing.assert_allclose(spec.beta_blocks[0].coeffs, [0.6, 0.0, 0.8])
        assert spec.alpha == pytest.approx(0.5)


class TestCanonicalSign:
    def test_first_nonzero_positive(self):
        beta_basis = FourierBasis(3, include_constant=False)
        spec = IndexModelSpec((BasisExpansion(beta_basis, [-0.6, 0.8, 0.0]),), alpha=0.3)
        flipped = canonical_sign(spec)
        np.testing.assert_allclose(flipped.coefficient_vector(), [0.6, -0.8, 0.0])
        assert flipped.alpha == pytest.approx(-0.3)

    def test_reference_alignment(self):
        beta_basis = FourierBasis(3, include_constant=False)
        spec = IndexModelSpec((BasisExpansion(beta_basis, [0.6, -0.8, 0.0]),))
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


def two_block_data(n, seed):
    """Two functional blocks, one without a constant column, and a scalar covariate."""
    rng = np.random.default_rng(seed)
    first = FunctionalBlock(FourierBasis(5), rng.normal(size=(n, 5)))
    second = FunctionalBlock(FourierBasis(3, include_constant=False),
                             rng.uniform(-1.0, 1.0, size=(n, 3)))
    return Dataset(blocks=(first, second), y=rng.normal(size=n), w=rng.normal(size=n))


class TestStackedObjective:
    def test_matches_the_one_point_objective_at_every_guard(self):
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
            expected = [one_point_value(datasets[k], p, h) for k, p in zip(which, points)]
            assert got.tolist() == expected
            assert np.isinf(got[which == 0]).all() and np.isinf(got[2])
        counts = [objective_loo_mse(datasets[k], points[i], 0.5).excluded_count
                  for i, k in enumerate(which) if k and i != 2]
        assert 0 < max(counts)

    def test_one_bandwidth_per_subset(self):
        data = two_block_data(40, seed=16)
        # one subset twice, at two bandwidths; rows of one stack keep
        # different sample counts
        subsets = [np.arange(30), np.arange(30), np.arange(39, 9, -1), np.arange(9, 40)]
        hs = np.array([0.5, 0.05, 0.1, 1e-6])
        datasets = [data.subset(indices) for indices in subsets]
        rng = np.random.default_rng(17)
        points = rng.normal(size=(16, data.search_dimension()))
        which = np.arange(16) % 4
        got = StackedObjective(data, subsets, hs)(which, points)
        expected = [one_point_value(datasets[k], p, hs[k]) for k, p in zip(which, points)]
        assert got.tolist() == expected
        kept = {objective_loo_mse(datasets[k], points[i], hs[k]).excluded_count
                for i, k in enumerate(which) if k in (1, 2)}
        assert len(kept) > 2

    @pytest.mark.parametrize("full", [False, True], ids=["folds", "full-data"])
    def test_stacks_span_several_kernel_chunks(self, monkeypatch, full):
        # 95 samples in 10 folds train on 85 and 86 samples, kept on dense
        # stacks here; a step of 20 points of each size spans several stacks
        # of stack_size training sets (9 of 85, 8 of 86), and on the full
        # data a step of 40 points spans stacks of 7; each stack is one
        # objective_loo_mse call, whose kernel sums are one nw_loo_all call,
        # and only training sets pass sample rows
        monkeypatch.setattr(locfit, "ONE_TILE_MAX", 100)
        data = two_block_data(95, seed=18)
        folds = np.array_split(np.random.default_rng(19).permutation(95), 10)
        subsets = None if full else [np.setdiff1d(np.arange(95), fold) for fold in folds]
        parts = [data] * 10 if full else [data.subset(indices) for indices in subsets]
        rng = np.random.default_rng(20)
        points = rng.normal(size=(40, data.search_dimension()))
        which = np.arange(40) % 10
        hs = np.linspace(0.05, 0.8, 10)
        expected = [one_point_value(parts[k], p, hs[k]) for k, p in zip(which, points)]
        stacks, tiles = [], []
        objective, nw_tile = model.objective_loo_mse, locfit._nw_tile

        def stack_spy(data, points, h, samples=None):
            assert (samples is None) == full
            stacks.append((len(points), data.n if full else samples.shape[1]))
            return objective(data, points, h, samples)

        def tile_spy(points, responses):
            tiles.append(points.shape + points.shape[-1:])
            return nw_tile(points, responses)

        monkeypatch.setattr(model, "objective_loo_mse", stack_spy)
        monkeypatch.setattr(locfit, "_nw_tile", tile_spy)
        got = StackedObjective(data, subsets, hs)(which, points)
        assert got.tolist() == expected
        assert sorted(stacks) == ([(5, 95)] + [(7, 95)] * 5 if full else
                                  [(2, 85), (4, 86), (8, 86), (8, 86), (9, 85), (9, 85)])
        assert all(count <= locfit.stack_size(n) for count, n in stacks)
        assert tiles == [(count, n, n) for count, n in stacks]
        assert all(np.prod(shape) <= locfit.STACK_PAIRS for shape in tiles)

    # n = 60 runs as a dense stack and n = 150 on the batched window sums
    @pytest.mark.parametrize("n", [60, 150])
    def test_the_identity_subset_is_the_full_data_objective(self, n):
        # the gather of the identity subset reads the full-data map, so the
        # two groups agree bit for bit at every guard, and with the
        # one-point objective
        data = property_data(n)
        rng = np.random.default_rng(40)
        points = rng.normal(size=(24, data.search_dimension()))
        points *= 10.0 ** rng.uniform(-3.0, 3.0, size=(24, 1))
        points[3, :-1] = 0.0  # zero functional norm, nonzero alpha
        points[5, 0] = 1e160  # a norm whose square overflows
        hs = np.array([1e-7, 0.02, 0.1, 0.5, 3.0])
        which = np.arange(24) % hs.size
        full = StackedObjective(data, None, hs)(which, points)
        got = StackedObjective(data, [np.arange(n)] * hs.size, hs)(which, points)
        assert got.tobytes() == full.tobytes()
        expected = np.array([one_point_value(data, p, hs[k]) for k, p in zip(which, points)])
        assert full.tobytes() == expected.tobytes()
        assert np.isinf(got[which == 0]).all() and np.isfinite(got[which == 4]).all()
        # a scalar bandwidth is one search
        one_h = np.array([one_point_value(data, p, 0.5) for p in points])
        assert StackedObjective(data, None, 0.5)(np.zeros(24, dtype=int), points).tobytes() \
            == one_h.tobytes()

    @pytest.mark.parametrize("n", [60, 150])
    def test_each_row_reduces_its_own_kept_samples(self, n):
        # rows of one stack with every sample excluded, many, a few and none:
        # each is its one-point value bit for bit, the mean of its kept
        # squares summed as numpy sums the squares with the excluded zeroed
        data = property_data(n)
        raw = np.random.default_rng(41).normal(size=data.search_dimension())
        hs = np.array([1e-7, 0.01, 0.3, 3.0])
        z, norm = search_index(data, raw)
        counts, expected = [], []
        for h in hs:
            estimates, excluded = locfit.nw_loo_all(z, data.y, h * norm)
            squares = np.where(excluded, 0.0, (data.y - estimates) ** 2)
            kept = n - int(excluded.sum())
            counts.append(n - kept)
            expected.append(squares.sum() / kept if kept else np.inf)
        assert counts[0] == n and n > counts[1] > counts[2] > counts[3] == 0
        points = np.stack([raw] * hs.size)
        report = objective_loo_mse(data, points, hs)
        assert report.mse.tolist() == expected == [one_point_value(data, raw, h) for h in hs]
        assert report.excluded_count == sum(counts)
        got = StackedObjective(data, [np.arange(n)] * hs.size, hs)(np.arange(hs.size), points)
        assert got.tolist() == expected

    @pytest.mark.parametrize("n", [60, 150])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), folds=st.integers(2, 10),
           h=st.sampled_from([0.05, 0.2, 0.5, 3.0]))
    # 1.50e-14 relative at n = 60, above the fixed 1e-14 bound this test once had
    @example(seed=3628799, folds=2, h=0.05)
    # one rounding apart at n = 60 where the first-order move alone is 7e-31
    @example(seed=19184, folds=2, h=0.05)
    def test_a_subset_value_is_the_subset_objective_within_rounding(self, n, seed, folds, h):
        # a subset's index values are gathered from the full-data map, which
        # may round them differently from the subset's own map; a design of
        # 12 columns does so (4 columns do not), and the objective moves
        # within the bound those roundings give it
        data = wide_data(n)
        rng = np.random.default_rng(seed)
        subsets = [np.setdiff1d(np.arange(n), fold)
                   for fold in np.array_split(rng.permutation(n), folds)]
        points = rng.normal(size=(folds, data.search_dimension()))
        got = StackedObjective(data, subsets, h)(np.arange(folds), points)
        for value, indices, raw in zip(got, subsets, points):
            subset = data.subset(indices)
            z, norm = search_index(subset, raw)
            # a pair within rounding of the window edge may flip in or out
            gaps = np.abs(np.abs(z[:, None] - z[None, :]) / (h * norm) - 1.0)
            assume(not np.any(gaps < 1e-9))
            expected = objective_loo_mse(subset, raw, h).mse
            assert abs(value - expected) <= gather_bound(subset, raw, h)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            StackedObjective(two_block_data(10, seed=15), [np.arange(10)], 0.0)
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            StackedObjective(two_block_data(10, seed=15), None, [0.5, 0.0])

    @pytest.mark.parametrize("indices", [np.arange(-1, 49), np.arange(1, 51), [0, 1, 2, 3, 60]])
    def test_rejects_subset_indices_outside_the_data(self, indices):
        # a flat gather would read index -1 of the first row from the last
        # row's map, and index n from the next row's, giving a wrong value
        # where data.subset gives another
        data = two_block_data(50, seed=21)
        with pytest.raises(ValueError, match=r"subset 1 has sample indices outside \[0, 50\)"):
            StackedObjective(data, [np.arange(50), indices], 0.5)

    def test_sample_rows_need_one_row_per_stacked_point(self):
        data = two_block_data(20, seed=22)
        points = np.ones((2, data.search_dimension()))
        rows = np.stack([np.arange(10), np.arange(10, 20)])
        assert objective_loo_mse(data, points, 0.5, rows).mse.tolist() == [
            one_point_value(data.subset(indices), p, 0.5) for indices, p in zip(rows, points)]
        for raw, samples in [(points[0], rows[:1]), (points, rows[:1]), (points, rows[0])]:
            with pytest.raises(ValueError, match="one row of samples per search vector"):
                objective_loo_mse(data, raw, 0.5, samples)

    @pytest.mark.parametrize("h", [np.nan, np.inf, [0.5, np.nan], [np.inf, 0.5]])
    def test_rejects_non_finite_bandwidths(self, h):
        data = two_block_data(10, seed=15)
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            StackedObjective(data, [np.arange(10), np.arange(9)], h)


class TestSearchIndex:
    """One map from search vectors to index values, for one vector or a stack."""

    @staticmethod
    def hand_index(data, raw):
        # the per-block loop the serial objective ran before the one map
        z = np.zeros(data.n)
        start = 0
        for block in data.blocks:
            columns = block.nonconstant()
            z += columns @ raw[start:start + columns.shape[1]]
            start += columns.shape[1]
        if data.w is not None:
            z += float(raw[start]) * data.w
        return z, float(np.linalg.norm(raw[:start]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), stack=st.integers(1, 6),
           fraction=st.floats(0.05, 1.0), two_blocks=st.booleans())
    def test_stack_rows_are_the_map_on_each_subset(self, seed, n, stack, fraction, two_blocks):
        # each row of a stack is the one-vector map bit for bit; gathered at a
        # subset's samples it is the subset's own map within the rounding of
        # the two products, 2 dim eps times the sum of the terms' magnitudes
        rng = np.random.default_rng(seed)
        if two_blocks:
            data = two_block_data(n, seed)
        else:
            data = single_block_data(rng.normal(size=(n, 13)), rng.normal(size=n))
        size = max(1, int(fraction * n))
        samples = np.stack([rng.choice(n, size, replace=bool(rng.integers(2)))
                            for _ in range(stack)])
        raw = rng.normal(size=(stack, data.search_dimension()))
        functional = sum(data.beta_dims())
        z, norms = search_index(data, raw)
        assert z.shape == (stack, n) and norms.shape == (stack,)
        for b in range(stack):
            z_b, norm_b = search_index(data, raw[b])
            hand_z, hand_norm = self.hand_index(data, raw[b])
            assert z[b].tobytes() == z_b.tobytes() == hand_z.tobytes()
            assert norms[b] == norm_b == hand_norm == np.linalg.norm(raw[b, :functional])
            subset = data.subset(samples[b])
            magnitude = self.hand_index(absolute(subset), np.abs(raw[b]))[0]
            drift = np.abs(z[b][samples[b]] - search_index(subset, raw[b])[0])
            assert np.all(drift <= 2 * raw.shape[1] * np.finfo(float).eps * magnitude)

    def test_rejects_a_search_vector_of_the_wrong_shape(self):
        data = two_block_data(6, seed=1)
        with pytest.raises(ValueError, match="search vectors of shape"):
            search_index(data, np.ones(data.search_dimension() - 1))
        with pytest.raises(ValueError, match="search vectors of shape"):
            search_index(data, np.ones((3, data.search_dimension() + 1)))


def absolute(data):
    """``data`` with every coefficient and scalar replaced by its magnitude."""
    return Dataset(tuple(FunctionalBlock(block.basis, np.abs(block.coeffs))
                         for block in data.blocks),
                   data.y, None if data.w is None else np.abs(data.w))


@pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 0.0])
def test_objective_rejects_a_bandwidth_that_is_not_finite_and_positive(h):
    data = two_block_data(20, seed=3)
    raw = np.ones(data.search_dimension())
    with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
        objective_loo_mse(data, raw, h)


@pytest.mark.parametrize("scale", [1e155, 1e-160, 2.0**-512, np.nan])
def test_a_norm_whose_square_is_not_a_normal_double_is_refused(scale):
    # a squared norm that overflows, or is subnormal (2 * 2**-1024 is just
    # below finfo.tiny), scales the bandwidth to infinity or by a norm that
    # has lost digits; every path refuses it alike
    data = two_block_data(50, seed=3)
    raw = np.zeros(data.search_dimension())
    raw[[0, 4, -1]] = scale, -scale, 0.5
    with pytest.raises(NormalizationError, match="out of range"):
        objective_loo_mse(data, raw, 0.5)
    with pytest.raises(NormalizationError, match="out of range"):
        spec_from_raw(data, raw)
    assert one_point_value(data, raw, 0.5) == np.inf
    assert objective_loo_mse(data, np.stack([raw, raw]), 0.5).mse.tolist() == [np.inf] * 2
    stacked = StackedObjective(data, [np.arange(50), np.arange(10, 50)], 0.5)
    assert stacked([0, 1, 1], [raw, raw, np.ones(raw.size)])[:2].tolist() == [np.inf] * 2


def test_the_smallest_normal_squared_norm_is_accepted():
    data = two_block_data(50, seed=3)
    raw = np.zeros(data.search_dimension())
    raw[0] = 2.0**-511  # squared norm finfo.tiny
    report = objective_loo_mse(data, raw, 0.5)
    assert np.isfinite(report.mse)
    assert spec_from_raw(data, raw).beta_blocks[0].coeffs[0] == 1.0
    stacked = StackedObjective(data, [np.arange(50)], 0.5)
    assert stacked([0], [raw]).tolist() == [report.mse]


class TestStackedFullDataObjective:
    """A stack of search vectors scored in one call: each row is the
    one-point objective bit for bit, whatever shares its stack."""

    # n = 60 runs as a dense stack and n = 150 on the batched window sums
    @pytest.mark.parametrize("n", [60, 150])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12), data=st.data())
    def test_each_row_is_the_one_point_call(self, n, seed, count, data):
        assert 60 <= locfit.ONE_TILE_MAX < 150
        dataset = property_data(n)
        rng = np.random.default_rng(seed)
        dim = dataset.search_dimension()
        points = rng.normal(size=(count, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(count, 1))
        # zero functional norm (nonzero alpha), or a norm whose square overflows
        points[rng.random(count) < 0.15, :-1] = 0.0
        points[rng.random(count) < 0.1, 0] = 1e160
        # every sample excluded, some excluded, none
        hs = rng.choice([1e-7, 0.02, 0.1, 0.5, 3.0], size=count)
        expected = np.array([one_point_value(dataset, p, h) for p, h in zip(points, hs)])
        report = objective_loo_mse(dataset, points, hs)
        assert report.mse.tobytes() == expected.tobytes()
        counts = 0
        for p, h in zip(points, hs):
            try:
                counts += objective_loo_mse(dataset, p, h).excluded_count
            except DegenerateObjectiveError:
                counts += n
            except NormalizationError:
                pass
        assert report.excluded_count == counts and isinstance(report.excluded_count, int)
        # another order and another split into calls
        order = np.array(data.draw(st.permutations(range(count))))
        cut = data.draw(st.integers(1, count))
        parts = [objective_loo_mse(dataset, points[order[a:b]], hs[order[a:b]]).mse
                 for a, b in [(0, cut), (cut, count)] if b > a]
        assert np.concatenate(parts).tobytes() == expected[order].tobytes()
        # one bandwidth for every row
        one_h = np.array([one_point_value(dataset, p, 0.5) for p in points])
        assert objective_loo_mse(dataset, points, 0.5).mse.tobytes() == one_h.tobytes()

    @pytest.mark.parametrize("n", [30, 100])
    def test_an_empty_stack_scores_nothing(self, n):
        # on a dense stack and on the window sums
        data = two_block_data(n, seed=34)
        report = objective_loo_mse(data, np.empty((0, data.search_dimension())), np.empty(0))
        assert report.mse.shape == (0,) and report.excluded_count == 0

    def test_too_few_samples_score_infinity_in_a_stack(self):
        data = two_block_data(3, seed=33)
        points = np.ones((2, data.search_dimension()))
        report = objective_loo_mse(data, points, 0.5)
        assert report.mse.tolist() == [np.inf, np.inf] and report.excluded_count == 0
        with pytest.raises(DegenerateObjectiveError, match="at least"):
            objective_loo_mse(data, points[0], 0.5)


@functools.lru_cache(maxsize=None)
def property_data(n):
    """A two-block dataset with a scalar: at n = 60 one dense tile, and at
    n = 150 and 300 on the window sums."""
    return two_block_data(n, seed=n)


@functools.lru_cache(maxsize=None)
def wide_data(n):
    """One block of 12 nonconstant columns and a scalar, as wide as the
    product needs to round a row by its position."""
    rng = np.random.default_rng(n)
    return single_block_data(rng.normal(size=(n, 13)), rng.normal(size=n), w=rng.normal(size=n))


def gather_bound(subset, raw, h):
    """How far the leave-one-out objective of ``subset`` at ``raw`` may move
    when its index values are gathered from the full-data map instead of
    mapped on the subset: to first order in the index, plus the rounding of
    the objective's own sums, which any changed bit may round the other way.

    Each map puts index value i within eps times the sum of its terms'
    magnitudes of the exact one (:func:`fsim.model.search_index`), so the
    two maps differ by twice that, over the bandwidth h * norm on the
    scaled index.  A pair's weight (1 - s^2)^4 moves by at most its slope
    8 |s| (1 - s^2)^3 times the moves of its two values, and an estimate by
    its weights' moves times |y_j - estimate| over its weight sum.  A sum
    of at most m terms rounds within m eps / 2 of the sum of their
    magnitudes, on each side: that moves an estimate by up to m eps times
    (sum w |y| / sum w + |estimate|), and the mean of squares by up to
    m eps times itself.  The mean of squares moves by twice each residual
    times its estimate's move, plus that rounding.
    """
    z, norm = search_index(subset, raw)
    terms = np.zeros(subset.n)
    start = 0
    for columns in subset.search_columns:
        stop = start + columns.shape[-1]
        terms += np.abs(columns) @ np.abs(raw[start:stop])
        start = stop
    if subset.w is not None:
        terms += np.abs(raw[start] * subset.w)
    eps = np.finfo(float).eps
    moves = 2.0 * eps * terms / (h * norm)
    s = z / (h * norm)
    x = s[None, :] - s[:, None]
    base = np.where(np.abs(x) < 1.0, 1.0 - x * x, 0.0)
    np.fill_diagonal(base, 0.0)
    weights = base**4
    weight_moves = 8.0 * np.abs(x) * base**3 * (moves[:, None] + moves[None, :])
    den = weights.sum(axis=1)
    kept = den > 0.0
    y = subset.y
    estimates = weights[kept] @ y / den[kept]
    rounding = subset.n * eps
    estimate_moves = ((weight_moves[kept] * np.abs(y - estimates[:, None])).sum(axis=1)
                      + rounding * (weights[kept] @ np.abs(y) + np.abs(estimates) * den[kept])
                      ) / den[kept]
    residuals = np.abs(y[kept] - estimates)
    return (2.0 * residuals @ estimate_moves + rounding * residuals @ residuals) / kept.sum()


PROPERTY_SIZES = pytest.mark.parametrize("n", [60, 300])


class TestEstimatorProperties:
    @PROPERTY_SIZES
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.floats(0.1, 3.0),
           exponent=st.floats(-100.0, 100.0), negative=st.booleans())
    def test_objective_is_invariant_to_coefficient_scale_and_sign(self, n, seed, h, exponent,
                                                                 negative):
        data = property_data(n)
        raw = np.random.default_rng(seed).normal(size=data.search_dimension())
        lam = (-1.0 if negative else 1.0) * 10.0**exponent
        z, norm = search_index(data, raw)
        # a pair within rounding of the window edge may flip in or out
        gaps = np.abs(np.abs(z[:, None] - z[None, :]) / (h * norm) - 1.0)
        assume(not np.any(gaps < 1e-9))
        try:
            base = objective_loo_mse(data, raw, h)
        except DegenerateObjectiveError:
            with pytest.raises(DegenerateObjectiveError):
                objective_loo_mse(data, lam * raw, h)
            return
        scaled = objective_loo_mse(data, lam * raw, h)
        assert scaled.excluded_count == base.excluded_count
        assert scaled.mse == pytest.approx(base.mse, rel=1e-9, abs=1e-15)

    @PROPERTY_SIZES
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.floats(0.1, 3.0),
           power=st.integers(-300, 300), factor=st.floats(1e-3, 1e3))
    def test_loo_estimates_are_equivariant_under_rescaling(self, n, seed, h, power, factor):
        # (z, h) -> (lam z, lam h) leaves every kernel argument as it is when
        # lam is a power of two, and moves it by rounding otherwise
        data = property_data(n)
        raw = np.random.default_rng(seed).normal(size=data.search_dimension())
        z = search_index(data, raw)[0]
        base = locfit.nw_loo_all(z, data.y, h)
        exact = locfit.nw_loo_all(2.0**power * z, data.y, 2.0**power * h)
        for got, expected in zip(exact, base):
            assert got.tobytes() == expected.tobytes()
        gaps = np.abs(np.abs(z[:, None] - z[None, :]) / h - 1.0)
        assume(not np.any(gaps < 1e-9))
        estimates, excluded = locfit.nw_loo_all(factor * z, data.y, factor * h)
        np.testing.assert_array_equal(excluded, base[1])
        np.testing.assert_allclose(estimates, base[0], rtol=1e-9,
                                   atol=1e-12 * np.abs(data.y).max())

    @PROPERTY_SIZES
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.floats(0.1, 3.0), ties=st.booleans())
    def test_permuting_samples_permutes_loo_estimates(self, n, seed, h, ties):
        # the sums may run in another order: ties in the index swap places
        data = property_data(n)
        rng = np.random.default_rng(seed)
        z = search_index(data, rng.normal(size=data.search_dimension()))[0]
        if ties:
            z = np.round(z, 1)
        perm = rng.permutation(n)
        estimates, excluded = locfit.nw_loo_all(z, data.y, h)
        permuted, permuted_excluded = locfit.nw_loo_all(z[perm], data.y[perm], h)
        np.testing.assert_array_equal(permuted_excluded, excluded[perm])
        np.testing.assert_allclose(permuted, estimates[perm], rtol=1e-12,
                                   atol=1e-12 * np.abs(data.y).max())
