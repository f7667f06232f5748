"""Tests for bandwidth selection: GCV, k-fold CV, grid handling, rescale."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsim.bandwidth as bw
from fsim import locfit
from fsim.basis import FourierBasis
from fsim.locfit import EstimationError, SingularFitError, local_quad_fit, smoother_matrix
from fsim.model import (
    Dataset,
    DegenerateObjectiveError,
    FunctionalBlock,
    compute_index,
    objective_loo_mse,
    spec_from_raw,
)
from fsim.optimize import InitStrategy, init_equal, init_random, minimize, minimize_lockstep


def single_block_data(coeffs, y):
    basis = FourierBasis(coeffs.shape[1], include_constant=True)
    return Dataset(blocks=(FunctionalBlock(basis, coeffs),), y=np.asarray(y, float))


def linear_dataset(n, noise_sd, seed, dim=4):
    # uniform coefficient draws keep the index range compact, so moderate
    # bandwidths never leave tail points without window neighbours
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.6, 0.6, size=(n, dim))
    truth = np.zeros(dim - 1)
    truth[0] = 1.0
    y = x[:, 1:] @ truth + noise_sd * rng.normal(size=n)
    return single_block_data(x, y), truth


class TestBandwidthGrid:
    def test_default_grid_shape_and_order(self):
        grid = bw.BandwidthGrid.default(100, 0.5)
        assert grid.values.size == 10
        assert np.all(np.diff(grid.values) > 0.0)
        assert grid.values[0] == pytest.approx(0.5 * 100 ** (-1 / 6) * 0.5)
        assert grid.values[-1] == pytest.approx(2.0 * 100 ** (-1 / 8) * 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            bw.BandwidthGrid(np.array([0.2, 0.1]))
        with pytest.raises(ValueError):
            bw.BandwidthGrid(np.array([-0.1, 0.2]))
        with pytest.raises(ValueError):
            bw.BandwidthGrid(np.array([]))

    def test_reference_is_mean(self):
        grid = bw.BandwidthGrid(np.array([0.1, 0.2, 0.6]))
        assert grid.reference == pytest.approx(0.3)


class TestArgminPreferLarger:
    def test_interior_argmin(self):
        # scores decreasing then increasing pick the interior minimum
        assert bw.argmin_prefer_larger([5.0, 2.0, 1.0, 3.0, 9.0]) == 2

    def test_ties_resolve_to_larger_bandwidth(self):
        assert bw.argmin_prefer_larger([4.0, 1.0, 1.0, 2.0]) == 2

    def test_infinities_skipped(self):
        assert bw.argmin_prefer_larger([np.inf, 3.0, np.inf]) == 1

    def test_all_failures(self):
        with pytest.raises(bw.SelectionError):
            bw.argmin_prefer_larger([np.inf, np.inf])


class TestCurvatureBandwidth:
    def test_reference_value(self):
        assert bw.curvature_bandwidth(0.5, 1.0) == pytest.approx(0.5 ** (5 / 7), abs=1e-12)
        assert bw.curvature_bandwidth(0.5, 1.0) == pytest.approx(0.6095068, abs=1e-6)

    def test_monotone_in_h(self):
        values = [bw.curvature_bandwidth(h, 0.4) for h in (0.05, 0.1, 0.2, 0.3)]
        assert values == sorted(values)

    def test_unit_scaling_coherence(self):
        # expressing h in index-scale units and mapping back is scale-equivariant
        h, sigma = 0.17, 0.42
        assert bw.curvature_bandwidth(h, sigma) == pytest.approx(
            sigma * bw.curvature_bandwidth(h / sigma, 1.0), rel=1e-12
        )

    def test_grows_below_scale_shrinks_above(self):
        assert bw.curvature_bandwidth(0.2, 0.5) > 0.2
        assert bw.curvature_bandwidth(1.0, 0.5) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bw.curvature_bandwidth(-0.1, 1.0)
        with pytest.raises(ValueError):
            bw.curvature_bandwidth(0.1, 0.0)


class TestGcvScore:
    def test_noiseless_quadratic_scores_zero(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.6, 0.6, size=(25, 4))
        truth = np.array([1.0, 0.0, 0.0])
        z = x[:, 1:] @ truth
        data = single_block_data(x, 1.0 + 2.0 * z - 3.0 * z * z)
        spec = spec_from_raw(data, truth, 1.0)
        assert bw.gcv_score(data, spec, 0.8) == pytest.approx(0.0, abs=1e-20)

    def test_matrix_assembly_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.6, 0.6, size=(20, 4))
        y = np.exp(-x[:, 1]) + 0.1 * rng.normal(size=20)
        data = single_block_data(x, y)
        raw = np.array([1.0, 0.3, -0.2])
        spec = spec_from_raw(data, raw, 0.6)
        h = 0.7
        z = compute_index(data, spec)
        smoother = np.stack([local_quad_fit(z, y, u, h).smoother_row_0 for u in z])
        residual = y - smoother @ y
        oracle = (np.mean(residual**2)) / ((20 - np.trace(smoother)) / 20) ** 2
        assert bw.gcv_score(data, spec, h) == pytest.approx(oracle, abs=1e-10)

    def test_matches_smoother_matrix_beyond_one_tile(self):
        data, truth = linear_dataset(300, 0.1, seed=7)
        spec = spec_from_raw(data, truth, 1.0)
        h = 0.15
        smoother = smoother_matrix(compute_index(data, spec), h)
        residual = data.y - smoother @ data.y
        oracle = np.mean(residual**2) / ((300 - np.trace(smoother)) / 300) ** 2
        assert bw.gcv_score(data, spec, h) == pytest.approx(oracle, rel=1e-12)

    def test_unusable_row_raises_like_smoother_matrix(self):
        data, truth = linear_dataset(300, 0.1, seed=8)
        spec = spec_from_raw(data, truth, 1.0)
        with pytest.raises(SingularFitError) as expected:
            smoother_matrix(compute_index(data, spec), 0.015)
        with pytest.raises(SingularFitError) as got:
            bw.gcv_score(data, spec, 0.015)
        assert got.value.row == expected.value.row == 89
        assert str(got.value) == str(expected.value)

    def test_interpolating_smoother_raises(self, monkeypatch):
        rng = np.random.default_rng(2)
        data, truth = linear_dataset(10, 0.1, seed=3)
        spec = spec_from_raw(data, truth, 1.0)
        # the smoother S = I: fitted values are the responses, the diagonal is all ones
        monkeypatch.setattr(bw, "level_fits", lambda z, y, h: (np.array(y), np.ones(10)))
        with pytest.raises(bw.SelectionError):
            bw.gcv_score(data, spec, 0.5)


class TestKFold:
    def test_constant_responses_score_zero(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-0.6, 0.6, size=(40, 4))
        data = single_block_data(x, np.full(40, 1.5))
        score = bw.kfold_score(data, init_equal(3), h=0.8, folds=5, seed=0, budget=0)
        assert score == pytest.approx(0.0, abs=1e-28)

    def test_same_seed_same_score(self):
        data, _ = linear_dataset(50, 0.2, seed=5)
        a = bw.kfold_score(data, init_equal(3), h=0.5, folds=5, seed=9, budget=60)
        b = bw.kfold_score(data, init_equal(3), h=0.5, folds=5, seed=9, budget=60)
        assert a == b

    def test_needs_enough_samples(self):
        data, _ = linear_dataset(12, 0.1, seed=6)
        with pytest.raises(bw.SelectionError):
            bw.kfold_score(data, init_equal(3), 0.5, folds=13)
        with pytest.raises(ValueError):
            bw.kfold_score(data, init_equal(3), 0.5, folds=1)

    def test_training_fold_too_small_for_the_objective_is_typed(self):
        # two folds of five samples leave training sets of two and three
        data, _ = linear_dataset(5, 0.1, seed=6)
        with pytest.raises(DegenerateObjectiveError):
            bw.kfold_score(data, init_equal(3), 0.5, folds=2)

    def test_leave_one_out_matches_objective_without_refitting(self):
        # with a zero search budget every fold keeps the shared start vector,
        # and n folds reduce to the leave-one-out objective
        data, _ = linear_dataset(12, 0.3, seed=7, dim=4)
        init = init_equal(3)
        h = 1.0
        score = bw.kfold_score(data, init, h, folds=12, seed=1, budget=0)
        report = objective_loo_mse(data, init, h)
        assert report.excluded_count == 0
        assert score == pytest.approx(report.mse, abs=1e-12)


def serial_searches(data, subsets, init, h, budget=None):
    """One :func:`minimize` per training set: the oracle of the lockstep searches."""
    return [minimize(data.subset(indices), init, h, budget) for indices in subsets]


def training_indices(data, folds, seed):
    return [np.setdiff1d(np.arange(data.n), held_out)
            for held_out in bw._fold_assignment(data.n, folds, seed)]


def result_fields(result):
    spec = result.spec
    return (spec.coefficient_vector().tobytes(), spec.bandwidth, spec.alpha, result.final_mse,
            result.iterations, result.converged, result.evaluations, result.trace,
            result.init_used)


def scalar_dataset(n, seed):
    """Two functional blocks and a scalar covariate."""
    rng = np.random.default_rng(seed)
    first = FunctionalBlock(FourierBasis(4), rng.uniform(-0.6, 0.6, size=(n, 4)))
    second = FunctionalBlock(FourierBasis(2, include_constant=False),
                             rng.uniform(-0.6, 0.6, size=(n, 2)))
    w = rng.uniform(-0.6, 0.6, size=n)
    y = np.sin(2.0 * first.coeffs[:, 1] + w) + 0.1 * rng.normal(size=n)
    return Dataset(blocks=(first, second), y=y, w=w)


# searches on subsets of several sizes for the batch-independence property
POOL_DATA = linear_dataset(60, 0.2, seed=30)[0]
POOL_SUBSETS = [np.sort(np.random.default_rng(31 + k).choice(60, size, replace=False))
                for k, size in enumerate((20, 21, 21, 35, 48))]


class TestLockstepFolds:
    @staticmethod
    def assert_serial(monkeypatch, data, init, h, folds, seed, budget):
        """Fold results and the score equal those of one minimize per fold, bit for bit."""
        trains = training_indices(data, folds, seed)
        lockstep = minimize_lockstep(data, trains, init, h, budget)
        serial = serial_searches(data, trains, init, h, budget)
        assert [result_fields(r) for r in lockstep] == [result_fields(r) for r in serial]
        score = bw.kfold_score(data, init, h, folds, seed, budget)
        with monkeypatch.context() as patch:
            patch.setattr(bw, "minimize_lockstep", serial_searches)
            assert bw.kfold_score(data, init, h, folds, seed, budget) == score
        return score

    # 60 samples leave five training sets of 48; 53 leave sets of 42 and 43;
    # h = 0.08 excludes samples; budget 4 is below dim + 2 = 5
    @pytest.mark.parametrize("n, h, budget", [(60, 0.5, 60), (53, 0.5, 60), (53, 0.08, 60),
                                              (53, 0.5, 0), (53, 0.5, 4)])
    def test_matches_serial_searches(self, monkeypatch, n, h, budget):
        data, _ = linear_dataset(n, 0.2, seed=21)
        assert np.isfinite(self.assert_serial(monkeypatch, data, init_equal(3), h, 5, 3, budget))

    def test_two_blocks_and_a_scalar_covariate(self, monkeypatch):
        data = scalar_dataset(47, seed=22)
        init = init_equal(data.search_dimension())
        self.assert_serial(monkeypatch, data, init, 0.6, 4, 1, 80)

    @pytest.mark.parametrize("n, init", [(7, init_equal(3)), (40, np.zeros(3))])
    def test_failing_search_raises_like_serial(self, monkeypatch, n, init):
        # seven samples in two folds leave a first training set of three,
        # below MIN_SAMPLES; a zero start has no coefficient norm
        data, _ = linear_dataset(n, 0.1, seed=6)
        with pytest.raises(DegenerateObjectiveError) as lockstep:
            bw.kfold_score(data, init, 0.5, folds=2)
        monkeypatch.setattr(bw, "minimize_lockstep", serial_searches)
        with pytest.raises(DegenerateObjectiveError) as serial:
            bw.kfold_score(data, init, 0.5, folds=2)
        assert str(lockstep.value) == str(serial.value)

    def test_problems_above_one_tile(self, monkeypatch):
        # 300 samples in ten folds leave training sets of 270 > ONE_TILE_MAX
        data, _ = linear_dataset(300, 0.2, seed=23)
        assert min(t.size for t in training_indices(data, 10, 1)) > locfit.ONE_TILE_MAX
        self.assert_serial(monkeypatch, data, init_equal(3), 0.3, 10, 1, 12)

    # 16: every training set of 48 takes the tiled walk; 50 and 100 stack one
    # and four of them per dense tile
    @pytest.mark.parametrize("one_tile_max", [16, 50, 100])
    def test_with_a_smaller_one_tile_cap(self, monkeypatch, one_tile_max):
        monkeypatch.setattr(locfit, "ONE_TILE_MAX", one_tile_max)
        data, _ = linear_dataset(60, 0.2, seed=24)
        self.assert_serial(monkeypatch, data, init_equal(3), 0.3, 5, 2, 40)

    @settings(max_examples=20, deadline=None)
    @given(picks=st.lists(st.integers(0, len(POOL_SUBSETS) - 1), min_size=1, max_size=6),
           h=st.sampled_from([0.1, 0.5]), budget=st.sampled_from([0, 4, 15, 40]))
    def test_result_does_not_depend_on_the_batch(self, picks, h, budget):
        subsets = [POOL_SUBSETS[k] for k in picks]
        together = minimize_lockstep(POOL_DATA, subsets, init_equal(3), h, budget)
        for indices, result in zip(subsets, together):
            alone = minimize(POOL_DATA.subset(indices), init_equal(3), h, budget)
            assert result_fields(result) == result_fields(alone)


class TestFitPipeline:
    def test_grid_anchored_at_the_start_index_scale(self):
        data, truth = linear_dataset(40, 0.2, seed=14)

        def grid_at(raw):
            sigma = float(np.std(compute_index(data, spec_from_raw(data, raw, 1.0))))
            return bw.BandwidthGrid.default(40, sigma, 3).values

        # the random strategy has no single start and anchors at the all-equal vector
        cases = [
            (InitStrategy(kind="true", true_coeffs=truth), truth),
            (InitStrategy(kind="equal"), init_equal(3)),
            (InitStrategy(kind="random", candidate_count=10, keep_best=2, seed=1), init_equal(3)),
        ]
        for strategy, anchor in cases:
            report = bw.fit_pipeline(data, strategy, 3, "gcv", 5, 0, 40)
            np.testing.assert_array_equal(report.grid.values, grid_at(anchor))

    # too few samples for the objective, fewer samples than folds, and
    # training folds too small for the objective (n=5 in two folds)
    @pytest.mark.parametrize("n, method, folds", [(3, "gcv", 10), (9, "kfold", 10),
                                                  (5, "kfold", 2)])
    def test_too_few_samples_raise_estimation_error(self, n, method, folds):
        data, _ = linear_dataset(n, 0.1, seed=16)
        for kind in ("equal", "random"):
            strategy = InitStrategy(kind=kind, candidate_count=5, keep_best=2, seed=0)
            with pytest.raises(EstimationError):
                bw.fit_pipeline(data, strategy, 3, method, folds, 0, 40)

    def test_constant_reference_index_raises_selection_error(self):
        rng = np.random.default_rng(15)
        x = np.zeros((30, 4))
        x[:, 0] = rng.normal(size=30)
        data = single_block_data(x, rng.normal(size=30))
        with pytest.raises(bw.SelectionError, match="reference index is constant"):
            bw.fit_pipeline(data, InitStrategy(kind="equal"), 3, "gcv", 5, 0, 40)


class TestSelectBandwidth:
    def test_single_element_grid(self):
        data, truth = linear_dataset(60, 0.1, seed=8)
        grid = bw.BandwidthGrid(np.array([0.4]))
        report = bw.select_bandwidth(
            data, InitStrategy(kind="true", true_coeffs=truth), grid, budget=100
        )
        assert report.chosen_h == pytest.approx(0.4)
        assert report.scores.size == 1

    def test_chosen_h_minimizes_scores_with_larger_h_ties(self):
        data, truth = linear_dataset(80, 0.2, seed=9)
        sigma = float(np.std(compute_index(data, spec_from_raw(data, truth, 1.0))))
        grid = bw.BandwidthGrid.default(80, sigma, count=6)
        report = bw.select_bandwidth(
            data, InitStrategy(kind="true", true_coeffs=truth), grid, budget=80
        )
        finite = np.isfinite(report.scores)
        assert finite.any()
        minimum = report.scores[finite].min()
        winners = report.grid.values[report.scores == minimum]
        assert report.chosen_h == pytest.approx(winners.max())
        assert report.chosen_h_curvature == pytest.approx(
            bw.curvature_bandwidth(report.chosen_h, report.sigma_index)
        )

    def test_deterministic(self):
        data, truth = linear_dataset(60, 0.2, seed=10)
        grid = bw.BandwidthGrid(np.array([0.3, 0.5, 0.8]))
        strategy = InitStrategy(kind="random", candidate_count=30, keep_best=3, seed=2)
        first = bw.select_bandwidth(data, strategy, grid, budget=80, seed=4)
        second = bw.select_bandwidth(data, strategy, grid, budget=80, seed=4)
        np.testing.assert_array_equal(first.scores, second.scores)
        assert first.chosen_h == second.chosen_h
        np.testing.assert_array_equal(
            first.best_fit.spec.coefficient_vector(),
            second.best_fit.spec.coefficient_vector(),
        )

    @pytest.mark.parametrize("method", ["gcv", "kfold"])
    def test_random_search_starts_from_the_best_candidate_at_each_h(self, monkeypatch, method):
        data, _ = linear_dataset(60, 0.2, seed=10)
        grid = bw.BandwidthGrid(np.array([0.08, 0.3, 1.2]))
        strategy = InitStrategy(kind="random", candidate_count=30, keep_best=5, seed=2)
        pool = init_random(data, grid.reference, strategy)
        starts = []

        def spy(train, init, h, *args):
            starts.append((float(h), np.array(init)))
            return minimize(train, init, h, *args)

        def spy_lockstep(data, trains, init, h, *args):
            starts.append((float(h), np.array(init)))
            return minimize_lockstep(data, trains, init, h, *args)

        # gcv searches through minimize; k-fold runs its fold searches in lockstep
        monkeypatch.setattr(bw, "minimize", spy)
        monkeypatch.setattr(bw, "minimize_lockstep", spy_lockstep)
        bw.select_bandwidth(data, strategy, grid, method=method, folds=3, budget=20)
        for h, init in starts:
            np.testing.assert_array_equal(init, bw.choose_random_start(data, h, pool)[0])
        assert {h for h, _ in starts} == set(grid.values.tolist())
        assert len({init.tobytes() for _, init in starts}) > 1

    def test_kfold_refits_from_the_start_its_bandwidth_scored(self, monkeypatch):
        data, _ = linear_dataset(60, 0.2, seed=10)
        grid = bw.BandwidthGrid(np.array([0.08, 0.3, 1.2]))
        strategy = InitStrategy(kind="random", candidate_count=30, keep_best=5, seed=2)
        chooser = bw.choose_random_start
        scored = []

        def spy(data, h, pool):
            scored.append(float(h))
            return chooser(data, h, pool)

        monkeypatch.setattr(bw, "choose_random_start", spy)
        report = bw.select_bandwidth(data, strategy, grid, method="kfold", folds=3, budget=20)
        assert scored == grid.values.tolist()
        # the final fit is the one a fresh pick at the chosen bandwidth gives
        pool = init_random(data, grid.reference, strategy)
        init, label = chooser(data, report.chosen_h, pool)
        refit = minimize(data, init, report.chosen_h, 20, None, label)
        assert result_fields(report.best_fit) == result_fields(refit)

    def test_kfold_method_runs_and_scores_finite(self):
        data, truth = linear_dataset(60, 0.2, seed=11)
        grid = bw.BandwidthGrid(np.array([0.4, 0.8]))
        report = bw.select_bandwidth(
            data, InitStrategy(kind="true", true_coeffs=truth), grid,
            method="kfold", folds=5, seed=3, budget=40,
        )
        assert np.all(np.isfinite(report.scores))
        assert report.method == "kfold"

    def test_all_failures_raise_selection_error(self):
        data, truth = linear_dataset(20, 0.1, seed=12)
        grid = bw.BandwidthGrid(np.array([1e-7, 2e-7]))
        with pytest.raises(bw.SelectionError):
            bw.select_bandwidth(data, InitStrategy(kind="true", true_coeffs=truth),
                                grid, budget=20)

    def test_gcv_and_kfold_both_vanish_on_noiseless_data(self):
        # Nadaraya-Watson held-out prediction is only bias-free where the
        # regression function is locally constant, so the shared zero floor
        # is checked on constant responses
        rng = np.random.default_rng(13)
        x = rng.uniform(-0.6, 0.6, size=(60, 4))
        truth = np.array([1.0, 0.0, 0.0])
        data = single_block_data(x, np.full(60, 2.5))
        spec = spec_from_raw(data, truth, 1.0)
        assert bw.gcv_score(data, spec, 0.9) <= 1e-6
        assert bw.kfold_score(data, truth, 0.9, folds=10, seed=0, budget=0) <= 1e-6
