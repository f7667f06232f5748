"""Tests for bandwidth selection: GCV, k-fold CV, grid handling, rescale."""

import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsim.bandwidth as bw
from fsim import locfit, optimize
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
from fsim.optimize import (
    InitStrategy,
    init_equal,
    init_linear,
    init_random,
    minimize,
    minimize_each,
    resolve_init,
)
from fsim.simulate import ExperimentConfig, SimScenario, generate, run_experiment
from test_optimize import (  # noqa: F401
    no_child_left, one_point_value, result_fields, serial_nelder_mead, use_cpus)
from test_locfit import assert_fits_match, pointwise_fits


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

    @pytest.mark.parametrize("values", [[np.nan, 1.0], [0.5, np.inf], [0.5, np.nan, 1.0]])
    def test_rejects_non_finite_values(self, values):
        with pytest.raises(ValueError, match="grid values must be positive and finite"):
            bw.BandwidthGrid(np.array(values))

    @pytest.mark.parametrize("sigma_z", [np.nan, np.inf, 0.0, -1.0])
    def test_default_rejects_a_bad_index_scale(self, sigma_z):
        with pytest.raises(ValueError, match="index scale must be positive and finite"):
            bw.BandwidthGrid.default(100, sigma_z)

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
        for h, sigma in [(np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan), (0.1, np.inf)]:
            with pytest.raises(ValueError, match="must be positive and finite"):
                bw.curvature_bandwidth(h, sigma)


class TestGcvScore:
    def test_noiseless_quadratic_scores_zero(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.6, 0.6, size=(25, 4))
        truth = np.array([1.0, 0.0, 0.0])
        z = x[:, 1:] @ truth
        data = single_block_data(x, 1.0 + 2.0 * z - 3.0 * z * z)
        spec = spec_from_raw(data, truth)
        assert bw.gcv_score(data, spec, 0.8) == pytest.approx(0.0, abs=1e-20)

    def test_matrix_assembly_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.6, 0.6, size=(20, 4))
        y = np.exp(-x[:, 1]) + 0.1 * rng.normal(size=20)
        data = single_block_data(x, y)
        raw = np.array([1.0, 0.3, -0.2])
        spec = spec_from_raw(data, raw)
        h = 0.7
        z = compute_index(data, spec)
        smoother = np.stack([local_quad_fit(z, y, u, h).smoother_row_0 for u in z])
        residual = y - smoother @ y
        oracle = (np.mean(residual**2)) / ((20 - np.trace(smoother)) / 20) ** 2
        assert bw.gcv_score(data, spec, h) == pytest.approx(oracle, abs=1e-10)

    def test_matches_smoother_matrix_beyond_one_tile(self):
        data, truth = linear_dataset(300, 0.1, seed=7)
        spec = spec_from_raw(data, truth)
        h = 0.15
        smoother = smoother_matrix(compute_index(data, spec), h)
        residual = data.y - smoother @ data.y
        oracle = np.mean(residual**2) / ((300 - np.trace(smoother)) / 300) ** 2
        assert bw.gcv_score(data, spec, h) == pytest.approx(oracle, rel=1e-12)

    def test_unusable_row_raises_like_smoother_matrix(self):
        data, truth = linear_dataset(300, 0.1, seed=8)
        spec = spec_from_raw(data, truth)
        with pytest.raises(SingularFitError) as expected:
            smoother_matrix(compute_index(data, spec), 0.015)
        with pytest.raises(SingularFitError) as got:
            bw.gcv_score(data, spec, 0.015)
        assert got.value.row == expected.value.row == 104
        assert str(got.value) == str(expected.value)
        assert "only 2 points inside the window" in str(got.value)

    def test_a_well_conditioned_narrow_window_is_usable(self):
        # row 89 at h = 0.015 holds a window whose least relative pivot is
        # about 0.5; a guard on the raw-unit normal matrix refused it
        data, truth = linear_dataset(300, 0.1, seed=8)
        z = compute_index(data, spec_from_raw(data, truth))
        at = z[89:90]
        oracle = pointwise_fits(z, data.y, at, 0.015)
        assert np.isfinite(oracle[0]).all()
        assert_fits_match(locfit._quad_fits(z, data.y, at, 0.015)[0], oracle, 0.015)

    def test_interpolating_smoother_raises(self, monkeypatch):
        rng = np.random.default_rng(2)
        data, truth = linear_dataset(10, 0.1, seed=3)
        spec = spec_from_raw(data, truth)
        # the smoother S = I: fitted values are the responses, the diagonal is all ones
        monkeypatch.setattr(bw, "level_fits", lambda z, y, h: (np.array(y), np.ones(10)))
        with pytest.raises(bw.SelectionError):
            bw.gcv_score(data, spec, 0.5)

    @pytest.mark.parametrize("gap", [2.0**-52, 1e-9])
    def test_smoother_interpolating_within_rounding_raises(self, monkeypatch, gap):
        # leverages a rounding below one leave a trace of I - S made of
        # rounding; the exact comparison with 0 once scored it (about 1e30 * mse)
        data, truth = linear_dataset(10, 0.1, seed=3)
        spec = spec_from_raw(data, truth)
        fitted = data.y + 1e-9
        monkeypatch.setattr(bw, "level_fits", lambda z, y, h: (fitted, np.full(10, 1.0 - gap)))
        with pytest.raises(bw.SelectionError, match="trace degeneracy"):
            bw.gcv_score(data, spec, 0.5)
        monkeypatch.setattr(bw, "level_fits", lambda z, y, h: (fitted, np.full(10, 0.999)))
        assert bw.gcv_score(data, spec, 0.5) == pytest.approx(1e-18 / 1e-6)


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

    def test_held_out_score_matches_the_per_fold_subset_path(self, monkeypatch):
        # the fold specs are mapped on the full data and each fold's index
        # values gathered, which may round them differently from the
        # subset's own map (25 columns do); the score moves within rounding
        # and every fold excludes the same held-out points
        data, truth = generate(SimScenario(n=100, link="g1", seed=3))
        trains, held_outs = bw._fold_split(data.n, 10, 4)
        starts = truth.beta.coeffs + 0.1 * np.random.default_rng(5).normal(
            size=(10, data.search_dimension()))
        grid = bw.BandwidthGrid.default(data.n, float(np.std(truth.index))).values
        excluded = []
        predict = bw.nw_predict

        def spy(*args):
            outcome = predict(*args)
            excluded.append(outcome[1])
            return outcome

        monkeypatch.setattr(bw, "nw_predict", spy)
        for h in grid:
            results = minimize_each(data, starts, [h] * 10, 0, None, ["custom"] * 10, trains)
            excluded.clear()
            score = bw._held_out_score(data, (trains, held_outs), results, h)
            total, count = 0.0, 0
            for train, held_out, result, fold_excluded in zip(trains, held_outs, results,
                                                              excluded, strict=True):
                train_data, test = data.subset(train), data.subset(held_out)
                predictions, subset_excluded = predict(
                    compute_index(train_data, result.spec), train_data.y,
                    compute_index(test, result.spec), h)
                assert fold_excluded.tolist() == subset_excluded.tolist()
                residuals = (test.y - predictions)[~subset_excluded]
                total += float(residuals @ residuals)
                count += int(np.count_nonzero(~subset_excluded))
            if count == 0:
                assert isinstance(score, bw.SelectionError)
            else:
                assert abs(score - total / count) <= 4e-15 * (total / count)


def serial_searches(data, init, h, budget, sign_reference, labels, subsets=None):
    """One :func:`minimize` per search, its error where it raises: the oracle of
    :func:`minimize_each`, with one start per search or one for all."""
    hs = np.asarray(h, dtype=float).tolist()
    starts = np.broadcast_to(np.asarray(init, dtype=float), (len(hs), data.search_dimension()))
    results = []
    for k, (x0, hk, label) in enumerate(zip(starts, hs, labels)):
        part = data if subsets is None else data.subset(subsets[k])
        try:
            results.append(minimize(part, x0, hk, budget, sign_reference, label))
        except DegenerateObjectiveError as exc:
            results.append(exc)
    return results


def on_folds(search, data, trains, init, h, budget):
    """``search`` (:func:`minimize_each` or :func:`serial_searches`) on the
    training sets ``trains`` from one start at one bandwidth, as
    :func:`bw.kfold_score` calls it."""
    count = len(trains)
    return search(data, init, [h] * count, budget, None, ["custom"] * count, trains)


def training_indices(data, folds, seed):
    return [np.setdiff1d(np.arange(data.n), held_out)
            for held_out in bw._fold_assignment(data.n, folds, seed)]


def report_fields(report):
    return (report.method, report.grid.values.tobytes(), report.scores.tobytes(),
            report.chosen_h, report.chosen_h_curvature, report.sigma_index,
            result_fields(report.best_fit))


def scalar_dataset(n, seed):
    """Two functional blocks and a scalar covariate."""
    rng = np.random.default_rng(seed)
    first = FunctionalBlock(FourierBasis(4), rng.uniform(-0.6, 0.6, size=(n, 4)))
    second = FunctionalBlock(FourierBasis(2, include_constant=False),
                             rng.uniform(-0.6, 0.6, size=(n, 2)))
    w = rng.uniform(-0.6, 0.6, size=n)
    y = np.sin(2.0 * first.coeffs[:, 1] + w) + 0.1 * rng.normal(size=n)
    return Dataset(blocks=(first, second), y=y, w=w)


# searches on subsets of several sizes, from several starts (one all zero, which
# fails) at several bandwidths, for the batch-independence property
POOL_DATA = linear_dataset(60, 0.2, seed=30)[0]
POOL_SUBSETS = [np.sort(np.random.default_rng(31 + k).choice(60, size, replace=False))
                for k, size in enumerate((20, 21, 21, 35, 48))]
POOL_STARTS = [init_equal(3), np.array([1.0, 0.0, 0.0]), np.array([0.3, -1.2, 0.5]),
               np.zeros(3)]
POOL_BANDWIDTHS = [0.08, 0.1, 0.5]


class TestLockstepFolds:
    @staticmethod
    def assert_serial(monkeypatch, data, init, h, folds, seed, budget):
        """Fold results and the score equal those of one minimize per fold, bit for bit."""
        trains = training_indices(data, folds, seed)
        lockstep = on_folds(minimize_each, data, trains, init, h, budget)
        serial = on_folds(serial_searches, data, trains, init, h, budget)
        assert [result_fields(r) for r in lockstep] == [result_fields(r) for r in serial]
        score = bw.kfold_score(data, init, h, folds, seed, budget)
        with monkeypatch.context() as patch:
            patch.setattr(bw, "minimize_each", serial_searches)
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
        monkeypatch.setattr(bw, "minimize_each", serial_searches)
        with pytest.raises(DegenerateObjectiveError) as serial:
            bw.kfold_score(data, init, 0.5, folds=2)
        assert str(lockstep.value) == str(serial.value)

    def test_failed_search_leaves_its_siblings_running(self):
        # the first training set of three fails at its start; the second runs
        data, _ = linear_dataset(7, 0.1, seed=6)
        trains = training_indices(data, 2, 0)
        lockstep = on_folds(minimize_each, data, trains, init_equal(3), 0.5, 40)
        assert isinstance(lockstep[0], DegenerateObjectiveError)
        assert lockstep[1].evaluations > 1
        serial = on_folds(serial_searches, data, trains, init_equal(3), 0.5, 40)
        assert [result_fields(r) for r in lockstep] == [result_fields(r) for r in serial]

    def test_problems_above_one_tile(self, monkeypatch):
        # 300 samples in ten folds leave training sets of 270 > ONE_TILE_MAX
        data, _ = linear_dataset(300, 0.2, seed=23)
        assert min(t.size for t in training_indices(data, 10, 1)) > locfit.ONE_TILE_MAX
        self.assert_serial(monkeypatch, data, init_equal(3), 0.3, 10, 1, 12)

    # 16: every training set of 48 takes the window sums; 50 and 100 keep
    # them on dense stacks
    @pytest.mark.parametrize("one_tile_max", [16, 50, 100])
    def test_with_a_smaller_one_tile_cap(self, monkeypatch, one_tile_max):
        monkeypatch.setattr(locfit, "ONE_TILE_MAX", one_tile_max)
        data, _ = linear_dataset(60, 0.2, seed=24)
        self.assert_serial(monkeypatch, data, init_equal(3), 0.3, 5, 2, 40)

    @settings(max_examples=20, deadline=None)
    @given(picks=st.lists(st.tuples(st.integers(0, len(POOL_SUBSETS) - 1),
                                    st.integers(0, len(POOL_STARTS) - 1),
                                    st.integers(0, len(POOL_BANDWIDTHS) - 1)),
                          min_size=1, max_size=8),
           budget=st.sampled_from([0, 4, 15, 40]))
    def test_result_does_not_depend_on_the_batch(self, picks, budget):
        # other folds, other starts and other bandwidths share the lockstep
        subsets = [POOL_SUBSETS[a] for a, _, _ in picks]
        starts = np.array([POOL_STARTS[b] for _, b, _ in picks])
        hs = np.array([POOL_BANDWIDTHS[c] for _, _, c in picks])
        labels = ["custom"] * len(picks)
        together = minimize_each(POOL_DATA, starts, hs, budget, None, labels, subsets)
        for k, result in enumerate(together):
            alone = serial_searches(POOL_DATA, starts[k], hs[k:k + 1], budget, None,
                                    labels[k:k + 1], subsets[k:k + 1])
            assert result_fields(result) == result_fields(alone[0])


def grid_oracle(monkeypatch, data, strategy, grid, folds, seed, budget):
    """The k-fold report as a loop of :func:`kfold_score` over the grid, each
    fold searched by its own :func:`minimize`."""
    pool = init_random(data, grid.reference, strategy) if strategy.kind == "random" else None
    scores = np.full(grid.values.size, np.inf)
    with monkeypatch.context() as patch:
        patch.setattr(bw, "minimize_each", serial_searches)
        for k, h in enumerate(grid.values):
            try:
                init = (resolve_init(data, strategy)[0] if pool is None
                        else bw.choose_random_start(data, h, pool)[0])
                scores[k] = bw.kfold_score(data, init, h, folds, seed, budget)
            except EstimationError:
                continue
        # the same selection with every fold searched on its own
        report = bw.select_bandwidth(data, strategy, grid, "kfold", folds, seed, budget)
    np.testing.assert_array_equal(report.scores, scores)
    return report


def serial_gcv_selection(data, strategy, grid, budget, sign_reference):
    """The GCV selection as a loop over the grid: at each bandwidth the serial
    search over the one-point objective, then _opt_result, then gcv_score.  Returns the
    scores, the chosen bandwidth and the fields of the winner's fit."""
    pool = init_random(data, grid.reference, strategy) if strategy.kind == "random" else None
    scores = np.full(grid.values.size, np.inf)
    fits = {}
    for k, h in enumerate(grid.values):
        try:
            init, label = (resolve_init(data, strategy) if pool is None
                           else bw.choose_random_start(data, h, pool))
            outcome = serial_nelder_mead(lambda x: one_point_value(data, x, h),
                                         np.array(init, dtype=float), budget,
                                         optimize.SPREAD_TOL)
            fits[k] = optimize._opt_result(data, outcome, sign_reference, label)
            scores[k] = bw.gcv_score(data, fits[k].spec, h)
        except EstimationError:
            continue
    chosen = bw.argmin_prefer_larger(scores)
    return scores.tobytes(), float(grid.values[chosen]), result_fields(fits[chosen])


class TestLockstepGrid:
    """select_bandwidth runs the searches of every grid bandwidth as one lockstep:
    the fold searches for k-fold, one full-data search each for GCV."""

    STRATEGIES = [InitStrategy(kind="true", true_coeffs=np.array([1.0, 0.0, 0.0])),
                  InitStrategy(kind="linear"), InitStrategy(kind="equal"),
                  InitStrategy(kind="random", candidate_count=20, keep_best=4, seed=3)]

    def assert_grid(self, monkeypatch, data, strategy, grid, folds, seed, budget):
        report = bw.select_bandwidth(data, strategy, grid, "kfold", folds, seed, budget)
        oracle = grid_oracle(monkeypatch, data, strategy, grid, folds, seed, budget)
        assert report_fields(report) == report_fields(oracle)
        return report

    # 53 samples do not split evenly into five folds; the true start has zero
    # entries; budget 4 is below dim + 2 = 5
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.kind)
    @pytest.mark.parametrize("budget", [0, 4, 40])
    def test_reports_equal_a_loop_of_kfold_score(self, monkeypatch, strategy, budget):
        data, _ = linear_dataset(53, 0.2, seed=25)
        grid = bw.BandwidthGrid(np.array([0.08, 0.3, 0.9]))
        report = self.assert_grid(monkeypatch, data, strategy, grid, 5, 2, budget)
        assert np.isfinite(report.scores).all()

    def test_bandwidth_failing_at_its_start(self, monkeypatch):
        # at h = 1e-7 every training sample is excluded at the start
        data, truth = linear_dataset(40, 0.2, seed=26)
        grid = bw.BandwidthGrid(np.array([1e-7, 0.3, 0.9]))
        strategy = InitStrategy(kind="true", true_coeffs=truth)
        report = self.assert_grid(monkeypatch, data, strategy, grid, 4, 1, 30)
        assert np.isinf(report.scores[0]) and np.isfinite(report.scores[1:]).all()
        with pytest.raises(DegenerateObjectiveError) as lockstep:
            bw.kfold_score(data, truth, 1e-7, 4, 1, 30)
        serial = on_folds(serial_searches, data, training_indices(data, 4, 1), truth, 1e-7,
                          30)[0]
        assert isinstance(serial, DegenerateObjectiveError)
        assert str(lockstep.value) == str(serial)

    def test_random_pool_failing_at_one_bandwidth(self, monkeypatch):
        # every candidate is degenerate at h = 1e-7, so that bandwidth has no start
        data, _ = linear_dataset(40, 0.2, seed=27)
        grid = bw.BandwidthGrid(np.array([1e-7, 0.3, 0.9]))
        strategy = InitStrategy(kind="random", candidate_count=20, keep_best=4, seed=5)
        pool = init_random(data, grid.reference, strategy)
        with pytest.raises(bw.SelectionError):
            bw.choose_random_start(data, 1e-7, pool)
        report = self.assert_grid(monkeypatch, data, strategy, grid, 4, 1, 30)
        assert np.isinf(report.scores[0]) and np.isfinite(report.scores[1:]).all()

    def test_problems_above_one_tile(self, monkeypatch):
        # 300 samples in ten folds leave training sets of 270 > ONE_TILE_MAX
        data, truth = linear_dataset(300, 0.2, seed=28)
        grid = bw.BandwidthGrid(np.array([0.2, 0.5]))
        strategy = InitStrategy(kind="true", true_coeffs=truth)
        self.assert_grid(monkeypatch, data, strategy, grid, 10, 1, 8)

    @pytest.mark.parametrize("one_tile_max", [16, 50])
    def test_with_a_smaller_one_tile_cap(self, monkeypatch, one_tile_max):
        monkeypatch.setattr(locfit, "ONE_TILE_MAX", one_tile_max)
        data, _ = linear_dataset(60, 0.2, seed=29)
        grid = bw.BandwidthGrid(np.array([0.1, 0.3, 0.9]))
        self.assert_grid(monkeypatch, data, InitStrategy(kind="equal"), grid, 5, 2, 30)

    # a sign reference against the first coefficient flips every fit the
    # default rule keeps, so a dropped reference shows
    FLIP = np.array([-1.0, 0.0, 0.0])

    @classmethod
    def assert_gcv(cls, data, strategy, grid, budget):
        """The GCV report equals the serial loop's, bit for bit, at every bandwidth."""
        report = bw.select_bandwidth(data, strategy, grid, "gcv", budget=budget,
                                     sign_reference=cls.FLIP)
        expected = serial_gcv_selection(data, strategy, grid, budget, cls.FLIP)
        assert (report.scores.tobytes(), report.chosen_h, result_fields(report.best_fit)) == \
            expected
        return report

    # h = 0.08 leaves unusable rows in some smoothers, so those scores fail
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.kind)
    @pytest.mark.parametrize("budget", [0, 4, 40])
    def test_gcv_report_equals_the_serial_loop(self, strategy, budget):
        data, _ = linear_dataset(53, 0.2, seed=25)
        grid = bw.BandwidthGrid(np.array([0.08, 0.3, 0.9]))
        report = self.assert_gcv(data, strategy, grid, budget)
        assert np.isfinite(report.scores[1:]).all()

    def test_gcv_zero_start_fails_every_bandwidth(self):
        data, _ = linear_dataset(40, 0.2, seed=26)
        grid = bw.BandwidthGrid(np.array([0.3, 0.9]))
        strategy = InitStrategy(kind="true", true_coeffs=np.zeros(3))
        with pytest.raises(bw.SelectionError) as lockstep:
            bw.select_bandwidth(data, strategy, grid, "gcv", budget=30)
        with pytest.raises(bw.SelectionError) as serial:
            serial_gcv_selection(data, strategy, grid, 30, None)
        assert str(lockstep.value) == str(serial.value)

    def test_gcv_bandwidth_failing_at_its_start(self):
        # at h = 1e-7 every sample is excluded at the start
        data, truth = linear_dataset(40, 0.2, seed=26)
        grid = bw.BandwidthGrid(np.array([1e-7, 0.3, 0.9]))
        report = self.assert_gcv(data, InitStrategy(kind="true", true_coeffs=truth), grid, 30)
        assert np.isinf(report.scores[0]) and np.isfinite(report.scores[1:]).all()

    def test_gcv_random_pool_failing_at_one_bandwidth(self):
        # every candidate is degenerate at h = 1e-7, so that bandwidth has no
        # search; on a curved link an interior bandwidth wins
        rng = np.random.default_rng(27)
        x = rng.uniform(-0.6, 0.6, size=(40, 4))
        data = single_block_data(x, np.sin(5.0 * x[:, 1]) + 0.1 * rng.normal(size=40))
        grid = bw.BandwidthGrid(np.array([1e-7, 0.15, 0.3, 0.9]))
        strategy = InitStrategy(kind="random", candidate_count=20, keep_best=4, seed=5)
        report = self.assert_gcv(data, strategy, grid, 30)
        assert np.isinf(report.scores[0]) and np.isfinite(report.scores[1:]).all()
        assert report.chosen_h == 0.3

    def test_gcv_problems_above_one_tile(self):
        data, truth = linear_dataset(300, 0.2, seed=28)
        assert data.n > locfit.ONE_TILE_MAX
        grid = bw.BandwidthGrid(np.array([0.2, 0.5]))
        self.assert_gcv(data, InitStrategy(kind="true", true_coeffs=truth), grid, 40)


@pytest.mark.usefixtures("no_child_left")
class TestWorkerParts:
    """Every lockstep splits its searches across the usable CPUs (forced here
    through os.sched_getaffinity); reports and tables are the same bits on
    one, two or three parts."""

    @staticmethod
    def on_cpus(monkeypatch, compute):
        results = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            results.append(compute())
        return results

    # h = 0.08 fails some GCV scores; a random pool gives each bandwidth its start
    @pytest.mark.parametrize("method", bw.METHODS)
    @pytest.mark.parametrize("strategy", [InitStrategy(kind="equal"),
                                          InitStrategy(kind="random", candidate_count=20,
                                                       keep_best=4, seed=3)],
                             ids=lambda s: s.kind)
    def test_reports_do_not_depend_on_the_cpu_count(self, monkeypatch, method, strategy):
        data, _ = linear_dataset(53, 0.2, seed=25)
        grid = bw.BandwidthGrid(np.array([0.08, 0.2, 0.3, 0.9]))
        reports = self.on_cpus(monkeypatch, lambda: report_fields(
            bw.select_bandwidth(data, strategy, grid, method, 5, 2, 40)))
        assert reports[1] == reports[0] and reports[2] == reports[0]

    @pytest.mark.parametrize("method", bw.METHODS)
    def test_experiment_rows_do_not_depend_on_the_cpu_count(self, monkeypatch, method):
        config = ExperimentConfig(links=("g1", "g3"), sizes=(50,), strategies=("true", "random"),
                                  method=method, reps=2, seed=4, basis_dim=9, grid_size=4,
                                  folds=5, opt_budget=40, candidate_count=20, keep_best=2)
        rows = self.on_cpus(monkeypatch, lambda: json.dumps(run_experiment(config)))
        assert rows[1] == rows[0] and rows[2] == rows[0]


class TestFitPipeline:
    def test_grid_anchored_at_the_start_index_scale(self):
        data, truth = linear_dataset(40, 0.2, seed=14)

        def grid_at(raw):
            sigma = float(np.std(compute_index(data, spec_from_raw(data, raw))))
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

    @pytest.mark.parametrize("method", ["gcv", "kfold"])
    def test_deterministic_start_resolved_once(self, monkeypatch, method):
        data, _ = linear_dataset(60, 0.2, seed=17)
        strategy = InitStrategy(kind="linear")
        calls = []

        def spy(train):
            calls.append(train.n)
            return init_linear(train)

        monkeypatch.setattr(optimize, "init_linear", spy)
        report = bw.fit_pipeline(data, strategy, 3, method, 5, 0, 40)
        assert calls == [60]
        # the start handed on is the one select_bandwidth resolves itself
        alone = bw.select_bandwidth(data, strategy, report.grid, method, 5, 0, 40)
        assert calls == [60, 60]
        assert report_fields(report) == report_fields(alone)

    # too few samples for the objective, fewer samples than folds, and
    # training folds too small for the objective (n=5 in two folds)
    @pytest.mark.parametrize("n, method, folds", [(3, "gcv", 10), (9, "kfold", 10),
                                                  (5, "kfold", 2)])
    def test_too_few_samples_raise_estimation_error(self, n, method, folds):
        data, _ = linear_dataset(n, 0.1, seed=16)
        # fewer samples than folds names its cause
        match = f"k-fold needs n >= {folds}" if n < folds and method == "kfold" else None
        for kind in ("equal", "random"):
            strategy = InitStrategy(kind=kind, candidate_count=5, keep_best=2, seed=0)
            with pytest.raises(EstimationError, match=match):
                bw.fit_pipeline(data, strategy, 3, method, folds, 0, 40)

    def test_constant_reference_index_raises_selection_error(self):
        rng = np.random.default_rng(15)
        x = np.zeros((30, 4))
        x[:, 0] = rng.normal(size=30)
        data = single_block_data(x, rng.normal(size=30))
        with pytest.raises(bw.SelectionError, match="reference index is constant"):
            bw.fit_pipeline(data, InitStrategy(kind="equal"), 3, "gcv", 5, 0, 40)


def outcome_fields(outcome):
    """A pipeline outcome as comparable bits: the report's fields, or a failed
    strategy's error type and message."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return report_fields(outcome)


def pipeline_loop(data, strategies, grid_size, method, folds, seeds, budget,
                  sign_reference=None):
    """The oracle of fit_pipelines: one fit_pipeline call, and lockstep, per strategy."""
    outcomes = []
    for strategy, seed in zip(strategies, seeds):
        try:
            outcomes.append(bw.fit_pipeline(data, strategy, grid_size, method, folds, seed,
                                            budget, sign_reference))
        except EstimationError as exc:
            outcomes.append(exc)
    return [outcome_fields(o) for o in outcomes]


class TestFitPipelines:
    """fit_pipelines runs the grid searches of every strategy as one lockstep;
    each strategy's outcome is the one its own fit_pipeline call gives, bit for bit."""

    @staticmethod
    def strategies(truth=np.array([1.0, 0.0, 0.0])):
        return [InitStrategy(kind="linear"), InitStrategy(kind="equal"),
                InitStrategy(kind="random", candidate_count=20, keep_best=3,
                             seed=np.random.SeedSequence((9, 2))),
                InitStrategy(kind="true", true_coeffs=truth)]

    @classmethod
    def assert_loop(cls, data, strategies, grid_size, method, folds, budget,
                    sign_reference=None):
        # each strategy folds its own way, as fsim fit seeds them
        seeds = [np.random.SeedSequence((9, k, 1)) for k in range(len(strategies))]
        merged = bw.fit_pipelines(data, strategies, grid_size, method, folds, seeds, budget,
                                  sign_reference)
        assert [outcome_fields(o) for o in merged] == pipeline_loop(
            data, strategies, grid_size, method, folds, seeds, budget, sign_reference)
        return merged

    # budget 4 is below dim + 2 = 5; the flip reference reaches every GCV fit
    @pytest.mark.parametrize("method", bw.METHODS)
    @pytest.mark.parametrize("budget, sign_reference", [(0, None), (4, None), (40, None),
                                                        (40, TestLockstepGrid.FLIP)])
    def test_equals_a_loop_of_fit_pipeline(self, method, budget, sign_reference):
        data, _ = linear_dataset(53, 0.2, seed=25)
        merged = self.assert_loop(data, self.strategies(), 3, method, 5, budget, sign_reference)
        assert all(isinstance(o, bw.CVReport) for o in merged)

    @pytest.mark.parametrize("method", bw.METHODS)
    def test_strategy_failing_in_its_plan(self, method):
        # 12 samples in 12 search dimensions starve the least-squares start
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.6, 0.6, size=(12, 13))
        data = single_block_data(x, x[:, 1] + 0.1 * rng.normal(size=12))
        merged = self.assert_loop(data, self.strategies()[:3], 3, method, 3, 30)
        assert isinstance(merged[0], SingularFitError)
        assert isinstance(merged[1], bw.CVReport)

    def test_a_nan_covariate_is_refused_where_the_data_enter(self):
        # the linear start once met it first and raised numpy's LinAlgError,
        # an untyped crash of the whole fit
        data = scalar_dataset(40, seed=3)
        w = data.w.copy()
        w[7] = np.nan
        with pytest.raises(ValueError, match="^scalar covariate must be finite, got nan at row 7$"):
            bw.fit_pipelines(Dataset(data.blocks, data.y, w), self.strategies()[:2], 3, "gcv",
                             5, [np.random.SeedSequence(1)] * 2, 30)

    def test_gcv_strategy_failing_at_every_bandwidth(self):
        # on six samples no linear-start fit leaves a usable smoother
        data, _ = linear_dataset(6, 0.2, seed=2)
        merged = self.assert_loop(data, self.strategies(), 3, "gcv", 5, 30)
        assert isinstance(merged[0], bw.SelectionError)
        assert all(isinstance(o, bw.CVReport) for o in merged[1:])

    def test_failures_leave_no_reference_cycle(self):
        # a failure keeps its message but not the frames of the failed calls,
        # which would hold their arrays in a cycle until the collector runs
        data, _ = linear_dataset(6, 0.2, seed=2)
        gc.collect()
        gc.disable()
        try:
            merged = bw.fit_pipelines(data, self.strategies()[:1], 3, "gcv", 5,
                                      [np.random.SeedSequence(1)], 30)
            assert str(merged[0]).startswith("no grid bandwidth produced a usable score")
            assert merged[0].__traceback__ is None and merged[0].__context__ is None
            del merged
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("call", ["minimize", "fit_pipeline", "kfold_score"])
    def test_raised_failure_leaves_no_frame_in_a_cycle(self, call):
        # a raised error's traceback holds the raising frame, so a local of that
        # frame still holding the error would close a cycle only the collector frees
        data, _ = linear_dataset(5 if call == "kfold_score" else 6, 0.2, seed=2)
        failing = {"minimize": lambda: minimize(data, np.zeros(3), 0.5),
                   "fit_pipeline": lambda: bw.fit_pipeline(data, self.strategies()[0], 3, "gcv",
                                                           5, 1, 30),
                   "kfold_score": lambda: bw.kfold_score(data, np.ones(3), 0.5, 2, budget=30)}
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            with pytest.raises(EstimationError):
                failing[call]()
            gc.collect()
            frames = [o.f_code.co_name for o in gc.garbage if hasattr(o, "f_code")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert call not in frames

    def test_kfold_strategies_failing_at_every_bandwidth(self):
        # n=5 in two folds leaves training sets too small for the objective
        data, _ = linear_dataset(5, 0.2, seed=2)
        merged = self.assert_loop(data, self.strategies(), 3, "kfold", 2, 30)
        assert all(isinstance(o, bw.SelectionError) for o in merged)

    def test_too_few_samples_for_the_folds(self):
        data, _ = linear_dataset(8, 0.2, seed=2)
        merged = self.assert_loop(data, self.strategies(), 3, "kfold", 10, 30)
        assert all(str(o) == "k-fold needs n >= 10, got n=8" for o in merged)

    @pytest.mark.parametrize("method", bw.METHODS)
    def test_random_pool_failing_at_one_bandwidth(self, monkeypatch, method):
        # at 1e-7 index deviations every candidate is degenerate, so the random
        # strategy has no search there and the deterministic ones fail theirs
        def default(cls, n, sigma_z, count=10):
            return cls(sigma_z * np.array([1e-7, 0.5, 1.5]))

        monkeypatch.setattr(bw.BandwidthGrid, "default", classmethod(default))
        data, _ = linear_dataset(40, 0.2, seed=27)
        merged = self.assert_loop(data, self.strategies(), 3, method, 4, 30)
        for report in merged:
            assert np.isinf(report.scores[0]) and np.isfinite(report.scores).any()
        pool = init_random(data, merged[2].grid.reference, self.strategies()[2])
        with pytest.raises(bw.SelectionError):
            bw.choose_random_start(data, merged[2].grid.values[0], pool)

    @pytest.mark.usefixtures("no_child_left")
    @pytest.mark.parametrize("method", bw.METHODS)
    def test_outcomes_do_not_depend_on_the_cpu_count(self, monkeypatch, method):
        data, _ = linear_dataset(53, 0.2, seed=25)
        seeds = [np.random.SeedSequence((9, k, 1)) for k in range(4)]
        outcomes = TestWorkerParts.on_cpus(monkeypatch, lambda: [
            outcome_fields(o) for o in bw.fit_pipelines(data, self.strategies(), 3, method, 5,
                                                        seeds, 40)])
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]

    @pytest.mark.parametrize("method", bw.METHODS)
    def test_one_lockstep_for_the_grid_searches(self, monkeypatch, method):
        data, _ = linear_dataset(53, 0.2, seed=25)
        in_parts = optimize._in_parts
        counts = []

        def spy(run, count):
            counts.append(count)
            return in_parts(run, count)

        monkeypatch.setattr(optimize, "_in_parts", spy)
        seeds = [np.random.SeedSequence((9, k, 1)) for k in range(4)]
        bw.fit_pipelines(data, self.strategies(), 3, method, 5, seeds, 40)
        # every strategy searches all three bandwidths; k-fold refits each winner alone
        assert counts == ([4 * 3] if method == "gcv" else [4 * 3 * 5] + [1] * 4)

    def test_unknown_method_raises_value_error(self):
        data, _ = linear_dataset(20, 0.2, seed=2)
        with pytest.raises(ValueError, match="method must be"):
            bw.fit_pipelines(data, self.strategies(), 3, "loo", 5, [0] * 4, 40)


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
        sigma = float(np.std(compute_index(data, spec_from_raw(data, truth))))
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
        grid_calls = []

        def spy(train, init, h, *args):
            starts.append((float(h), np.array(init)))
            return minimize(train, init, h, *args)

        def spy_each(data, inits, hs, *args):
            grid_calls.append(len(hs))
            starts.extend((float(h), np.array(init)) for init, h in zip(inits, hs))
            return minimize_each(data, inits, hs, *args)

        # gcv runs one search per bandwidth and k-fold the fold searches of the
        # whole grid, each as one lockstep; k-fold refits the winner through minimize
        monkeypatch.setattr(bw, "minimize", spy)
        monkeypatch.setattr(bw, "minimize_each", spy_each)
        bw.select_bandwidth(data, strategy, grid, method=method, folds=3, budget=20)
        assert grid_calls == [(3 if method == "kfold" else 1) * grid.values.size]
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
        spec = spec_from_raw(data, truth)
        assert bw.gcv_score(data, spec, 0.9) <= 1e-6
        assert bw.kfold_score(data, truth, 0.9, folds=10, seed=0, budget=0) <= 1e-6
