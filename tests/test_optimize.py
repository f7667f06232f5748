"""Tests for the init strategies and the simplex coefficient search."""

import numpy as np
import pytest

from fsim.bandwidth import choose_random_start
from fsim.basis import FourierBasis
from fsim.locfit import SingularFitError
from fsim import optimize
from fsim.model import (
    Dataset,
    DegenerateObjectiveError,
    FunctionalBlock,
    NormalizationError,
    canonical_sign,
    objective_loo_mse,
    spec_from_raw,
)
from fsim.optimize import (
    InitStrategy,
    init_equal,
    init_linear,
    init_random,
    minimize,
)
from fsim.simulate import SimScenario, generate


def single_block_data(coeffs, y, w=None):
    basis = FourierBasis(coeffs.shape[1], include_constant=True)
    return Dataset(blocks=(FunctionalBlock(basis, coeffs),), y=np.asarray(y, float), w=w)


def angle_between(u, v):
    cos = abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


class TestInitEqual:
    def test_dim_four(self):
        np.testing.assert_allclose(init_equal(4), [0.5, 0.5, 0.5, 0.5])

    def test_dim_one(self):
        np.testing.assert_allclose(init_equal(1), [1.0])

    @pytest.mark.parametrize("dim", [2, 7, 24])
    def test_unit_norm(self, dim):
        assert np.linalg.norm(init_equal(dim)) == pytest.approx(1.0, abs=1e-12)


class TestInitLinear:
    def test_exact_recovery_on_linear_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 5))
        truth = np.array([0.1, -0.7, 0.5, 0.2])
        truth = truth / np.linalg.norm(truth)
        data = single_block_data(x, x[:, 1:] @ truth)
        estimate = init_linear(data)
        assert angle_between(estimate, truth) < 1e-6

    def test_zero_responses(self):
        rng = np.random.default_rng(1)
        data = single_block_data(rng.normal(size=(30, 4)), np.zeros(30))
        with pytest.raises(NormalizationError):
            init_linear(data)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(500, 5))
        truth = np.array([0.0, 1.0, 1.0, 0.5])
        truth = truth / np.linalg.norm(truth)
        y = x[:, 1:] @ truth + 0.1 * rng.normal(size=500)
        data = single_block_data(x, y)
        assert angle_between(init_linear(data), truth) < 0.1

    def test_needs_more_samples_than_parameters(self):
        rng = np.random.default_rng(3)
        data = single_block_data(rng.normal(size=(4, 5)), np.zeros(4))
        with pytest.raises(SingularFitError):
            init_linear(data)

    def test_rank_deficient_design(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 5))
        x[:, 4] = x[:, 3]
        with pytest.raises(SingularFitError):
            init_linear(single_block_data(x, rng.normal(size=30)))

    def test_scalar_covariate_included(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(80, 4))
        w = rng.normal(size=80)
        functional = np.array([0.6, 0.8, 0.0])
        y = x[:, 1:] @ functional + 2.0 * w
        data = single_block_data(x, y, w=w)
        estimate = init_linear(data)
        assert estimate.shape == (4,)
        # functional part unit norm, alpha rescaled by the same factor
        assert np.linalg.norm(estimate[:3]) == pytest.approx(1.0, abs=1e-10)
        assert estimate[3] == pytest.approx(2.0, abs=1e-6)


class TestInitRandom:
    @staticmethod
    def data():
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 4))
        y = x[:, 1] + 0.1 * rng.normal(size=40)
        return single_block_data(x, y)

    def test_keep_all_returns_sorted_pool(self):
        data = self.data()
        cfg = InitStrategy(kind="random", candidate_count=20, keep_best=20, seed=7)
        pool = init_random(data, 0.5, cfg)
        scores = [objective_loo_mse(data, c, 0.5).mse for c in pool]
        assert scores == sorted(scores)

    def test_deterministic(self):
        data = self.data()
        cfg = InitStrategy(kind="random", candidate_count=15, keep_best=4, seed=11)
        first = init_random(data, 0.5, cfg)
        second = init_random(data, 0.5, cfg)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_kept_beat_rejected(self):
        data = self.data()
        cfg = InitStrategy(kind="random", candidate_count=30, keep_best=5, seed=13)
        kept = init_random(data, 0.5, cfg)
        kept_scores = [objective_loo_mse(data, c, 0.5).mse for c in kept]
        everything = init_random(
            data, 0.5, InitStrategy(kind="random", candidate_count=30, keep_best=30, seed=13)
        )
        all_scores = [objective_loo_mse(data, c, 0.5).mse for c in everything]
        assert max(kept_scores) <= min(all_scores[5:])

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            InitStrategy(kind="random", candidate_count=3, keep_best=5)
        with pytest.raises(ValueError):
            InitStrategy(kind="nope")
        with pytest.raises(ValueError):
            InitStrategy(kind="true")


class TestMinimize:
    def test_flat_objective_returns_init_converged(self):
        rng = np.random.default_rng(6)
        data = single_block_data(rng.normal(size=(12, 4)), np.full(12, 2.0))
        init = init_equal(3)
        result = minimize(data, init, 0.8)
        assert result.converged
        assert result.iterations == 0
        assert result.final_mse == pytest.approx(0.0, abs=1e-28)
        # stays within the initial simplex (5% coordinate perturbations)
        np.testing.assert_allclose(result.spec.coefficient_vector(), init, atol=0.05)

    def test_grid_scan_oracle_two_coefficients(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(120, 3))
        angle_true = 1.1
        truth = np.array([np.cos(angle_true), np.sin(angle_true)])
        y = x[:, 1:] @ truth
        data = single_block_data(x, y)
        h = 0.35
        # one-degree scan over directions; objective is sign-symmetric
        angles = np.deg2rad(np.arange(0.0, 180.0, 1.0))
        scores = [
            objective_loo_mse(data, np.array([np.cos(t), np.sin(t)]), h).mse
            for t in angles
        ]
        angle_grid = angles[int(np.argmin(scores))]
        result = minimize(data, init_equal(2), h)
        c = result.spec.coefficient_vector()
        angle_nm = np.arctan2(c[1], c[0]) % np.pi
        distance = abs(angle_nm - angle_grid)
        distance = min(distance, np.pi - distance)
        assert distance <= np.deg2rad(1.0)

    def test_trace_is_non_increasing(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 4))
        y = x[:, 1] ** 2 + 0.1 * rng.normal(size=50)
        data = single_block_data(x, y)
        result = minimize(data, init_equal(3), 0.4, budget=400)
        trace = np.array(result.trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_never_worse_than_init(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(40, 5))
        y = np.exp(-x[:, 1]) + 0.1 * rng.normal(size=40)
        data = single_block_data(x, y)
        for _ in range(5):
            init = rng.normal(size=4)
            start = objective_loo_mse(data, init, 0.5).mse
            result = minimize(data, init, 0.5, budget=200)
            assert result.final_mse <= start + 1e-15
            assert np.linalg.norm(result.spec.coefficient_vector()) == pytest.approx(1.0, abs=1e-12)

    def test_budget_exhaustion_flags_not_converged(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(60, 4))
        y = np.exp(-x[:, 1]) + 0.2 * rng.normal(size=60)
        data = single_block_data(x, y)
        result = minimize(data, rng.normal(size=3), 0.3, budget=20)
        assert not result.converged
        # a shrink step may overshoot the budget by up to dim evaluations
        assert result.evaluations <= 20 + 5

    def test_zero_budget_returns_init(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 4))
        data = single_block_data(x, x[:, 1])
        init = np.array([2.0, 1.0, -1.0])
        result = minimize(data, init, 0.5, budget=0)
        assert result.iterations == 0
        expected = init / np.linalg.norm(init)
        np.testing.assert_allclose(result.spec.coefficient_vector(), expected, atol=1e-14)

    def test_non_finite_init_rejected(self):
        from fsim.model import DegenerateObjectiveError

        rng = np.random.default_rng(12)
        data = single_block_data(rng.normal(size=(20, 4)), rng.normal(size=20))
        with pytest.raises(DegenerateObjectiveError):
            minimize(data, np.zeros(3), 0.5)


def serial_nelder_mead(fn, x0, max_evals, spread_tol):
    """The search loop as it was before it became a stepper: the oracle."""
    reflect, expand, contract, shrink = 1.0, 2.0, 0.5, 0.5
    dim = x0.size
    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        return fn(x)

    f0 = call(x0)
    if not np.isfinite(f0):
        raise DegenerateObjectiveError("objective is not finite at the initialization")
    if max_evals < dim + 2:
        return x0, f0, 0, False, [f0], evals
    simplex = [x0.copy()]
    values = [f0]
    for i in range(dim):
        vertex = x0.copy()
        vertex[i] = vertex[i] * 1.05 if vertex[i] != 0.0 else 2.5e-4
        simplex.append(vertex)
        values.append(call(vertex))
    simplex = np.array(simplex)
    values = np.array(values)
    iterations = 0
    converged = False
    trace = []
    while True:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        trace.append(float(values[0]))
        spread = values[-1] - values[0]
        if np.isfinite(spread) and spread < spread_tol:
            converged = True
            break
        if evals >= max_evals:
            break
        iterations += 1
        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + reflect * (centroid - simplex[-1])
        f_reflected = call(reflected)
        if f_reflected < values[0]:
            expanded = centroid + expand * (centroid - simplex[-1])
            f_expanded = call(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue
        contracted = centroid + contract * (simplex[-1] - centroid)
        f_contracted = call(contracted)
        if f_contracted < values[-1]:
            simplex[-1], values[-1] = contracted, f_contracted
            continue
        for i in range(1, dim + 1):
            simplex[i] = simplex[0] + shrink * (simplex[i] - simplex[0])
            values[i] = call(simplex[i])
    best = int(np.argmin(values))
    return simplex[best], float(values[best]), iterations, converged, trace, evals


class TestStepper:
    # a zero start entry takes the 2.5e-4 vertex; budgets 0 and 4 stop before
    # the simplex; the n=8 searches shrink, one until it converges and one
    # until the budget runs out
    @pytest.mark.parametrize("seed, n, h, budget, shrinks", [
        (13, 40, 0.5, 0, False), (13, 40, 0.5, 4, False), (13, 40, 0.5, 60, False),
        (13, 40, 0.5, 400, False), (24, 10, 0.15, 400, True), (26, 8, 0.6, 400, True),
    ])
    def test_minimize_makes_the_calls_of_the_serial_loop(self, monkeypatch, seed, n, h,
                                                           budget, shrinks):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 5))
        data = single_block_data(x, np.exp(-x[:, 1]) + 0.1 * rng.normal(size=n))
        init = np.array([0.8, 0.0, -0.5, 0.3])
        expected = []

        def fn(point):
            expected.append(np.array(point).tobytes())
            return optimize.safe_objective(data, point, h)

        best, f_best, iterations, converged, trace, evals = serial_nelder_mead(
            fn, init.copy(), budget, optimize.SPREAD_TOL)
        calls = []
        objective = optimize.safe_objective

        def spy(data, point, h):
            calls.append(np.array(point).tobytes())
            return objective(data, point, h)

        monkeypatch.setattr(optimize, "safe_objective", spy)
        result = minimize(data, init, h, budget)
        assert calls == expected
        assert result.evaluations == evals == len(calls)
        assert (result.final_mse, result.iterations, result.converged, result.trace) == (
            f_best, iterations, converged, tuple(trace))
        spec = canonical_sign(spec_from_raw(data, best, h))
        assert result.spec.coefficient_vector().tobytes() == spec.coefficient_vector().tobytes()
        assert result.spec.bandwidth == spec.bandwidth
        # more calls than two per iteration: the search shrank its simplex
        assert (evals > 1 + init.size + 2 * iterations) == shrinks


class TestStartStrategies:
    def test_true_start_beats_equal_start_on_rse(self):
        from fsim.simulate import rse

        wins = []
        for rep in range(10):
            data, truth = generate(SimScenario(n=80, link="g1", basis_dim=9,
                                               noise_sd=0.1, seed=100 + rep))
            h = 3.0 * float(np.std(truth.index))
            ref = truth.beta.coeffs
            res_true = minimize(data, ref, h, budget=200, sign_reference=ref)
            res_equal = minimize(data, init_equal(data.search_dimension()), h,
                                 budget=200, sign_reference=ref)
            wins.append(
                rse(res_true.spec.beta_blocks[0], truth.beta)
                <= rse(res_equal.spec.beta_blocks[0], truth.beta)
            )
        assert np.median([float(w) for w in wins]) == 1.0

    def test_random_start_no_worse_than_equal_on_objective(self):
        medians = {"random": [], "equal": []}
        for rep in range(7):
            data, truth = generate(SimScenario(n=60, link="g3", basis_dim=9,
                                               noise_sd=0.1, seed=300 + rep))
            h = 2.0 * float(np.std(truth.index))
            pool = init_random(
                data, h, InitStrategy(kind="random", candidate_count=60, keep_best=3, seed=rep)
            )
            random_fit = minimize(data, choose_random_start(data, h, pool)[0], h, budget=200)
            equal_fit = minimize(data, init_equal(data.search_dimension()), h, budget=200)
            medians["random"].append(random_fit.final_mse)
            medians["equal"].append(equal_fit.final_mse)
        assert np.median(medians["random"]) <= np.median(medians["equal"])
