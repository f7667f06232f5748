"""Tests for the init strategies and the simplex coefficient search."""

import os
import time

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


def use_cpus(monkeypatch, count):
    """Make ``os.sched_getaffinity`` report ``count`` usable CPUs, the number of
    parts ``optimize._in_parts`` splits a lockstep's searches into."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def no_child_left():
    """After the test this process has no child, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def result_fields(result):
    if isinstance(result, Exception):
        return type(result), str(result)
    spec = result.spec
    return (spec.coefficient_vector().tobytes(), spec.bandwidth, spec.alpha, result.final_mse,
            result.iterations, result.converged, result.evaluations, result.trace,
            result.init_used)


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
    """The search loop written with lists and np.mean, one call per point: the oracle."""
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


def quantized(points, h):
    """A stand-in objective on a 1/4 grid, so that branch comparisons meet exact
    ties; far from the origin it is not finite."""
    points = np.atleast_2d(points)
    value = np.floor(((points - h) ** 2).sum(axis=1) * 4.0) / 4.0
    return np.where(np.abs(points).sum(axis=1) > 50.0, np.inf, value)


class QuantizedStack:
    def __init__(self, data, subsets, h):
        self.h = np.broadcast_to(np.asarray(h, dtype=float), (len(subsets),))

    def __call__(self, which, points):
        return quantized(points, self.h[which, None])


class TestLockstep:
    # zero entries, a start whose value is not finite, budgets below dim + 2
    @pytest.mark.parametrize("budget", [0, 4, 30, 200])
    def test_each_search_is_the_serial_loop(self, monkeypatch, budget):
        rng = np.random.default_rng(40)
        data = single_block_data(rng.normal(size=(12, 4)), rng.normal(size=12))
        starts = np.array([[0.0, 1.0, 0.0], [2.0, -1.0, 0.5], [30.0, 30.0, 30.0],
                           [0.5, 0.5, 0.5], [3.0, 0.0, -2.0]])
        hs = np.array([0.3, 1.0, 0.3, 0.7, 2.0])
        monkeypatch.setattr(optimize, "StackedObjective", QuantizedStack)
        got = optimize.minimize_lockstep(data, [np.arange(12)] * 5, starts, hs, budget)
        for x0, h, result in zip(starts, hs, got):
            try:
                outcome = serial_nelder_mead(lambda x: float(quantized(x, h)[0]), x0,
                                             budget, optimize.SPREAD_TOL)
            except DegenerateObjectiveError as exc:
                assert isinstance(result, DegenerateObjectiveError)
                assert str(result) == str(exc)
                continue
            expected = optimize._opt_result(data, h, outcome, None, "custom")
            assert result.spec.coefficient_vector().tobytes() == \
                expected.spec.coefficient_vector().tobytes()
            assert result.spec.bandwidth == expected.spec.bandwidth
            assert (result.final_mse, result.iterations, result.converged,
                    result.evaluations, result.trace) == (
                expected.final_mse, expected.iterations, expected.converged,
                expected.evaluations, expected.trace)
        assert isinstance(got[2], DegenerateObjectiveError)


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


@pytest.mark.usefixtures("no_child_left")
class TestWorkerParts:
    """_in_parts runs part 0 of a lockstep's searches here and every other part
    in a forked child; W = min(usable CPUs, searches) parts, forced here
    through os.sched_getaffinity."""

    @pytest.mark.parametrize("cpus, count", [(1, 7), (2, 7), (3, 7), (3, 2)])
    def test_round_robin_parts_come_back_in_search_order(self, monkeypatch, cpus, count):
        use_cpus(monkeypatch, cpus)
        got = optimize._in_parts(lambda rows: [(k, os.getpid()) for k in rows.tolist()],
                                 count)
        assert [k for k, _ in got] == list(range(count))
        width = min(cpus, count)
        # part r holds searches r, r + W, ...; this process runs part 0
        assert all(got[k][1] == os.getpid() for k in range(0, count, width))
        for r in range(width):
            assert len({got[k][1] for k in range(r, count, width)}) == 1
        assert len({pid for _, pid in got}) == width

    def test_one_part_without_fork(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        monkeypatch.delattr(os, "fork")
        got = optimize._in_parts(lambda rows: [os.getpid()] * rows.size, 5)
        assert got == [os.getpid()] * 5

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_childs_exception_is_raised_here(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)

        def run(rows):
            if rows[0] == cpus - 1:
                raise SingularFitError("unusable in the last part", row=int(rows[0]))
            return [None] * rows.size

        with pytest.raises(SingularFitError) as raised:
            optimize._in_parts(run, 5)
        assert (str(raised.value), raised.value.row) == ("unusable in the last part", cpus - 1)

    def test_the_first_failing_part_in_part_order_raises(self, monkeypatch):
        use_cpus(monkeypatch, 3)

        def run(rows):
            if rows[0] == 0:
                return [None] * rows.size
            # part 2 fails first in time, part 1 first in part order
            time.sleep(0.2 if rows[0] == 1 else 0.0)
            raise (ValueError if rows[0] == 1 else KeyError)(f"part {rows[0]}")

        with pytest.raises(ValueError, match="part 1"):
            optimize._in_parts(run, 6)

    def test_a_child_that_ends_without_a_result(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        parent = os.getpid()

        def run(rows):
            if os.getpid() != parent:
                os._exit(3)
            return [None] * rows.size

        with pytest.raises(RuntimeError, match="ended without a result"):
            optimize._in_parts(run, 2)

    @pytest.mark.parametrize("error", [KeyboardInterrupt, DegenerateObjectiveError])
    def test_a_raise_in_this_process_part_kills_the_children(self, monkeypatch, error):
        use_cpus(monkeypatch, 3)
        parent = os.getpid()

        def run(rows):
            if os.getpid() == parent:
                raise error("stop")
            time.sleep(60.0)
            return [None] * rows.size

        started = time.perf_counter()
        with pytest.raises(error):
            optimize._in_parts(run, 3)
        # the children were killed and reaped, not waited for
        assert time.perf_counter() - started < 30.0

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_lockstep_searches_do_not_depend_on_the_cpu_count(self, monkeypatch, cpus):
        rng = np.random.default_rng(40)
        data = single_block_data(rng.normal(size=(12, 4)), rng.normal(size=12))
        starts = np.array([[0.0, 1.0, 0.0], [2.0, -1.0, 0.5], [30.0, 30.0, 30.0],
                           [0.5, 0.5, 0.5], [3.0, 0.0, -2.0]])
        hs = np.array([0.3, 1.0, 0.3, 0.7, 2.0])
        monkeypatch.setattr(optimize, "StackedObjective", QuantizedStack)
        use_cpus(monkeypatch, 1)
        alone = optimize.minimize_lockstep(data, [np.arange(12)] * 5, starts, hs, 60)
        use_cpus(monkeypatch, cpus)
        split = optimize.minimize_lockstep(data, [np.arange(12)] * 5, starts, hs, 60)
        assert [result_fields(r) for r in split] == [result_fields(r) for r in alone]
        assert isinstance(split[2], DegenerateObjectiveError)
