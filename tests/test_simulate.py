"""Tests for the data generator, the error metrics, and the experiment runner."""

import numpy as np
import pytest

from fsim import bandwidth
from fsim.basis import BasisExpansion, FourierBasis
from fsim.locfit import EstimationError, local_quad_fit, relocated_fit
from fsim.model import spec_from_raw
from fsim.simulate import (
    LINKS,
    ExperimentConfig,
    GroundTruth,
    LinkSpec,
    SimScenario,
    coefficient_scales,
    generate,
    rase,
    rse,
    run_experiment,
)


class TestGenerate:
    def test_identity_link_no_noise(self):
        data, truth = generate(SimScenario(n=50, link="g3", noise_sd=0.0, seed=1))
        np.testing.assert_array_equal(data.y, truth.index)

    def test_deterministic_per_seed(self):
        a_data, a_truth = generate(SimScenario(n=20, link="g1", seed=42))
        b_data, b_truth = generate(SimScenario(n=20, link="g1", seed=42))
        np.testing.assert_array_equal(a_data.y, b_data.y)
        np.testing.assert_array_equal(a_data.blocks[0].coeffs, b_data.blocks[0].coeffs)
        np.testing.assert_array_equal(a_truth.index, b_truth.index)

    def test_constant_coefficient_vanishes(self):
        data, _ = generate(SimScenario(n=100, seed=3))
        np.testing.assert_array_equal(data.blocks[0].coeffs[:, 0], np.zeros(100))

    def test_truth_is_the_normalized_textbook_vector(self):
        _, truth = generate(SimScenario(n=5, seed=4))
        assert np.linalg.norm(truth.beta.coeffs) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(truth.beta.coeffs[:3], np.array([1, 1, 0.5]) / 1.5)
        assert np.all(truth.beta.coeffs[3:] == 0.0)

    def test_coefficient_scale_law(self):
        scenario = SimScenario(n=100_000, seed=5)
        data, _ = generate(scenario)
        scales = coefficient_scales(scenario.basis_dim)
        sample_sd = data.blocks[0].coeffs.std(axis=0)
        for j in (1, 5, 12, 24):
            assert sample_sd[j] == pytest.approx(scales[j], rel=0.05)

    def test_link_values(self):
        s = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(LINKS["g1"].g(s), np.exp(-s))
        np.testing.assert_allclose(LINKS["g2"].g(s), [-1.0, 0.0, -4.0])
        np.testing.assert_allclose(LINKS["g3"].g(s), s)
        np.testing.assert_allclose(LINKS["g1"].curvature(s), np.exp(-s))
        np.testing.assert_allclose(LINKS["g2"].curvature(s), [-2.0, -2.0, -2.0])
        np.testing.assert_allclose(LINKS["g3"].curvature(s), [0.0, 0.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            SimScenario(n=0)
        with pytest.raises(ValueError):
            SimScenario(n=5, link="g9")
        with pytest.raises(ValueError):
            SimScenario(n=5, basis_dim=3)


class TestRse:
    def test_identical_is_zero(self):
        _, truth = generate(SimScenario(n=5, seed=6))
        assert rse(truth.beta, truth.beta) == 0.0

    def test_orthogonal_unit_vectors(self):
        basis = FourierBasis(4, include_constant=False)
        f = BasisExpansion(basis, [1, 0, 0, 0])
        g = BasisExpansion(basis, [0, 1, 0, 0])
        assert rse(f, g) == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(7)
        basis = FourierBasis(6, include_constant=False)
        f = BasisExpansion(basis, rng.standard_normal(6))
        g = BasisExpansion(basis, rng.standard_normal(6))
        t = np.linspace(0.0, 1.0, 20_001)
        oracle = np.sqrt(np.trapezoid((f.evaluate(t) - g.evaluate(t)) ** 2, t))
        assert rse(f, g) == pytest.approx(oracle, abs=1e-6)

    def test_metric_properties(self):
        rng = np.random.default_rng(8)
        basis = FourierBasis(5, include_constant=False)
        for _ in range(10):
            a = BasisExpansion(basis, rng.standard_normal(5))
            b = BasisExpansion(basis, rng.standard_normal(5))
            c = BasisExpansion(basis, rng.standard_normal(5))
            assert rse(a, b) == rse(b, a)
            assert rse(a, c) <= rse(a, b) + rse(b, c) + 1e-12

    def test_basis_mismatch(self):
        f = BasisExpansion(FourierBasis(4, include_constant=False), np.ones(4))
        g = BasisExpansion(FourierBasis(5, include_constant=False), np.ones(5))
        with pytest.raises(ValueError):
            rse(f, g)


class TestRase:
    def test_exact_quadratic_curvature(self):
        data, truth = generate(SimScenario(n=80, link="g2", noise_sd=0.0, seed=9))
        spec = spec_from_raw(data, truth.beta.coeffs)
        sigma = float(np.std(truth.index))
        result = rase(data, truth, spec, derivative=2, bandwidth=2.0 * sigma)
        assert result.value <= 1e-6

    def test_constant_link_level_error_zero(self):
        data, truth = generate(SimScenario(n=40, link="g3", noise_sd=0.0, seed=10))
        constant = LinkSpec("const", lambda s: np.full_like(s, 2.5), lambda s: np.zeros_like(s))
        flat_truth = GroundTruth(beta=truth.beta, index=truth.index, link=constant,
                                 noise_sd=0.0)
        flat_data = type(data)(blocks=data.blocks, y=np.full(40, 2.5))
        spec = spec_from_raw(flat_data, truth.beta.coeffs)
        sigma = float(np.std(truth.index))
        result = rase(flat_data, flat_truth, spec, derivative=0, bandwidth=sigma)
        assert result.value == pytest.approx(0.0, abs=1e-10)

    def test_loop_by_loop_oracle(self):
        data, truth = generate(SimScenario(n=50, link="g1", noise_sd=0.1, seed=11))
        spec = spec_from_raw(data, truth.beta.coeffs)
        sigma = float(np.std(truth.index))
        h = 1.5 * sigma
        result = rase(data, truth, spec, derivative=2, bandwidth=h)
        z_hat = data.blocks[0].coeffs[:, 1:] @ spec.beta_blocks[0].coeffs
        total = 0.0
        for i in range(50):
            estimate = local_quad_fit(z_hat, data.y, z_hat[i], h).c_hat
            total += (estimate - truth.link.curvature(truth.index)[i]) ** 2
        assert result.relocated == 0
        assert result.value == pytest.approx(np.sqrt(total / 50.0), abs=1e-12)

    @pytest.mark.parametrize("derivative", [0, 2])
    def test_relocation_loop_oracle(self, derivative):
        data, truth = generate(SimScenario(n=300, link="g1", noise_sd=0.1, seed=14))
        spec = spec_from_raw(data, truth.beta.coeffs)
        h = 0.2 * float(np.std(truth.index))
        result = rase(data, truth, spec, derivative=derivative, bandwidth=h)
        z_hat = data.blocks[0].coeffs[:, 1:] @ spec.beta_blocks[0].coeffs
        center = float(np.median(z_hat))
        target = truth.link.g(truth.index) if derivative == 0 else truth.link.curvature(truth.index)
        total, relocated = 0.0, 0
        for i in range(300):
            fit, moved = relocated_fit(z_hat, data.y, z_hat[i], h, center=center)
            estimate = fit.a_hat if derivative == 0 else fit.c_hat
            total += (estimate - target[i]) ** 2
            relocated += int(moved)
        assert relocated > 0
        assert result.relocated == relocated
        assert result.value == pytest.approx(np.sqrt(total / 300.0), rel=1e-10)

    def test_rejects_other_derivatives(self):
        data, truth = generate(SimScenario(n=30, seed=12))
        spec = spec_from_raw(data, truth.beta.coeffs)
        with pytest.raises(ValueError):
            rase(data, truth, spec, derivative=1, bandwidth=float(np.std(truth.index)))


class TestRunExperiment:
    @staticmethod
    def config(**overrides):
        base = dict(
            links=("g3",), sizes=(60,), strategies=("true",), method="gcv",
            reps=2, seed=13, noise_sd=0.1, basis_dim=9, grid_size=3,
            opt_budget=50, candidate_count=30, keep_best=3,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_reproducible_rows(self):
        rows_a = run_experiment(self.config())
        rows_b = run_experiment(self.config())
        assert rows_a == rows_b

    def test_row_shape(self):
        rows = run_experiment(self.config())
        assert len(rows) == 1
        row = rows[0]
        assert row["link"] == "g3"
        assert row["n"] == 60
        assert row["strategy"] == "true"
        assert row["failures"] + len([None] * 0) <= row["reps"]
        for key in ("rse", "rase", "rase2", "cv_score", "chosen_h"):
            assert np.isfinite(row[key])

    def test_rescale_comparison_column(self):
        rows = run_experiment(self.config(rescale_comparison=True))
        assert "rase2_original" in rows[0]

    def test_random_strategy_cell(self):
        rows = run_experiment(self.config(strategies=("random",), reps=1))
        assert rows[0]["failures"] == 0

    def test_larger_samples_no_worse_link_error(self):
        # the link-fit error should not grow with the sample size
        rows = run_experiment(self.config(sizes=(100, 1000), reps=3, seed=21,
                                          basis_dim=25, opt_budget=60))
        by_n = {row["n"]: row for row in rows}
        assert by_n[100]["failures"] < 3 and by_n[1000]["failures"] < 3
        assert by_n[1000]["rase"] <= by_n[100]["rase"]

    def test_bug_propagates_instead_of_counting_as_failure(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a bug, not a failed estimate")

        monkeypatch.setattr(bandwidth, "select_bandwidth", broken)
        with pytest.raises(ValueError, match="a bug"):
            run_experiment(self.config())

    def test_estimation_error_counts_as_failure(self, monkeypatch):
        class NoEstimate(EstimationError):
            pass

        def failing(*args, **kwargs):
            raise NoEstimate("the data admit no estimate")

        monkeypatch.setattr(bandwidth, "select_bandwidth", failing)
        row = run_experiment(self.config())[0]
        assert row["failures"] == row["reps"] == 2
        assert row["flagged"] and np.isnan(row["rse"])

    def test_folds_are_not_checked_for_gcv(self):
        assert ExperimentConfig(method="gcv", folds=1).folds == 1

    def test_training_folds_too_small_count_as_failures(self):
        # n=5 in two folds leaves training sets too small for the objective
        row = run_experiment(self.config(sizes=(5,), method="kfold", folds=2))[0]
        assert row["failures"] == row["reps"] == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(grid_size=0)
        with pytest.raises(ValueError):
            ExperimentConfig(method="kfold", folds=1)
        with pytest.raises(ValueError):
            ExperimentConfig(candidate_count=5, keep_best=6)
        with pytest.raises(ValueError):
            ExperimentConfig(links=("g7",))
        with pytest.raises(ValueError):
            ExperimentConfig(method="loo")
        with pytest.raises(ValueError):
            ExperimentConfig(strategies=("best",))
        with pytest.raises(ValueError):
            ExperimentConfig(reps=0)
        with pytest.raises(ValueError):
            ExperimentConfig(opt_budget=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(noise_sd=-0.1)
        with pytest.raises(ValueError):
            ExperimentConfig(basis_dim=3)
        with pytest.raises(ValueError):
            ExperimentConfig(sizes=(100, 0))

    # a bool is an int to Python; "seed": true in a config is not seed 1, and
    # the counts follow the same rule
    @pytest.mark.parametrize("overrides, message", [
        pytest.param({"seed": -3}, "seed", id="-3"),
        pytest.param({"seed": 1.5}, "seed", id="1.5"),
        pytest.param({"seed": "abc"}, "seed", id="abc"),
        pytest.param({"seed": True}, "seed", id="True"),
        pytest.param({"seed": None}, "seed", id="None"),
        pytest.param({"reps": 2.5}, "reps", id="reps-2.5"),
        pytest.param({"reps": True}, "reps", id="reps-True"),
        pytest.param({"sizes": (100, 30.7)}, r"sizes\[1\]", id="sizes-30.7"),
        pytest.param({"basis_dim": 9.0}, "basis_dim", id="basis_dim-9.0"),
        pytest.param({"grid_size": 2.0}, "grid_size", id="grid_size-2.0"),
        pytest.param({"method": "kfold", "folds": 2.5}, "folds", id="folds-2.5"),
        pytest.param({"opt_budget": 10.5}, "opt_budget", id="opt_budget-10.5"),
        pytest.param({"candidate_count": 20.5}, "candidate_count", id="candidate_count-20.5"),
        pytest.param({"keep_best": 2.0}, "keep_best", id="keep_best-2.0"),
    ])
    def test_seed_must_be_a_nonnegative_integer(self, overrides, message):
        with pytest.raises(ValueError, match=f"{message} must be an integer >= "):
            ExperimentConfig(**overrides)
