"""Acceptance suite: one test per release criterion, each printing a verdict line.

The statistical criteria pin qualitative behavior (orderings, windows,
convergence) rather than table values, which are optimizer- and seed-
sensitive; tolerances and runtime ceilings are part of each criterion.
"""

import csv
import json
import time

import numpy as np

from fsim.basis import BasisExpansion, FourierBasis, inner_product
from fsim.cli import main as cli_main
from fsim.kernel import smooth_kernel
from fsim.locfit import curve_estimates, local_quad_fit, nw_loo_all
from fsim.model import (
    Dataset,
    FunctionalBlock,
    compute_index,
    objective_loo_mse,
    spec_from_raw,
)
from fsim.bandwidth import gcv_score
from fsim.simulate import ExperimentConfig, SimScenario, generate, rase, run_experiment


def report(number, message):
    print(f"PASS criterion {number}: {message}")


def single_block_data(coeffs, y):
    basis = FourierBasis(coeffs.shape[1], include_constant=True)
    return Dataset(blocks=(FunctionalBlock(basis, coeffs),), y=np.asarray(y, float))


def test_c01_local_quadratic_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    z = rng.uniform(-1.0, 1.0, 200)
    poly = np.polynomial.Polynomial([0.7, -1.3, 2.1])
    y = poly(z)
    worst = 0.0
    for h in (0.3, 0.7, 1.5):
        for u in rng.uniform(-0.8, 0.8, 20):
            fit = local_quad_fit(z, y, u, h)
            worst = max(
                worst,
                abs(fit.a_hat - poly(u)),
                abs(fit.b_hat - poly.deriv(1)(u)),
                abs(fit.c_hat - poly.deriv(2)(u)),
            )
    elapsed = time.perf_counter() - started
    assert worst < 1e-8
    assert elapsed < 1.0
    report(1, f"local quadratic reproduces quadratics, worst error {worst:.2e} "
              f"over 20 points x 3 bandwidths ({elapsed:.2f}s)")


def test_c02_basis_fidelity():
    started = time.perf_counter()
    basis = FourierBasis(25)
    t = np.linspace(0.0, 1.0, 10_001)
    psi = basis.design_matrix(t)
    gram = np.trapezoid(psi[:, :, None] * psi[:, None, :], t, axis=0)
    gram_error = np.abs(gram - np.eye(25)).max()
    assert gram_error < 1e-6

    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        f = BasisExpansion(basis, rng.standard_normal(25))
        g = BasisExpansion(basis, rng.standard_normal(25))
        oracle = np.trapezoid((psi @ f.coeffs) * (psi @ g.coeffs), t)
        worst = max(worst, abs(inner_product(f, g) - oracle))
    elapsed = time.perf_counter() - started
    assert worst < 1e-6
    assert elapsed < 5.0
    report(2, f"Gram error {gram_error:.2e}, inner-product vs quadrature "
              f"{worst:.2e} over 100 pairs ({elapsed:.2f}s)")


def test_c03_objective_scale_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 40))
        dim = int(rng.integers(3, 8))
        x = rng.uniform(-0.7, 0.7, size=(n, dim + 1))
        y = rng.normal(size=n)
        data = single_block_data(x, y)
        raw = rng.normal(size=dim)
        lam = float(rng.uniform(0.2, 5.0))
        h = float(rng.uniform(0.3, 0.8))
        base = objective_loo_mse(data, raw, h)
        scaled = objective_loo_mse(data, lam * raw, h)
        assert scaled.excluded_count == base.excluded_count
        worst = max(worst, abs(scaled.mse - base.mse))
    elapsed = time.perf_counter() - started
    assert worst < 1e-12
    assert elapsed < 10.0
    report(3, f"J(lambda c, h) = J(c, h) within {worst:.2e} over 50 triples ({elapsed:.2f}s)")


def test_c04_known_beta_curvature_convergence():
    started = time.perf_counter()
    sizes = [200, 400, 800, 1600]
    medians = []
    for n in sizes:
        squared_errors = []
        for rep in range(20):
            seed = np.random.SeedSequence((4, n, rep))
            data, truth = generate(SimScenario(n=n, link="g1", noise_sd=0.1, seed=seed))
            sigma = float(np.std(truth.index))
            h = n ** (-1.0 / 7.0) * sigma
            spec = spec_from_raw(data, truth.beta.coeffs, h)
            z = compute_index(data, spec)
            estimates = curve_estimates(z, data.y, z, h, derivative=2)
            target = truth.link.curvature(truth.index)
            keep = np.isfinite(estimates)
            squared_errors.extend(((estimates[keep] - target[keep]) ** 2).tolist())
        medians.append(float(np.median(squared_errors)))
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    elapsed = time.perf_counter() - started
    assert all(a > b for a, b in zip(medians, medians[1:])), medians
    assert -1.0 <= slope <= -0.15
    assert elapsed < 300.0
    report(4, f"median squared curvature error decreases {medians[0]:.0f} -> "
              f"{medians[-1]:.0f}, log-log slope {slope:.3f} in [-1.0, -0.15] ({elapsed:.1f}s)")


def test_c05_pipeline_sanity_true_start():
    started = time.perf_counter()
    config = ExperimentConfig(links=("g3",), sizes=(1000,), strategies=("true",),
                              method="gcv", reps=10, seed=5, noise_sd=0.1,
                              opt_budget=150)
    row = run_experiment(config)[0]
    elapsed = time.perf_counter() - started
    assert row["failures"] <= 5, row
    assert row["rse"] < 0.33
    assert row["rase"] < 0.10
    assert elapsed < 600.0
    report(5, f"g3 n=1000 true-start GCV: median RSE {row['rse']:.4f} < 0.33, "
              f"median RASE {row['rase']:.4f} < 0.10, {row['failures']}/10 reps failed "
              f"({elapsed:.0f}s)")


def test_c06_rescale_benefit_random_start():
    started = time.perf_counter()
    config = ExperimentConfig(links=("g2",), sizes=(100,), strategies=("random",),
                              method="gcv", reps=10, seed=6, noise_sd=0.1,
                              opt_budget=150, candidate_count=1000, keep_best=10,
                              rescale_comparison=True)
    row = run_experiment(config)[0]
    elapsed = time.perf_counter() - started
    assert row["failures"] <= 5, row
    assert row["rase2"] <= row["rase2_original"]
    assert elapsed < 600.0
    report(6, f"g2 n=100 random-start: median RASE2 rescaled {row['rase2']:.3f} <= "
              f"original {row['rase2_original']:.3f} ({elapsed:.0f}s)")


def test_c07_gcv_close_to_kfold():
    started = time.perf_counter()
    medians = {}
    for method in ("gcv", "kfold"):
        config = ExperimentConfig(links=("g1",), sizes=(100,), strategies=("true",),
                                  method=method, reps=10, seed=7, noise_sd=0.1,
                                  opt_budget=150)
        row = run_experiment(config)[0]
        assert row["failures"] <= 5, row
        medians[method] = row["rase"]
    ratio = medians["gcv"] / medians["kfold"]
    elapsed = time.perf_counter() - started
    assert 0.5 <= ratio <= 2.0
    assert elapsed < 600.0
    report(7, f"g1 n=100 true-start: RASE gcv {medians['gcv']:.4f} vs 10-fold "
              f"{medians['kfold']:.4f}, ratio {ratio:.3f} in [0.5, 2] ({elapsed:.0f}s)")


def test_c08_concave_curvature_diagnostic(tmp_path):
    started = time.perf_counter()
    data_path = tmp_path / "eco.csv"
    assert cli_main(["synth", "--out", str(data_path), "--n", "180", "--seed", "21",
                     "--link", "g2", "--noise-sd", "0.05", "--basis-dim", "9"]) == 0
    assert cli_main(["fit", "--data", str(data_path), "--out", str(tmp_path / "fit"),
                     "--strategy", "linear,equal,random", "--method", "gcv",
                     "--seed", "2", "--basis-dim", "9", "--budget", "400",
                     "--grid-size", "8", "--candidates", "300", "--keep", "5"]) == 0
    assert cli_main(["plot", "--fit", str(tmp_path / "fit" / "fit.json"),
                     "--data", str(data_path), "--out", str(tmp_path / "plots"),
                     "--truth", str(data_path) + ".truth.json", "--svg"]) == 0
    rows = list(csv.DictReader(open(tmp_path / "plots" / "g2_curve.csv")))
    assert len(rows) == 1000
    u = np.array([float(r["index"]) for r in rows])
    curvature = np.array([float(r["g2_hat"]) if r["g2_hat"] else np.nan for r in rows])
    lo, hi = np.quantile(u, 0.10), np.quantile(u, 0.90)
    interior = (u >= lo) & (u <= hi) & np.isfinite(curvature)
    fraction_negative = float(np.mean(curvature[interior] < 0.0))
    elapsed = time.perf_counter() - started
    assert fraction_negative >= 0.90
    assert elapsed < 120.0
    report(8, f"concave truth: {fraction_negative:.1%} of interior curvature "
              f"estimates negative (>= 90%) ({elapsed:.1f}s)")


def test_c09_oracle_equivalences():
    started = time.perf_counter()
    rng = np.random.default_rng(109)
    n, dim = 18, 4
    x = rng.uniform(-0.7, 0.7, size=(n, dim))
    raw = rng.normal(size=dim - 1)
    h = 0.5
    z_raw = x[:, 1:] @ raw
    y = np.exp(-z_raw) + 0.1 * rng.normal(size=n)
    data = single_block_data(x, y)

    # leave-one-out Nadaraya-Watson: plain python double loop
    h_eff = h * float(np.linalg.norm(raw))
    loo = np.empty(n)
    for i in range(n):
        num = den = 0.0
        for j in range(n):
            if j != i:
                weight = smooth_kernel((z_raw[i] - z_raw[j]) / h_eff)
                num += weight * y[j]
                den += weight
        loo[i] = num / den
    estimates, _ = nw_loo_all(z_raw, y, h_eff)
    # an excluded sample's NaN estimate fails the bound
    worst_nw = float(np.max(np.abs(estimates - loo)))
    assert worst_nw < 1e-10

    # objective: mean of the same leave-one-out residuals
    report_obj = objective_loo_mse(data, raw, h)
    oracle_mse = float(np.mean((y - loo) ** 2))
    assert report_obj.excluded_count == 0
    assert abs(report_obj.mse - oracle_mse) < 1e-10

    # GCV: explicit matrix assembly from pointwise smoother rows
    spec = spec_from_raw(data, raw, h)
    z_spec = compute_index(data, spec)
    smoother = np.stack([local_quad_fit(z_spec, y, u, 0.6).smoother_row_0 for u in z_spec])
    residual = y - smoother @ y
    oracle_gcv = float(np.mean(residual**2) / ((n - np.trace(smoother)) / n) ** 2)
    assert abs(gcv_score(data, spec, 0.6) - oracle_gcv) < 1e-10

    # RASE: literal loop over sample points
    data_sim, truth = generate(SimScenario(n=20, link="g1", noise_sd=0.1, seed=109))
    spec_sim = spec_from_raw(data_sim, truth.beta.coeffs, 1.0)
    sigma = float(np.std(truth.index))
    h_sim = 2.0 * sigma
    value = rase(data_sim, truth, spec_sim, derivative=2, bandwidth=h_sim)
    z_hat = compute_index(data_sim, spec_sim)
    total = 0.0
    for i in range(20):
        estimate = local_quad_fit(z_hat, data_sim.y, z_hat[i], h_sim).c_hat
        total += (estimate - truth.link.curvature(truth.index)[i]) ** 2
    assert abs(value.value - float(np.sqrt(total / 20.0))) < 1e-10

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(9, f"NW-LOO, objective, GCV and RASE match direct-sum oracles "
              f"within 1e-10 ({elapsed:.2f}s)")


def test_c10_seeded_commands_are_byte_identical(tmp_path):
    started = time.perf_counter()
    config = {
        "links": ["g3"], "sizes": [50], "strategies": ["true"], "method": "gcv",
        "reps": 2, "seed": 11, "noise_sd": 0.1, "basis_dim": 9, "grid_size": 3,
        "opt_budget": 60, "candidate_count": 20, "keep_best": 2,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    shared_data = tmp_path / "eco.csv"
    outputs = {}
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        # synth writes to run-local paths (its outputs embed no paths);
        # fit and plot reread the same shared input so their artifacts,
        # which record the data path, see identical inputs
        assert cli_main(["synth", "--out", str(base / "synth.csv"), "--n", "80",
                         "--seed", "2", "--link", "g2", "--basis-dim", "7"]) == 0
        if run == "one":
            assert cli_main(["synth", "--out", str(shared_data), "--n", "80",
                             "--seed", "2", "--link", "g2", "--basis-dim", "7"]) == 0
        assert cli_main(["fit", "--data", str(shared_data), "--out", str(base / "fit"),
                         "--strategy", "linear,equal", "--seed", "4", "--basis-dim", "7",
                         "--budget", "120", "--grid-size", "4"]) == 0
        assert cli_main(["plot", "--fit", str(base / "fit" / "fit.json"),
                         "--data", str(shared_data), "--out", str(base / "plots"),
                         "--truth", str(shared_data) + ".truth.json", "--svg"]) == 0
        assert cli_main(["simulate", "--config", str(config_path),
                         "--out", str(base / "tables")]) == 0
        outputs[run] = {
            str(path.relative_to(base)): path.read_bytes()
            for path in sorted(base.rglob("*")) if path.is_file()
        }

    assert outputs["one"].keys() == outputs["two"].keys()
    differing = [name for name in outputs["one"]
                 if outputs["one"][name] != outputs["two"][name]]
    elapsed = time.perf_counter() - started
    assert not differing, differing
    assert elapsed < 60.0
    report(10, f"synth, fit, plot and simulate byte-identical across reruns "
               f"({len(outputs['one'])} files, {elapsed:.1f}s)")
