"""End-to-end tests of the command-line interface and its exit codes."""

import json

import numpy as np
import pytest

from fsim import bandwidth
from fsim.cli import main
from fsim.locfit import EstimationError


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_inputs(tmp_path_factory):
    """A small synthetic ecology file with concave truth, plus its fit."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "eco.csv"
    truth = root / "eco.csv.truth.json"
    assert run("synth", "--out", data, "--n", 90, "--seed", 5, "--link", "g2",
               "--noise-sd", "0.05", "--basis-dim", 7) == 0
    fit_dir = root / "fit"
    code = run("fit", "--data", data, "--out", fit_dir, "--strategy", "linear,equal",
               "--method", "gcv", "--seed", 3, "--basis-dim", 7, "--budget", 150,
               "--grid-size", 4)
    assert code == 0
    return {"root": root, "data": data, "truth": truth, "fit": fit_dir / "fit.json"}


class TestSynth:
    def test_writes_csv_and_truth(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("synth", "--out", out, "--n", 10, "--seed", 1) == 0
        assert out.exists()
        assert (tmp_path / "s.csv.truth.json").exists()

    def test_bad_parameters_are_data_errors(self, tmp_path):
        assert run("synth", "--out", tmp_path / "s.csv", "--n", 10, "--basis-dim", 2) == 2


class TestFit:
    def test_artifact_contents(self, synth_inputs):
        payload = json.loads(synth_inputs["fit"].read_text())
        assert payload["selection"]["strategy"] in ("linear", "equal")
        assert payload["selection"]["chosen_h"] > 0
        assert payload["selection"]["chosen_h_curvature"] > 0
        blocks = payload["model"]["blocks"]
        assert [b["label"] for b in blocks] == ["precip", "temp"]
        coeffs = np.concatenate([b["coefficients"] for b in blocks])
        assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-9)
        per_strategy = payload["selection"]["per_strategy"]
        assert set(per_strategy) == {"linear", "equal"}
        for entry in per_strategy.values():
            assert len(entry["grid"]) == 4

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("fit", "--data", tmp_path / "nope.csv", "--out", tmp_path / "o") == 2

    def test_unknown_strategy_is_usage_error(self, synth_inputs, tmp_path):
        assert run("fit", "--data", synth_inputs["data"], "--out", tmp_path / "o",
                   "--strategy", "best") == 1

    def test_all_strategies_failing_is_estimation_error(self, tmp_path):
        data = tmp_path / "tiny.csv"
        assert run("synth", "--out", data, "--n", 10, "--seed", 2, "--basis-dim", 13) == 0
        # 25 search dimensions with 10 samples starves the least-squares init
        assert run("fit", "--data", data, "--out", tmp_path / "o",
                   "--strategy", "linear", "--basis-dim", 13) == 3

    def test_bug_is_not_an_estimation_failure(self, synth_inputs, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a bug, not a failed estimate")

        monkeypatch.setattr(bandwidth, "select_bandwidth", broken)
        with pytest.raises(ValueError, match="a bug"):
            run("fit", "--data", synth_inputs["data"], "--out", tmp_path / "o",
                "--strategy", "equal", "--basis-dim", 7)

    def test_estimation_error_exits_3(self, synth_inputs, tmp_path, monkeypatch):
        class NoEstimate(EstimationError):
            pass

        def failing(*args, **kwargs):
            raise NoEstimate("the data admit no estimate")

        monkeypatch.setattr(bandwidth, "select_bandwidth", failing)
        assert run("fit", "--data", synth_inputs["data"], "--out", tmp_path / "o",
                   "--strategy", "equal,random", "--basis-dim", 7) == 3

    @pytest.mark.parametrize("flag, value", [("--grid-size", 0), ("--folds", 1),
                                             ("--candidates", 0), ("--keep", 0)])
    def test_out_of_range_argument_is_usage_error(self, synth_inputs, tmp_path, flag, value):
        assert run("fit", "--data", synth_inputs["data"], "--out", tmp_path / "o",
                   "--method", "kfold", flag, value) == 1

    def test_folds_are_not_checked_for_gcv(self, synth_inputs, tmp_path):
        assert run("fit", "--data", synth_inputs["data"], "--out", tmp_path / "o",
                   "--strategy", "equal", "--basis-dim", 7, "--budget", 40,
                   "--grid-size", 2, "--folds", 1) == 0

    # n=5 in two folds leaves training sets too small for the objective
    @pytest.mark.parametrize("n, method, folds", [(3, "gcv", 10), (8, "kfold", 10),
                                                  (5, "kfold", 2)])
    def test_too_few_samples_is_estimation_error(self, tmp_path, n, method, folds):
        data = tmp_path / "tiny.csv"
        assert run("synth", "--out", data, "--n", n, "--seed", 2) == 0
        assert run("fit", "--data", data, "--out", tmp_path / "o", "--method", method,
                   "--folds", folds) == 3

    def test_single_strategy_reduces_to_it(self, synth_inputs, tmp_path):
        out = tmp_path / "single"
        assert run("fit", "--data", synth_inputs["data"], "--out", out,
                   "--strategy", "equal", "--seed", 3, "--basis-dim", 7,
                   "--budget", 100, "--grid-size", 3) == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["selection"]["strategy"] == "equal"
        assert list(payload["selection"]["per_strategy"]) == ["equal"]


class TestPlot:
    def test_full_outputs_with_truth(self, synth_inputs, tmp_path):
        out = tmp_path / "plots"
        assert run("plot", "--fit", synth_inputs["fit"], "--data", synth_inputs["data"],
                   "--out", out, "--truth", synth_inputs["truth"], "--svg") == 0
        for name in ("g_curve.csv", "g2_curve.csv", "coefficients.csv",
                     "index_scatter.csv", "curvature_scatter.csv",
                     "g_curve.svg", "g2_curve.svg", "coefficients.svg"):
            assert (out / name).exists(), name
        lines = (out / "g_curve.csv").read_text().splitlines()
        assert len(lines) == 1001  # header plus the 1000-point grid
        header = lines[0].split(",")
        assert header == ["index", "g_hat", "g_true"]

    def test_truthless_outputs_omit_scatters(self, synth_inputs, tmp_path):
        out = tmp_path / "plots_no_truth"
        assert run("plot", "--fit", synth_inputs["fit"], "--data", synth_inputs["data"],
                   "--out", out) == 0
        assert (out / "g_curve.csv").exists()
        assert (out / "g2_curve.csv").exists()
        assert (out / "coefficients.csv").exists()
        assert not (out / "index_scatter.csv").exists()
        assert not (out / "curvature_scatter.csv").exists()
        assert not (out / "g_curve.svg").exists()

    def test_missing_artifacts_is_data_error(self, synth_inputs, tmp_path):
        assert run("plot", "--fit", tmp_path / "none.json",
                   "--data", synth_inputs["data"], "--out", tmp_path / "o") == 2


class TestSimulate:
    @staticmethod
    def write_config(path, **overrides):
        config = dict(
            links=["g3"], sizes=[50], strategies=["true"], method="gcv",
            reps=1, seed=11, noise_sd=0.1, basis_dim=9, grid_size=3,
            opt_budget=40, candidate_count=20, keep_best=2,
        )
        config.update(overrides)
        path.write_text(json.dumps(config))
        return path

    def test_minimal_config_runs(self, tmp_path):
        config = self.write_config(tmp_path / "config.json")
        out = tmp_path / "tables"
        assert run("simulate", "--config", config, "--out", out) == 0
        rows = json.loads((out / "results.json").read_text())["rows"]
        assert len(rows) == 1
        csv_lines = (out / "results.csv").read_text().splitlines()
        assert len(csv_lines) == 2

    def test_rescale_comparison_adds_column(self, tmp_path):
        config = self.write_config(tmp_path / "config.json", rescale_comparison=True)
        out = tmp_path / "tables"
        assert run("simulate", "--config", config, "--out", out) == 0
        header = (out / "results.csv").read_text().splitlines()[0]
        assert "rase2_original" in header
        assert "rase2" in header

    def test_byte_identical_reruns(self, tmp_path):
        config = self.write_config(tmp_path / "config.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", config, "--out", out_a) == 0
        assert run("simulate", "--config", config, "--out", out_b) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "results.json").read_bytes() == (out_b / "results.json").read_bytes()

    def test_bad_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"links": ["g3"], "bogus_key": 1}))
        assert run("simulate", "--config", bad, "--out", tmp_path / "o") == 1
        missing = tmp_path / "missing.json"
        assert run("simulate", "--config", missing, "--out", tmp_path / "o") == 1

    def test_reps_override(self, tmp_path):
        config = self.write_config(tmp_path / "config.json")
        out = tmp_path / "tables"
        assert run("simulate", "--config", config, "--out", out, "--reps", 2) == 0
        payload = json.loads((out / "results.json").read_text())
        assert payload["metadata"]["reps"] == 2
        assert payload["rows"][0]["reps"] == 2

    def test_seed_override(self, tmp_path):
        config = self.write_config(tmp_path / "config.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", config, "--out", out_a, "--seed", 99) == 0
        assert run("simulate", "--config", config, "--out", out_b, "--seed", 11) == 0
        a = json.loads((out_a / "results.json").read_text())
        b = json.loads((out_b / "results.json").read_text())
        assert a["metadata"]["seed"] == 99
        assert b["metadata"]["seed"] == 11


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as info:
            run("fit", "--out", "somewhere")
        assert info.value.code == 1
