"""End-to-end tests of the command-line interface and its exit codes."""

import json

import numpy as np
import pytest

from fsim import bandwidth, cli, ingest, optimize
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

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path / "s.csv", "--n", 10, "--seed", -1) == 1
        assert "--seed >= 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_bad_parameters_are_data_errors(self, tmp_path):
        assert run("synth", "--out", tmp_path / "no-such-dir" / "s.csv", "--n", 10) == 2

    # the smallest bases hold fewer than the four leading truth coefficients
    @pytest.mark.parametrize("basis_dim", [3, 4])
    def test_smallest_bases(self, tmp_path, basis_dim):
        out = tmp_path / "s.csv"
        assert run("synth", "--out", out, "--n", 10, "--basis-dim", basis_dim) == 0
        assert len(out.read_text().splitlines()) == 11
        truth = ingest.EcologyTruth.from_json(tmp_path / "s.csv.truth.json")
        assert truth.basis_dim == basis_dim
        assert len(truth.beta1) == len(truth.beta2) == basis_dim - 1
        joint = np.concatenate([truth.beta1, truth.beta2])
        assert np.linalg.norm(joint) == pytest.approx(1.0)

    @pytest.mark.parametrize("flag, value", [("--n", 0), ("--noise-sd", -1),
                                             ("--basis-dim", 2), ("--basis-dim", 38),
                                             ("--noise-sd", "nan"), ("--alpha", "inf")])
    def test_out_of_range_argument_is_usage_error(self, tmp_path, flag, value):
        assert run("synth", "--out", tmp_path / "s.csv", "--n", 10, flag, value) == 1
        assert not any(tmp_path.iterdir())


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

    def test_header_only_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "eco.csv"
        path.write_text(",".join(ingest.REQUIRED_COLUMNS) + "\n")
        assert run("fit", "--data", path, "--out", tmp_path / "o") == 2
        assert "no records to convert" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_undecodable_file_is_data_error(self, tmp_path):
        path = tmp_path / "eco.csv"
        path.write_bytes(b"\xff\xfe\x00")
        assert run("fit", "--data", path, "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

    def test_unknown_strategy_is_usage_error(self, synth_inputs, tmp_path):
        assert run("fit", "--data", synth_inputs["data"], "--out", tmp_path / "o",
                   "--strategy", "best") == 1

    def test_grid_searches_of_every_strategy_share_one_lockstep(self, synth_inputs, tmp_path,
                                                                 monkeypatch):
        in_parts = optimize._in_parts
        counts = []

        def spy(run, count):
            counts.append(count)
            return in_parts(run, count)

        monkeypatch.setattr(optimize, "_in_parts", spy)
        assert run("fit", "--data", synth_inputs["data"], "--out", tmp_path / "o",
                   "--basis-dim", 7, "--budget", 40, "--grid-size", 3, "--candidates", 20,
                   "--keep", 3) == 0
        failed = json.loads((tmp_path / "o" / "fit.json").read_text())["selection"][
            "failed_strategies"]
        assert not failed
        # linear, equal and random each search all three bandwidths
        assert counts == [3 * 3]

    def test_duplicate_strategy_is_usage_error(self, synth_inputs, tmp_path, capsys):
        assert run("fit", "--data", synth_inputs["data"], "--out", tmp_path / "o",
                   "--strategy", "equal,random, random") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "named twice" in err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_is_usage_error(self, synth_inputs, tmp_path, capsys):
        assert run("fit", "--data", synth_inputs["data"], "--out", tmp_path / "o",
                   "--seed", -1) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed" in err
        assert not (tmp_path / "o").exists()

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
                                             ("--candidates", 0), ("--keep", 0),
                                             ("--budget", -1), ("--basis-dim", 0),
                                             ("--basis-dim", 1), ("--basis-dim", 38)])
    def test_out_of_range_argument_is_usage_error(self, synth_inputs, tmp_path, flag, value):
        assert run("fit", "--data", synth_inputs["data"], "--out", tmp_path / "o",
                   "--method", "kfold", flag, value) == 1
        assert not (tmp_path / "o").exists()

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

    def test_trailing_blank_line_fits_as_the_clean_file(self, synth_inputs, tmp_path):
        data = tmp_path / "eco.csv"
        data.write_text(synth_inputs["data"].read_text() + "\n")
        fits = []
        for source, out in ((synth_inputs["data"], tmp_path / "clean"), (data, tmp_path / "blank")):
            assert run("fit", "--data", source, "--out", out, "--strategy", "equal",
                       "--basis-dim", 7, "--budget", 40, "--grid-size", 2) == 0
            fits.append(json.loads((out / "fit.json").read_text()))
        assert fits[0]["model"] == fits[1]["model"]
        assert fits[0]["selection"] == fits[1]["selection"]

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

    @pytest.mark.parametrize("points", [0, -3])
    def test_grid_points_below_one_is_usage_error(self, synth_inputs, tmp_path, points):
        out = tmp_path / "plots_no_grid"
        assert run("plot", "--fit", synth_inputs["fit"], "--data", synth_inputs["data"],
                   "--out", out, "--truth", synth_inputs["truth"], "--svg",
                   "--grid-points", points) == 1
        assert not out.exists()

    def test_missing_artifacts_is_data_error(self, synth_inputs, tmp_path):
        assert run("plot", "--fit", tmp_path / "none.json",
                   "--data", synth_inputs["data"], "--out", tmp_path / "o") == 2

    # (section, key, value): key None drops the section; the fit has 7-dimensional blocks
    @pytest.mark.parametrize("section, key, value", [
        ("model", None, None), ("selection", "chosen_h", "abc"),
        ("selection", "chosen_h", -1), ("metadata", "basis_dim", 5),
        ("model", "alpha", None),
    ], ids=["no-model", "text-bandwidth", "negative-bandwidth", "basis-mismatch", "no-alpha"])
    def test_inconsistent_fit_is_data_error(self, synth_inputs, tmp_path, section, key, value):
        payload = json.loads(synth_inputs["fit"].read_text())
        if key is None:
            del payload[section]
        else:
            payload[section][key] = value
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps(payload))
        out = tmp_path / "plots"
        assert run("plot", "--fit", fit, "--data", synth_inputs["data"], "--out", out,
                   "--truth", synth_inputs["truth"]) == 2
        assert not out.exists()

    # (key, value): a truth file with an unknown link or a short coefficient vector
    @pytest.mark.parametrize("key, value", [("link", "g9"), ("beta1", None)],
                             ids=["unknown-link", "short-beta"])
    def test_bad_truth_is_data_error(self, synth_inputs, tmp_path, key, value):
        payload = json.loads(synth_inputs["truth"].read_text())
        payload[key] = payload[key][:-1] if value is None else value
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps(payload))
        out = tmp_path / "plots"
        assert run("plot", "--fit", synth_inputs["fit"], "--data", synth_inputs["data"],
                   "--out", out, "--truth", truth) == 2
        assert not out.exists()

    # a block that does not hold the 6 finite coefficients, without a constant
    # term, of the fit's 7-dimensional covariate basis
    @pytest.mark.parametrize("key, value", [
        ("include_constant", True), ("basis_dim", 7), ("coefficients", [0.5] * 5),
        ("coefficients", [0.5] * 5 + ["x"]), ("coefficients", [0.5] * 5 + [float("nan")]),
    ], ids=["constant", "basis-dim", "short", "text", "nan"])
    def test_block_not_on_the_fit_basis_is_data_error(self, synth_inputs, tmp_path, key,
                                                      value):
        payload = json.loads(synth_inputs["fit"].read_text())
        payload["model"]["blocks"][1][key] = value
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps(payload))
        out = tmp_path / "plots"
        assert run("plot", "--fit", fit, "--data", synth_inputs["data"], "--out", out) == 2
        assert not out.exists()

    def test_undecodable_data_is_data_error(self, synth_inputs, tmp_path):
        data = tmp_path / "latin1.csv"
        data.write_bytes(synth_inputs["data"].read_bytes().replace(b"W", b"\xd7", 1))
        out = tmp_path / "plots"
        assert run("plot", "--fit", synth_inputs["fit"], "--data", data, "--out", out) == 2
        assert not out.exists()

    def test_bug_is_not_a_data_error(self, synth_inputs, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a bug, not bad data")

        monkeypatch.setattr(cli, "compute_index", broken)
        with pytest.raises(ValueError, match="a bug"):
            run("plot", "--fit", synth_inputs["fit"], "--data", synth_inputs["data"],
                "--out", tmp_path / "plots")

    def test_fit_with_a_bandwidth_record_plots_the_same(self, synth_inputs, tmp_path):
        # fit.json files written before the record was dropped carry
        # model.bandwidth_record, which plotting never used
        payload = json.loads(synth_inputs["fit"].read_text())
        assert "bandwidth_record" not in payload["model"]
        payload["model"]["bandwidth_record"] = 0.4
        old_fit = tmp_path / "fit.json"
        old_fit.write_text(json.dumps(payload))
        outputs = {}
        for name, fit in (("new", synth_inputs["fit"]), ("old", old_fit)):
            out = tmp_path / name
            assert run("plot", "--fit", fit, "--data", synth_inputs["data"], "--out", out,
                       "--truth", synth_inputs["truth"], "--svg") == 0
            outputs[name] = {f.name: f.read_bytes() for f in out.iterdir()}
        assert len(outputs["new"]) == 9
        assert outputs["old"] == outputs["new"]

    def test_truth_in_its_own_basis(self, synth_inputs, tmp_path):
        # the truth has 7 basis functions, the fit 5
        fit_dir = tmp_path / "fit5"
        assert run("fit", "--data", synth_inputs["data"], "--out", fit_dir,
                   "--strategy", "equal", "--basis-dim", 5, "--budget", 40,
                   "--grid-size", 2) == 0
        out = tmp_path / "plots"
        assert run("plot", "--fit", fit_dir / "fit.json", "--data", synth_inputs["data"],
                   "--out", out, "--truth", synth_inputs["truth"]) == 0
        header = (out / "coefficients.csv").read_text().splitlines()[0]
        assert header == "t,beta_precip,beta_temp,beta_precip_true,beta_temp_true"
        assert (out / "index_scatter.csv").exists()


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
        # out-of-range values stop before the output directory is made
        for overrides in ({"noise_sd": -0.1}, {"basis_dim": 3}, {"sizes": [50, 0]}):
            config = self.write_config(tmp_path / "config.json", **overrides)
            assert run("simulate", "--config", config, "--out", tmp_path / "o") == 1
        assert not (tmp_path / "o").exists()

    # each bad seed, count or value of the wrong type is one line on stderr and
    # exit 1, before the output directory is made; a bool is not a count, a
    # string is not a list
    @pytest.mark.parametrize("overrides, flag_seed, message", [
        pytest.param({"seed": -3}, None, "seed must be an integer >= ", id="-3-None"),
        pytest.param({"seed": 1.5}, None, "seed must be an integer >= ", id="1.5-None"),
        pytest.param({"seed": "abc"}, None, "seed must be an integer >= ", id="abc-None"),
        pytest.param({"seed": True}, None, "seed must be an integer >= ", id="True-None"),
        pytest.param({"seed": 11}, -2, "seed must be an integer >= ", id="11--2"),
        pytest.param({"reps": 2.5}, None, "reps must be an integer >= ", id="reps-2.5"),
        pytest.param({"reps": True, "sizes": [30.7]}, None, "reps must be an integer >= ",
                     id="reps-True"),
        pytest.param({"sizes": [50, 30.7]}, None, "sizes[1] must be an integer >= ",
                     id="sizes-30.7"),
        pytest.param({"basis_dim": 9.0}, None, "basis_dim must be an integer >= ",
                     id="basis_dim-9.0"),
        pytest.param({"grid_size": 2.0}, None, "grid_size must be an integer >= ",
                     id="grid_size-2.0"),
        pytest.param({"folds": 2.5}, None, "folds must be an integer >= ", id="folds-2.5"),
        pytest.param({"opt_budget": 10.5}, None, "opt_budget must be an integer >= ",
                     id="opt_budget-10.5"),
        pytest.param({"candidate_count": 20.5}, None, "candidate_count must be an integer >= ",
                     id="candidate_count-20.5"),
        pytest.param({"keep_best": False}, None, "keep_best must be an integer >= ",
                     id="keep_best-False"),
        pytest.param({"noise_sd": True}, None, "noise_sd must be a finite number >= 0",
                     id="noise_sd-True"),
        pytest.param({"noise_sd": float("nan")}, None, "noise_sd must be a finite number >= 0",
                     id="noise_sd-nan"),
        pytest.param({"noise_sd": float("inf")}, None, "noise_sd must be a finite number >= 0",
                     id="noise_sd-inf"),
        pytest.param({"rescale_comparison": "no"}, None, "rescale_comparison must be a bool",
                     id="rescale_comparison-no"),
        pytest.param({"links": "g3"}, None, "links must be a list", id="links-string"),
        pytest.param({"strategies": "true"}, None, "strategies must be a list",
                     id="strategies-string"),
        pytest.param({"sizes": "50"}, None, "sizes must be a list", id="sizes-string"),
        pytest.param({"links": [["g1"]]}, None,
                     "links[0] must be one of g1, g2, g3, got ['g1']", id="links-nested"),
        pytest.param({"links": ["g3", 1]}, None, "links[1] must be one of g1, g2, g3, got 1",
                     id="links-number"),
        pytest.param({"links": ["g9"]}, None, "links[0] must be one of g1, g2, g3, got 'g9'",
                     id="links-unknown"),
        pytest.param({"strategies": [["true"]]}, None,
                     "strategies[0] must be one of true, linear, equal, random, got ['true']",
                     id="strategies-nested"),
        pytest.param({"strategies": [None]}, None, "strategies[0] must be one of ",
                     id="strategies-null"),
    ])
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, overrides, flag_seed, message):
        config = self.write_config(tmp_path / "config.json", **overrides)
        extra = () if flag_seed is None else ("--seed", flag_seed)
        assert run("simulate", "--config", config, "--out", tmp_path / "o", *extra) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "o").exists()

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
