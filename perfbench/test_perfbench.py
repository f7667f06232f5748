"""Self-tests of the benchmark: tracing, checks, and the printed metric names."""

import json
import math
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

import tracing
import workloads

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# a miniature of the MC workloads so the real run paths execute in about a second
TINY = workloads.MonteCarlo("g1", 40, "gcv", inputs=1, pass_s=1.0, trace_fits=1)


def fsim_bindings():
    return {(name, key): value for name, module in sorted(sys.modules.items())
            if name == "fsim" or name.startswith("fsim.")
            for key, value in vars(module).items() if callable(value)}


def args(mode):
    return types.SimpleNamespace(workload="tiny", seed=3, seconds=0.0, mode=mode)


def test_self_time_with_nested_and_abutting_children():
    spans = [
        ["parent", 0.0, 10.0, None, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["a.child", 2.0, 3.0, 1, 0, None],
        ["b", 4.0, 6.0, 0, 0, None],
        ["other", 11.0, 12.0, None, 1, None],
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]
    assert tracing.covered_seconds(spans, {0}) == 10.0


def test_traced_run_restores_every_binding(tmp_path):
    before = fsim_bindings()
    report = workloads.run_traced(TINY, args("trace"), tmp_path)
    after = fsim_bindings()
    assert before.keys() == after.keys()
    assert [key for key in before if before[key] is not after[key]] == []
    printed = {name: entry["unit"] for name, entry in report["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = {name: entry["value"] for name, entry in report["metrics"].items()}
    assert metrics["locfit.nw_loo_all.calls"] == metrics["model.objective_loo_mse.calls"] > 0
    # transform_inplace is bound in fsim.locfit and fsim.kernel; both are traced
    assert metrics["kernel.transform_inplace.calls"] == (
        metrics["locfit.nw_loo_all.calls"] + metrics["kernel.smooth_kernel.calls"])
    assert metrics["simulate.generate.self_s"] > 0


def test_tracer_restores_bindings_when_the_body_raises():
    before = fsim_bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            assert fsim_bindings() != before
            raise RuntimeError("boom")
    assert all(before[key] is value for key, value in fsim_bindings().items())


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("the untraced run installed a tracer")

    monkeypatch.setattr(tracing.Tracer, "installed", refuse)
    before = fsim_bindings()
    report = workloads.run(TINY, args("run"), tmp_path, probes=0)
    assert report["attempted"] == 1
    assert all(before[key] is value for key, value in fsim_bindings().items())


@pytest.mark.parametrize("values, norm", [
    ({"rse": math.nan, "rase": 0.1, "rase2": 1.0}, None),
    ({"rse": 0.1, "rase": math.inf, "rase2": 1.0}, None),
    ({}, 1.0 + 1e-9),
    ({}, math.nan),
])
def test_nan_or_non_unit_fit_counts_as_failed(values, norm):
    problem = workloads.fit_problem(values, norm)
    assert problem
    record = workloads.finish({"error": None, "problem": problem})
    summary = workloads.summarize([record, workloads.finish({"error": None, "problem": None})])
    assert (summary["failed"], summary["attempted"], summary["correct"]) == (1, 2, False)


def test_sound_fit_passes_the_checker():
    assert workloads.fit_problem({"rse": 0.1, "rase": 0.02, "rase2": 30.0}, 1.0) is None


def test_fit_count_is_whole_passes_whatever_the_speed():
    gcv = workloads.WORKLOADS["mc_gcv_n1000"]
    assert workloads.fit_count(gcv, BENCHMARK["run_seconds"]) % gcv.inputs == 0
    assert workloads.fit_count(gcv, 4 * gcv.pass_s) == 4 * gcv.inputs
    assert workloads.fit_count(gcv, 0) == 1


def test_printed_metric_names_match_benchmark_json():
    root = HERE.parent
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mc_kfold_n100", "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_kfold_n100", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
