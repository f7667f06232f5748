"""Statistics of the paired A/B driver, on fixed numbers; no benchmark runs."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
SPEC = importlib.util.spec_from_file_location("ab_pairs", PATH)
ab_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab_pairs)

END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.02}]


MACHINE = {"nproc": 2, "cpus_usable": 2, "blas_threads": 2}


def run(wall, rss, failed=0, correct=True, rse=0.5, machine=MACHINE, concave=None):
    return {"correct": correct, "failed": failed, "machine": dict(machine),
            "metrics": {"wall_s": wall, "peak_rss_mb": rss},
            "accuracy": {"failed_frac": 0.0, "rse_p50": rse, "rase_p50": 0.1, "rase2_p50": 9.0,
                         "concave_frac": concave}}


def test_parse_seeds():
    assert ab_pairs.parse_seeds("1001-1003") == [1001, 1002, 1003]
    assert ab_pairs.parse_seeds("5, 7,10-11") == [5, 7, 10, 11]


def test_quartiles_inclusive():
    assert ab_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_count_strict_improvements_only():
    parent = [10.0, 10.0, 10.0, 10.0]
    change = [9.0, 10.0, 11.0, 8.0]
    assert ab_pairs.wins(parent, change, "lower") == 2
    assert ab_pairs.wins(parent, change, "higher") == 1
    with pytest.raises(ValueError):
        ab_pairs.wins(parent, change, "closer")


def test_within_bound_on_either_side():
    assert ab_pairs.within_bound(10.0, 12.5, "lower", 0.25)
    assert not ab_pairs.within_bound(10.0, 12.6, "lower", 0.25)
    assert ab_pairs.within_bound(10.0, 7.5, "higher", 0.25)
    assert not ab_pairs.within_bound(10.0, 7.4, "higher", 0.25)
    # an improvement is always within bound
    assert ab_pairs.within_bound(10.0, 1.0, "lower", 0.0)
    assert ab_pairs.within_bound(10.0, 20.0, "higher", 0.0)


def test_parse_run_reads_the_last_two_lines():
    first = {"facts": {"nproc": 4, "cpus_usable": 2, "blas": {"vendor": "x", "threads": 1}},
             "fits": 3, "report": "x",
             "unbounded": {"rse_p50": {"value": 0.25, "unit": "1"},
                           "failed_frac": {"value": 0.0, "unit": "ratio"}}}
    last = {"correct": True, "attempted": 3, "failed": 1,
            "metrics": {"wall_s": {"value": 12.5, "unit": "s"}}}
    parsed = ab_pairs.parse_run("noise\n" + json.dumps(first) + "\n" + json.dumps(last) + "\n")
    assert parsed["correct"] is True and parsed["failed"] == 1
    assert parsed["metrics"] == {"wall_s": 12.5}
    assert parsed["accuracy"] == {"failed_frac": 0.0, "rse_p50": 0.25, "rase_p50": None,
                                  "rase2_p50": None, "concave_frac": None}
    assert parsed["machine"] == {"nproc": 4, "cpus_usable": 2, "blas_threads": 1}
    # a run without the facts line has unknown machine facts
    alone = ab_pairs.parse_run(json.dumps(last))
    assert alone["machine"] == {"nproc": None, "cpus_usable": None, "blas_threads": None}


@pytest.mark.parametrize("fact", ["nproc", "cpus_usable", "blas_threads"])
def test_pairs_with_different_machine_facts_are_refused(fact):
    assert ab_pairs.pair_problem(run(10.0, 40.0), run(9.0, 40.0)) is None
    other = run(9.0, 40.0, machine=dict(MACHINE, **{fact: 1}))
    problem = ab_pairs.pair_problem(run(10.0, 40.0), other)
    assert problem.startswith("machine facts differ")
    assert f"{fact} 1" in problem and f"{fact} 2" in problem


def test_summary_lines():
    pairs = [(run(10.0, 40.0), run(8.0, 41.0)),
             (run(12.0, 40.0), run(9.0, 40.0)),
             (run(11.0, 40.0, failed=1), run(11.0, 42.0, failed=1, rse=0.6))]
    lines = ab_pairs.summary_lines(pairs, END_TO_END)
    wall = next(line for line in lines if line.startswith("wall_s"))
    assert "11 [10.5, 11.5]" in wall and "9 [8.5, 10]" in wall
    assert wall.endswith("2/3 (-18.2% in the median), within bound 25%")
    rss = next(line for line in lines if line.startswith("peak_rss_mb"))
    assert rss.endswith("0/3 (+2.5% in the median), beyond bound 2%")
    looser = [dict(END_TO_END[1], bound=0.1)]
    assert ab_pairs.summary_lines(pairs, looser)[1].endswith("within bound 10%")
    machine = "nproc 2, cpus_usable 2, blas_threads 2"
    assert f"parent: failed 1, correct 3/3; {machine}" in lines
    assert f"change: failed 1, correct 3/3; {machine}" in lines
    assert lines[-1].endswith(": 2/3")


def test_concave_frac_is_compared():
    # the fit-and-plot workload reports concave_frac and none of the Monte-Carlo figures
    eco = {"facts": {}, "unbounded": {name: {"value": None} for name in ab_pairs.ACCURACY}}
    eco["unbounded"]["concave_frac"] = {"value": 0.4, "unit": "ratio"}
    last = {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": 20.0, "unit": "s"}}}
    parsed = ab_pairs.parse_run(json.dumps(eco) + "\n" + json.dumps(last))
    assert parsed["accuracy"]["concave_frac"] == 0.4
    pairs = [(run(10.0, 40.0, concave=0.4), run(9.0, 40.0, concave=0.4)),
             (run(10.0, 40.0, concave=0.4), run(9.0, 40.0, concave=0.45))]
    lines = ab_pairs.summary_lines(pairs, END_TO_END)
    assert "concave_frac" in lines[-1]
    assert lines[-1].endswith(": 1/2")


PARENT_WALL = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]


@pytest.mark.parametrize("change, ratio, met", [
    # ten wins, medians 1.5 apart against a parent IQR of 0.9
    ([v - 1.5 for v in PARENT_WALL], 1.5 / 0.9, True),
    # the same gap but two losses: 8/10 wins
    ([v - 1.5 for v in PARENT_WALL[:8]] + [12.0, 12.0], 1.5 / 0.9, False),
    # ten wins, but the gap of 0.5 is below the IQR
    ([v - 0.5 for v in PARENT_WALL], 0.5 / 0.9, False),
])
def test_gain_rule(change, ratio, met):
    got_ratio, got_met = ab_pairs.gain_rule(PARENT_WALL, change, "lower")
    assert got_ratio == pytest.approx(ratio) and got_met is met
    # the same figures for a metric where higher is better
    flipped = ab_pairs.gain_rule([-v for v in PARENT_WALL], [-v for v in change], "higher")
    assert flipped[0] == pytest.approx(ratio) and flipped[1] is met
    pairs = [(run(a, 40.0), run(b, 40.0)) for a, b in zip(PARENT_WALL, change)]
    lines = ab_pairs.summary_lines(pairs, END_TO_END[:1])
    assert lines[2].endswith(f"median gap {ratio:.2f} times the parent's IQR, "
                             f"gain rule {'met' if met else 'not met'}")


def test_each_side_runs_on_its_own_fresh_caches(tmp_path, monkeypatch, capsys):
    # one untimed set-up import per side writes its cache, the change's side
    # first, then every run of a side reads that side's cache
    calls = []
    facts = {"facts": {"nproc": 2, "cpus_usable": 2, "blas": {"threads": 1}}, "unbounded": {}}
    last = {"correct": True, "failed": 0,
            "metrics": {name: {"value": 1.0} for name in ("setup_s", "wall_s", "peak_rss_mb")}}

    def fake_run(command, cwd, env=None, **kwargs):
        calls.append((pathlib.Path(cwd), command, env))
        return subprocess.CompletedProcess(
            command, 0, stdout=json.dumps(facts) + "\n" + json.dumps(last) + "\n", stderr="")

    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(ab_pairs.tempfile, "mkdtemp", lambda prefix: str(scratch))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    parent = tmp_path / "parent"
    assert ab_pairs.main(["--workload", "mc_kfold_n100", "--seeds", "7-8",
                          "--parent-dir", str(parent)]) == 0
    assert "2 complete pairs" in capsys.readouterr().out
    root = ab_pairs.ROOT
    assert [tree for tree, _, _ in calls] == [root, parent, parent, root, root, parent]
    # each side also keeps its own kernel library cache, as a build removes
    # every other library of its cache directory
    for variable in ("PYTHONPYCACHEPREFIX", "XDG_CACHE_HOME"):
        caches = {tree: {env[variable] for _, _, env in group}
                  for tree, group in [(t, [c for c in calls if c[0] == t])
                                      for t in (parent, root)]}
        [[parent_cache], [change_cache]] = caches.values()
        assert parent_cache != change_cache
        assert {pathlib.Path(parent_cache).parent,
                pathlib.Path(change_cache).parent} == {scratch}
    for _, command, env in calls[:2]:
        assert command[1:2] == ["perfbench/workloads.py"] and command[-2:] == ["--mode", "setup"]
        assert "PYTHONDONTWRITEBYTECODE" not in env
    for _, command, env in calls[2:]:
        assert command[1] == "perfbench/run.py" and env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert not scratch.exists()
