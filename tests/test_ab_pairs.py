"""Statistics of the paired A/B driver, on fixed numbers; no benchmark runs."""

import importlib.util
import json
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
SPEC = importlib.util.spec_from_file_location("ab_pairs", PATH)
ab_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab_pairs)

END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.02}]


MACHINE = {"nproc": 2, "cpus_usable": 2, "blas_threads": 2}


def run(wall, rss, failed=0, correct=True, rse=0.5, machine=MACHINE):
    return {"correct": correct, "failed": failed, "machine": dict(machine),
            "metrics": {"wall_s": wall, "peak_rss_mb": rss},
            "accuracy": {"failed_frac": 0.0, "rse_p50": rse, "rase_p50": 0.1, "rase2_p50": 9.0}}


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
                                  "rase2_p50": None}
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
