"""The kernel timing sweep on a tiny problem: its tables and that it restores the cap."""

import importlib.util
import pathlib

from fsim import locfit

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "kernel_sweep.py"
SPEC = importlib.util.spec_from_file_location("kernel_sweep", PATH)
kernel_sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(kernel_sweep)


def test_table_of_one_round_at_a_tiny_n():
    rows = kernel_sweep.sweep([20, 30], rounds=1, seed=3)
    assert [n for n, _, _ in rows] == [20, 30]
    assert all(dense > 0.0 and window > 0.0 for _, dense, window in rows)
    # the cap the sweep's crossover put between 40 and 90 samples (CHANGES.md)
    assert locfit.ONE_TILE_MAX == 64
    lines = kernel_sweep.table(rows)
    assert lines[:2] == ["| n | dense stack | window sums | window speed-up |",
                         "| --- | --- | --- | --- |"]
    assert [line.split(" | ")[0] for line in lines[2:]] == ["| 20", "| 30"]
    assert all(line.endswith("× |") for line in lines[2:])


def test_table_formats_durations():
    lines = kernel_sweep.table([(300, 4.5e-4, 3.0e-4), (4000, 0.0155, 0.0081)])
    assert lines[2] == "| 300 | 450 µs | 300 µs | 1.50× |"
    assert lines[3] == "| 4000 | 15.5 ms | 8.1 ms | 1.91× |"


def test_stacked_step_table():
    seconds = kernel_sweep.stacked_step(rounds=1, seed=3)
    assert seconds > 0.0
    lines = kernel_sweep.step_table([(90, (1.5e-5, 2e-4)), (1000, (1e-4, 1.6e-3))],
                                    [("step", 2.5e-3, 4e-3), ("held-out", 1.5e-3, 2e-3)])
    assert lines == ["| full-data step, per evaluation | compiled | no compiler |",
                     "| --- | --- | --- |",
                     "| n = 90 | 15 µs | 200 µs |",
                     "| n = 1000 | 100 µs | 1.6 ms |",
                     "", "| k-fold layer, per call | compiled | no compiler |",
                     "| --- | --- | --- |", "| step | 2.5 ms | 4 ms |",
                     "| held-out | 1.5 ms | 2 ms |"]


def test_held_out_grid_scores_every_bandwidth(monkeypatch):
    # one timed grid scores each of the ten bandwidths over its ten folds
    calls = []
    score = kernel_sweep._held_out_score

    def spy(data, split, results, h):
        calls.append((data.n, len(split[0]), len(results), h))
        return score(data, split, results, h)

    monkeypatch.setattr(kernel_sweep, "_held_out_score", spy)
    assert kernel_sweep.held_out_grid(rounds=1, seed=3) > 0.0
    assert len(calls) == 50 and len({h for *_, h in calls}) == 10
    assert {call[:3] for call in calls} == {(100, 10, 10)}


def test_kfold_times_run_with_and_without_the_compiled_loops(monkeypatch):
    seen = []

    def timer(rounds, seed):
        seen.append(tuple(getattr(kernel_sweep.kernel, name, None)
                          for name in kernel_sweep.LOOPS))
        return 1e-3

    monkeypatch.setattr(kernel_sweep, "stacked_step", timer)
    monkeypatch.setattr(kernel_sweep, "held_out_grid", timer)
    rows = kernel_sweep.kfold_times(1, seed=3)
    assert [layer for layer, *_ in rows] == ["step: 50 points on 10 training sets of 90",
                                            "held-out scoring: 10 bandwidths x 10 folds, n = 100"]
    assert seen[1] == seen[3] == (None,) * len(kernel_sweep.LOOPS)
    assert seen[0] == seen[2] == tuple(getattr(kernel_sweep.kernel, name, None)
                                       for name in kernel_sweep.LOOPS)


def test_objective_time_at_a_tiny_n():
    times = kernel_sweep.objective_time(30, rounds=1, seed=3)
    assert len(times) == 2 and all(t > 0.0 for t in times)


def test_main_prints_facts_and_table(capsys):
    assert kernel_sweep.main(["--sizes", "20", "--rounds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "numpy" in out[0] and "Python" in out[0]
    assert out[0].endswith(f"kernel transform: {kernel_sweep.transform_path()}")
    assert out[1].startswith("nw_loo_all per evaluation of a 30-problem step")
    assert out[4].startswith("| 20 |")
    assert out[5].startswith("crossover: ") and "n = 20" in out[5]
    assert out[6] == "| full-data step, per evaluation | compiled | no compiler |"
    assert [line.split(" | ")[0] for line in out[8:12]] == [
        f"| n = {n}" for n in kernel_sweep.OBJECTIVE_SIZES]
    assert out[12:15] == ["", "| k-fold layer, per call | compiled | no compiler |",
                          "| --- | --- | --- |"]
    assert out[15].startswith("| step: 50 points on 10 training sets of 90 | ")
    assert out[16].startswith("| held-out scoring: 10 bandwidths x 10 folds, n = 100 | ")
    assert out[17] == "| local-quadratic layer | per call |"
    assert [line.split(" | ")[0] for line in out[19:23]] == [
        *(f"| level_fits pass, n = {n}" for n in kernel_sweep.LEVEL_SIZES),
        f"| curve_estimates, {kernel_sweep.CURVE_POINTS} points at n = {kernel_sweep.CURVE_N}"]
    assert out[23] == ("| n | window sums per evaluation, no compiler "
                       "| level_fits pass, no compiler |")
    end = 25 + len(kernel_sweep.FALLBACK_SIZES)
    assert [line.split(" | ")[0] for line in out[25:end]] == [
        f"| {n}" for n in kernel_sweep.FALLBACK_SIZES]
    assert out[end] == "| Nelder–Mead bookkeeping per step, dim 24 | compiled | no compiler |"
    assert [line.split(" | ")[0] for line in out[end + 2:end + 5]] == [
        "| 1 search", "| 30 searches", "| 100 searches"]
    assert out[end + 5] == "| leave-one-out stack, per call | one library call | no compiler |"
    assert [line.split(" | ")[0] for line in out[end + 7:]] == [
        f"| {locfit.stack_size(n)} × {n}" for n in kernel_sweep.STACK_SIZES]


def test_crossover_names_where_the_walk_keeps_winning():
    rows = [(90, 1.0, 3.0), (200, 2.0, 2.5), (300, 3.0, 2.0), (500, 4.0, 4.5), (1000, 9.0, 5.0)]
    assert kernel_sweep.crossover(rows) == (
        "crossover: between n = 500 (dense faster) and n = 1000 (window sums faster)")
    assert kernel_sweep.crossover(rows[:2]) == (
        "crossover: the dense stack is faster at n = 200, the largest size")
    assert kernel_sweep.crossover(rows[2:3]) == (
        "crossover: the window sums are faster from n = 300, the smallest size")


def test_local_quadratic_table_at_a_tiny_n():
    rows = kernel_sweep.local_quadratic_times(1, seed=3, sizes=(30,), points=40, curve_n=30)
    assert kernel_sweep.quad_table([(layer, 1.5e-3) for layer, _ in rows])[2:] == [
        "| level_fits pass, n = 30 | 1.5 ms |", "| curve_estimates, 40 points at n = 30 | 1.5 ms |"]
    assert all(seconds > 0.0 for _, seconds in rows)


def test_fallback_table_runs_without_a_compiled_loop(monkeypatch):
    # every compiled loop is off while the table runs, and back on after it
    seen = []
    quad_fits = kernel_sweep.locfit._quad_fits

    def spy(*args):
        seen.append(tuple(getattr(kernel_sweep.kernel, name, None)
                          for name in kernel_sweep.LOOPS))
        return quad_fits(*args)

    monkeypatch.setattr(kernel_sweep.locfit, "_quad_fits", spy)
    loops = [getattr(kernel_sweep.kernel, name, None) for name in kernel_sweep.LOOPS]
    rows = kernel_sweep.fallback_times(1, seed=3, sizes=(30,))
    assert [n for n, _, _ in rows] == [30] and all(t > 0.0 for _, *times in rows for t in times)
    assert seen and set(seen) == {(None,) * len(kernel_sweep.LOOPS)}
    assert [getattr(kernel_sweep.kernel, name, None) for name in kernel_sweep.LOOPS] == loops
    assert kernel_sweep.fallback_table([(90, 2.5e-4, 1.5e-3)]) == [
        "| n | window sums per evaluation, no compiler | level_fits pass, no compiler |",
        "| --- | --- | --- |", "| 90 | 250 µs | 1.5 ms |"]


def test_transform_path_names_the_loaded_library(monkeypatch):
    monkeypatch.setattr(kernel_sweep.kernel, "COMPILED_LIBRARY", "/cache/transform-0.so")
    assert kernel_sweep.transform_path() == "compiled weights (/cache/transform-0.so)"
    monkeypatch.setattr(kernel_sweep.kernel, "COMPILED_LIBRARY", None)
    assert kernel_sweep.transform_path() == "numpy passes"


def test_loops_name_every_compiled_entry_of_the_kernel():
    # the no-compiler tables switch off every loop the library gives
    assert kernel_sweep.LOOPS == ("_weights", "_window_sums", "_simplex_step",
                                  "_loo_estimates")
    assert all(hasattr(kernel_sweep.kernel, name) for name in kernel_sweep.LOOPS)


def test_bookkeeping_rows_run_with_and_without_the_compiled_step(monkeypatch):
    seen = []
    nelder_mead = kernel_sweep._nelder_mead

    def spy(objective, starts, budget):
        seen.append((kernel_sweep.kernel._simplex_step, starts.shape, budget))
        return nelder_mead(objective, starts, budget)

    monkeypatch.setattr(kernel_sweep, "_nelder_mead", spy)
    rows = kernel_sweep.bookkeeping_times(1, seed=3, searches=(2,))
    assert [count for count, *_ in rows] == [2] and all(t > 0.0 for t in rows[0][1:])
    assert [shape for _, shape, _ in seen] == [(2, 24)] * 2
    assert seen[0][0] is kernel_sweep.kernel._simplex_step and seen[1][0] is None
    assert kernel_sweep.bookkeeping_table([(1, 1.5e-5, 6e-5), (30, 3e-5, 2e-4)]) == [
        "| Nelder–Mead bookkeeping per step, dim 24 | compiled | no compiler |",
        "| --- | --- | --- |", "| 1 search | 15 µs | 60 µs |", "| 30 searches | 30 µs | 200 µs |"]


def test_stack_rows_run_with_and_without_the_compiled_loops(monkeypatch):
    seen = []
    nw_loo_all = kernel_sweep.locfit.nw_loo_all

    def spy(z, y, h):
        seen.append((kernel_sweep.kernel._loo_estimates, z.shape))
        return nw_loo_all(z, y, h)

    monkeypatch.setattr(kernel_sweep.locfit, "nw_loo_all", spy)
    loop = kernel_sweep.kernel._loo_estimates
    rows = kernel_sweep.stack_times(1, seed=3, sizes=(70,))
    assert [n for n, *_ in rows] == [70] and all(t > 0.0 for t in rows[0][1:])
    assert {shape for _, shape in seen} == {(locfit.stack_size(70), 70)}
    assert [entry[0] for entry in seen[::10]] == [loop, None]
    assert kernel_sweep.kernel._loo_estimates is loop
    assert kernel_sweep.stack_table([(90, 2e-4, 8e-3)]) == [
        "| leave-one-out stack, per call | one library call | no compiler |",
        "| --- | --- | --- |", "| 91 × 90 | 200 µs | 8 ms |"]
