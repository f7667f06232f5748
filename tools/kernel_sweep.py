"""Per-evaluation timing of the leave-one-out kernel sums and of the objective around them.

    python3 tools/kernel_sweep.py --sizes 40,64,90,128,200,256,1000 --rounds 7

For each n the script draws a link-g3 sample (``simulate.generate``, seed
``--seed``) and times one lockstep step of ``STEP_POINTS`` = 30 leave-one-out
problems, its true index at the bandwidths of the default 10-bandwidth grid
in turn, through ``nw_loo_all`` in calls of ``locfit.stack_size`` problems,
as a coefficient search's step makes them: once on dense stacks and once on
the sorted window sums (one ``kernel.loo_estimates`` call per call), by
setting ``locfit.ONE_TILE_MAX`` for the duration of each round: to n for the
dense stacks and to n - 1 for the window sums.  A round times one step on
each path; the path that runs first alternates from round to round, and
each path keeps its best round.  The script prints the machine facts, with
the kernel transform that runs (the compiled loops or the numpy forms; see
``fsim.kernel``), then a markdown table of the time per evaluation on each
path and the speed-up of the window sums, and the crossover: the sizes
between which the window sums start to win and keep winning, where
``ONE_TILE_MAX`` belongs.  A second table times a full-data lockstep step of
30 points (a g3 draw near its true coefficients, at the bandwidths of its
grid in turn) at n = 40, 90, 200 and 1000: one full-data
``StackedObjective`` call (one search per point), per evaluation, with
the compiled loops and with every compiled loop of ``fsim.kernel`` set to
``None``; best of ``--rounds`` rounds.  Under it comes a table of the
k-fold layers, with the compiled loops and without them: one stacked
k-fold step (one ``StackedObjective`` call with 50 points, one per
search, on the ten 90-sample training sets of a 100-sample g1 draw, at
five bandwidths of its grid, best of ``--rounds`` rounds of ten calls),
and the held-out scoring of one k-fold grid on the same draw
(``bandwidth._held_out_score`` of each of the ten bandwidths of its grid,
over the ten fold fits from perturbed true coefficients, best of
``--rounds`` rounds of five grids).  A third table times the batched
local-quadratic fits on the same g3 draws and bandwidths: the pass
``level_fits`` makes for GCV (``locfit._quad_fits`` at every sample, which
unlike ``level_fits`` does not raise on an unusable row) at n = 250, 1000 and 4000, and one
``curve_estimates`` call of ``g''`` over 1000 grid points at n = 200, best of
``--rounds`` rounds of 20 calls.  A last table times the numpy forms that run
without a compiler: the step of the first table on the window sums and the
``level_fits`` pass at n = 90, 200 and 1000, best of ``--rounds`` rounds (a
round of the pass is five calls).  Then come the Nelder-Mead bookkeeping per
step, the objective excluded: one ``optimize._nelder_mead`` lockstep of 1,
30 and 100 searches of dimension 24 from standard normal starts, 300
evaluations each, on a cheap stand-in objective whose time is taken out,
with the compiled step (one library call per step) and without any
compiled loop, best of ``--rounds``; and one leave-one-out stack
(``nw_loo_all`` of ``locfit.stack_size(m)`` problems, a g3 draw's true
index at the bandwidths of its grid) at m = 90, 200 and 1000: as one
``kernel.loo_estimates`` library call and on the numpy walk without any
compiled loop, best of ``--rounds`` rounds of ten calls.  fsim is imported from
``PYTHONPATH`` when that provides it, else from the ``src`` directory of
this checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import pathlib
import platform
import sys
import time

import numpy as np

if importlib.util.find_spec("fsim") is None:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fsim import kernel, locfit
from fsim.bandwidth import BandwidthGrid, _fold_split, _held_out_score
from fsim.model import StackedObjective
from fsim.optimize import _nelder_mead, minimize_each
from fsim.simulate import SimScenario, generate


# points of one lockstep step, in the crossover and the step tables
STEP_POINTS = 30
# full-data step sizes of the step table
OBJECTIVE_SIZES = (40, 90, 200, 1000)
# the local-quadratic table: level_fits passes at these sizes, and one
# curve_estimates call over CURVE_POINTS grid points at n = CURVE_N
LEVEL_SIZES = (250, 1000, 4000)
CURVE_POINTS, CURVE_N = 1000, 200
# sizes of the table without a compiler, and the compiled loops it switches off
FALLBACK_SIZES = (90, 200, 1000)
LOOPS = ("_weights", "_window_sums", "_simplex_step", "_loo_estimates")
# lockstep sizes, dimension and budget of the Nelder-Mead bookkeeping table
STEP_SEARCHES, STEP_DIM, STEP_BUDGET = (1, 30, 100), 24, 300
# sample counts of the leave-one-out stack table
STACK_SIZES = (90, 200, 1000)


def transform_path() -> str:
    """Which kernel transform runs: the compiled weights and their library,
    or the numpy passes."""
    library = kernel.COMPILED_LIBRARY
    return f"compiled weights ({library})" if library else "numpy passes"


def machine_facts() -> str:
    """CPU, core count, BLAS, numpy, Python and the kernel transform, on one line."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{cpu}, {os.cpu_count()} CPUs, BLAS {blas.get('name')} {blas.get('version')}, "
            f"numpy {np.__version__}, Python {platform.python_version()}, "
            f"kernel transform: {transform_path()}")


def _step_time(z, y, hs, one_tile_max: int) -> float:
    """Seconds per evaluation of one step: ``nw_loo_all`` of the index ``z``
    at every bandwidth of ``hs``, in calls of ``stack_size`` problems, with
    ``ONE_TILE_MAX`` set."""
    saved = locfit.ONE_TILE_MAX
    locfit.ONE_TILE_MAX = one_tile_max
    try:
        step = locfit.stack_size(z.size)
        stack = np.broadcast_to(z, (step, z.size))
        started = time.perf_counter()
        for a in range(0, hs.size, step):
            part = hs[a:a + step]
            locfit.nw_loo_all(stack[:part.size], y, part)
        return (time.perf_counter() - started) / hs.size
    finally:
        locfit.ONE_TILE_MAX = saved


def sweep(sizes, rounds: int, seed: int = 0) -> list[tuple[int, float, float]]:
    """``(n, dense_s, window_s)`` per size: the best time per evaluation of a
    ``STEP_POINTS`` step on each path."""
    rows = []
    for n in sizes:
        data, truth, grid = _g3_draw(n, seed)
        z, y, hs = truth.index, data.y, np.resize(grid, STEP_POINTS)
        # ONE_TILE_MAX = n keeps the problems on dense stacks, n - 1 sends
        # them to the window sums
        paths = {"dense": n, "window": n - 1}
        best = {name: np.inf for name in paths}
        for k in range(rounds):
            for name in (paths if k % 2 == 0 else reversed(paths)):
                best[name] = min(best[name], _step_time(z, y, hs, paths[name]))
        rows.append((n, best["dense"], best["window"]))
    return rows


def crossover(rows) -> str:
    """Where the window sums overtake the dense stacks in :func:`sweep` rows:
    the first size from which the window sums are faster at every listed size."""
    faster = [window < dense for _, dense, window in rows]
    k = len(rows)
    while k and faster[k - 1]:
        k -= 1
    if k == len(rows):
        return f"crossover: the dense stack is faster at n = {rows[-1][0]}, the largest size"
    if k == 0:
        return f"crossover: the window sums are faster from n = {rows[0][0]}, the smallest size"
    return (f"crossover: between n = {rows[k - 1][0]} (dense faster) "
            f"and n = {rows[k][0]} (window sums faster)")


def _best(call, rounds: int, calls: int) -> float:
    """Best mean seconds per ``call()`` over ``rounds`` rounds of ``calls`` calls."""
    best = np.inf
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - started) / calls)
    return best


def _g3_draw(n: int, seed: int):
    """A g3 draw of ``n`` samples and the bandwidth grid at its true index."""
    data, truth = generate(SimScenario(n=n, link="g3", seed=seed))
    return data, truth, BandwidthGrid.default(n, float(np.std(truth.index))).values


def _without_compiler(call):
    """``call()`` with every compiled loop of ``fsim.kernel`` set to ``None``."""
    saved = {name: getattr(kernel, name) for name in LOOPS}
    try:
        for name in saved:
            setattr(kernel, name, None)
        return call()
    finally:
        for name, value in saved.items():
            setattr(kernel, name, value)


def objective_time(n: int, rounds: int, seed: int = 0) -> tuple[float, float]:
    """Best seconds per evaluation of a full-data lockstep step of
    ``STEP_POINTS`` points on a g3 draw of ``n`` samples, near its true
    coefficients at the bandwidths of its grid in turn, as one full-data
    ``StackedObjective`` call: ``(compiled, no compiler)``."""
    data, truth, grid = _g3_draw(n, seed)
    rng = np.random.default_rng(seed)
    points = truth.beta.coeffs + 0.05 * rng.standard_normal((STEP_POINTS, truth.beta.coeffs.size))
    hs = np.resize(grid, STEP_POINTS)
    calls = 1 if n >= 1000 else 5
    stacked, which = StackedObjective(data, None, hs), np.arange(STEP_POINTS)

    def per_evaluation():
        return _best(lambda: stacked(which, points), rounds, calls) / STEP_POINTS

    return per_evaluation(), _without_compiler(per_evaluation)


def local_quadratic_times(rounds: int, seed: int = 0, sizes=LEVEL_SIZES,
                          points: int = CURVE_POINTS, curve_n: int = CURVE_N):
    """``(layer, seconds)`` rows of the local-quadratic table: the best mean
    seconds per ``level_fits`` pass at each of ``sizes``, then per
    ``curve_estimates`` call over ``points`` grid points at ``curve_n``."""
    rows = []
    for n in sizes:
        rows.append((f"level_fits pass, n = {n}", _level_time(n, rounds, 20, seed)))
    data, truth, grid = _g3_draw(curve_n, seed)
    at = np.linspace(truth.index.min(), truth.index.max(), points)
    rows.append((f"curve_estimates, {points} points at n = {curve_n}",
                 _best(lambda: locfit.curve_estimates(truth.index, data.y, at, grid[5], 2),
                       rounds, 20)))
    return rows


def _level_time(n: int, rounds: int, calls: int, seed: int) -> float:
    """Best mean seconds per ``level_fits`` pass on a g3 draw of ``n``
    samples at the middle bandwidth of its grid."""
    data, truth, grid = _g3_draw(n, seed)
    return _best(lambda: locfit._quad_fits(truth.index, data.y, truth.index, grid[5]),
                 rounds, calls)


def fallback_times(rounds: int, seed: int = 0, sizes=FALLBACK_SIZES):
    """``(n, window_s, level_s)`` per size with every compiled loop switched
    off: the best seconds per evaluation of a :func:`sweep` step on the
    window sums and per ``level_fits`` pass, both on the numpy forms."""
    def times():
        rows = []
        for n in sizes:
            data, truth, grid = _g3_draw(n, seed)
            hs = np.resize(grid, STEP_POINTS)
            window = min(_step_time(truth.index, data.y, hs, n - 1) for _ in range(rounds))
            rows.append((n, window, _level_time(n, rounds, 5, seed)))
        return rows

    return _without_compiler(times)


def _g1_folds(seed: int):
    """A 100-sample g1 draw, its truth, its ten-fold split and its default grid."""
    data, truth = generate(SimScenario(n=100, link="g1", seed=seed))
    split = _fold_split(data.n, 10, seed)
    return data, truth, split, BandwidthGrid.default(data.n, float(np.std(truth.index))).values


def stacked_step(rounds: int, seed: int = 0) -> float:
    """Best mean seconds per ``StackedObjective`` call of one k-fold lockstep step.

    The step evaluates 50 searches, one pending point each: the ten folds of
    a 100-sample g1 draw at every other bandwidth of its default grid.
    """
    data, truth, (trains, _), grid = _g1_folds(seed)
    hs = grid[::2]
    objective = StackedObjective(data, trains * hs.size, np.repeat(hs, len(trains)))
    rng = np.random.default_rng(seed)
    points = truth.beta.coeffs + 0.1 * rng.standard_normal((50, data.search_dimension()))
    which = np.arange(50)
    return _best(lambda: objective(which, points), rounds, 10)


def held_out_grid(rounds: int, seed: int = 0) -> float:
    """Best mean seconds to score one k-fold grid: ``_held_out_score`` at each
    of the ten bandwidths of the default grid of a 100-sample g1 draw, each
    over the fits of its ten folds (unsearched, from perturbed true
    coefficients), best of ``rounds`` rounds of five grids."""
    data, truth, split, grid = _g1_folds(seed)
    rng = np.random.default_rng(seed)
    starts = truth.beta.coeffs + 0.1 * rng.standard_normal((10, data.search_dimension()))
    fits = [minimize_each(data, starts, [h] * 10, 0, None, ["custom"] * 10, split[0])
            for h in grid.tolist()]
    return _best(lambda: [_held_out_score(data, split, results, h)
                          for results, h in zip(fits, grid.tolist())], rounds, 5)


def kfold_times(rounds: int, seed: int = 0) -> list[tuple[str, float, float]]:
    """``(layer, compiled_s, numpy_s)`` rows of the k-fold table: the
    :func:`stacked_step` and the :func:`held_out_grid`, with the compiled
    loops and with every compiled loop of ``fsim.kernel`` set to ``None``."""
    return [(layer, timer(rounds, seed), _without_compiler(lambda: timer(rounds, seed)))
            for layer, timer in (("step: 50 points on 10 training sets of 90", stacked_step),
                                ("held-out scoring: 10 bandwidths x 10 folds, n = 100",
                                 held_out_grid))]


def bookkeeping_time(searches: int, rounds: int, seed: int = 0, dim: int = STEP_DIM,
                     budget: int = STEP_BUDGET) -> float:
    """Best seconds of Nelder-Mead bookkeeping per step: one
    ``optimize._nelder_mead`` lockstep of ``searches`` searches of dimension
    ``dim`` from standard normal starts, ``budget`` evaluations each, on a
    cheap stand-in objective whose own time is taken out; the time is split
    over every objective call but the start's."""
    rng = np.random.default_rng(seed)
    starts, centre = rng.standard_normal((searches, dim)), rng.standard_normal(dim)
    best = np.inf
    for _ in range(rounds):
        objective_s, calls = 0.0, 0

        def objective(which, points):
            nonlocal objective_s, calls
            started = time.perf_counter()
            values = ((points - centre) ** 2).sum(axis=1)
            objective_s += time.perf_counter() - started
            calls += 1
            return values

        started = time.perf_counter()
        _nelder_mead(objective, starts, budget)
        best = min(best, (time.perf_counter() - started - objective_s) / (calls - 1))
    return best


def bookkeeping_times(rounds: int, seed: int = 0, searches=STEP_SEARCHES):
    """``(searches, compiled_s, numpy_s)`` rows of the bookkeeping table:
    :func:`bookkeeping_time` with the compiled step and with every compiled
    loop of ``fsim.kernel`` set to ``None``."""
    return [(count, bookkeeping_time(count, rounds, seed),
             _without_compiler(lambda: bookkeeping_time(count, rounds, seed)))
            for count in searches]


def stack_time(n: int, rounds: int, seed: int = 0) -> float:
    """Best mean seconds per ``nw_loo_all`` call of one stack of
    ``stack_size(n)`` leave-one-out problems: the true index of a g3 draw
    of ``n`` samples at the bandwidths of its grid in turn."""
    data, truth, grid = _g3_draw(n, seed)
    count = locfit.stack_size(n)
    stack, hs = np.broadcast_to(truth.index, (count, n)), np.resize(grid, count)
    return _best(lambda: locfit.nw_loo_all(stack, data.y, hs), rounds, 10)


def stack_times(rounds: int, seed: int = 0, sizes=STACK_SIZES):
    """``(n, library_s, numpy_s)`` rows of the stack table: :func:`stack_time`
    as shipped (one ``kernel.loo_estimates`` library call) and with every
    compiled loop switched off (the numpy walk)."""
    return [(n, stack_time(n, rounds, seed),
             _without_compiler(lambda: stack_time(n, rounds, seed))) for n in sizes]


def _duration(seconds: float) -> str:
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3g} ms"
    return f"{seconds * 1e6:.3g} µs"


def table(rows) -> list[str]:
    """The markdown table of :func:`sweep` rows."""
    lines = ["| n | dense stack | window sums | window speed-up |", "| --- | --- | --- | --- |"]
    for n, dense, window in rows:
        lines.append(f"| {n} | {_duration(dense)} | {_duration(window)} | "
                     f"{dense / window:.2f}× |")
    return lines


def step_table(objective, kfold) -> list[str]:
    """The markdown tables of the steps: ``(n, times)`` pairs of
    :func:`objective_time`, then the :func:`kfold_times` rows."""
    return (["| full-data step, per evaluation | compiled | no compiler |",
             "| --- | --- | --- |"]
            + [f"| n = {n} | " + " | ".join(_duration(t) for t in times) + " |"
               for n, times in objective]
            + ["", "| k-fold layer, per call | compiled | no compiler |", "| --- | --- | --- |"]
            + [f"| {layer} | {_duration(compiled)} | {_duration(numpy)} |"
               for layer, compiled, numpy in kfold])


def quad_table(rows) -> list[str]:
    """The markdown table of :func:`local_quadratic_times` rows."""
    return (["| local-quadratic layer | per call |", "| --- | --- |"]
            + [f"| {layer} | {_duration(seconds)} |" for layer, seconds in rows])


def fallback_table(rows) -> list[str]:
    """The markdown table of :func:`fallback_times` rows."""
    return (["| n | window sums per evaluation, no compiler | level_fits pass, no compiler |",
             "| --- | --- | --- |"]
            + [f"| {n} | {_duration(window)} | {_duration(level)} |"
               for n, window, level in rows])


def bookkeeping_table(rows) -> list[str]:
    """The markdown table of :func:`bookkeeping_times` rows."""
    return ([f"| Nelder–Mead bookkeeping per step, dim {STEP_DIM} | compiled | no compiler |",
             "| --- | --- | --- |"]
            + [f"| {count} search{'es' if count > 1 else ''} | {_duration(compiled)} | "
               f"{_duration(numpy)} |" for count, compiled, numpy in rows])


def stack_table(rows) -> list[str]:
    """The markdown table of :func:`stack_times` rows."""
    return (["| leave-one-out stack, per call | one library call | no compiler |",
             "| --- | --- | --- |"]
            + [f"| {locfit.stack_size(n)} × {n} | " + " | ".join(map(_duration, times)) + " |"
               for n, *times in rows])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="40,64,90,128,200,256,1000",
                        help="comma-separated sample sizes")
    parser.add_argument("--rounds", type=int, default=7, help="alternating rounds per size")
    parser.add_argument("--seed", type=int, default=0, help="seed of the g3 samples")
    args = parser.parse_args(argv)
    sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    if not sizes or min(sizes) < 2 or args.rounds < 1:
        parser.error("need sizes >= 2 and --rounds >= 1")
    print(machine_facts())
    print(f"nw_loo_all per evaluation of a {STEP_POINTS}-problem step, best of {args.rounds} "
          f"rounds, shipped ONE_TILE_MAX={locfit.ONE_TILE_MAX}")
    rows = sweep(sizes, args.rounds, args.seed)
    print("\n".join(table(rows)))
    print(crossover(rows))
    objective = [(n, objective_time(n, args.rounds, args.seed)) for n in OBJECTIVE_SIZES]
    print("\n".join(step_table(objective, kfold_times(args.rounds, args.seed))))
    print("\n".join(quad_table(local_quadratic_times(args.rounds, args.seed))))
    print("\n".join(fallback_table(fallback_times(args.rounds, args.seed))))
    print("\n".join(bookkeeping_table(bookkeeping_times(args.rounds, args.seed))))
    print("\n".join(stack_table(stack_times(args.rounds, args.seed))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
