"""Paired A/B runs of the benchmark: a parent revision against this checkout.

    python3 tools/ab_pairs.py --workload mc_kfold_n100 --seeds 1001-1010 [--parent HEAD]
    python3 tools/ab_pairs.py --workload mc_kfold_n100 --seeds 1001-1010 --parent-dir DIR

The parent revision is checked out with ``git worktree`` into the script's
temporary directory (under ``$TMPDIR``), removed again on exit; ``--parent-dir`` runs
an existing checkout of the parent instead (say, one unpacked with
``git archive``), and no worktree is made.  The change is the
working tree this script sits in, uncommitted edits included.  Each seed
runs ``perfbench/run.py --trace 0`` once on each side at ``run_seconds`` from
BENCHMARK.json, one run at a time, and the side that runs first alternates
from seed to seed.  For every end-to-end metric the script prints each
side's median and quartiles, the number of pairs the change won (a tie
counts for neither side), and whether the change's median is worse than the
parent's by no more than the metric's ``bound`` in BENCHMARK.json ("within
bound") or by more ("beyond bound").  Under that it prints the gap between
the medians in the better direction divided by the parent's interquartile
range (IQR), and whether the gain rule is met: the change won at least 9/10
of the pairs and that gap exceeds the IQR.  Then come ``failed`` and
``correct`` per side, the pairs whose accuracy figures agree, and each
side's CPU count (``nproc``), usable CPUs (``cpus_usable``) and BLAS
threads from the machine facts of its runs.
The coefficient searches run on every usable CPU, so wall time depends on
these facts: a pair whose sides report different ones is refused, and
counts as incomplete.  Each side runs with its own fresh bytecode cache
(``PYTHONPYCACHEPREFIX``) and its own kernel library cache
(``XDG_CACHE_HOME``) under the script's temporary directory, which one
untimed import of the benchmark's set-up writes before the first pair
(with ``PYTHONDONTWRITEBYTECODE`` dropped for it); so with that variable
set, neither side runs on whatever ``__pycache__`` its tree happens to
hold, and as a build removes the other libraries of its cache, a side
whose kernel source differs never makes the other rebuild its library
in a timed run.  The change's side goes first.  Running it with
``--parent-dir`` set to a copy of this checkout (an A/A run) shows how far
identical code drifts on the host.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
# figures a pair should repeat exactly when the change keeps the results
# (concave_frac is the one such figure of cli_eco_n200, None on the others)
ACCURACY = ("failed_frac", "rse_p50", "rase_p50", "rase2_p50", "concave_frac")
# machine facts both sides of a pair must share
MACHINE = ("nproc", "cpus_usable", "blas_threads")


def parse_seeds(text: str) -> list[int]:
    """``"5,7,10-12"`` -> ``[5, 7, 10, 11, 12]``."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.strip().partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent, change, better: str) -> int:
    """Pairs where the change is strictly better; ties count for neither side."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    return sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0.0)


def within_bound(parent_median: float, change_median: float, better: str,
                 bound: float) -> bool:
    """Whether the change's median is worse than the parent's by at most the
    fraction ``bound``."""
    if better == "lower":
        return change_median <= parent_median * (1.0 + bound)
    return change_median >= parent_median * (1.0 - bound)


def gain_rule(parent, change, better: str) -> tuple[float, bool]:
    """The gap between the medians in the better direction, as a multiple of
    the parent's interquartile range, and whether the gain rule holds: the
    change wins at least 9 of every 10 pairs and that gap exceeds the
    parent's interquartile range."""
    q1, median, q3 = quartiles(parent)
    sign = 1.0 if better == "lower" else -1.0
    gap = sign * (median - statistics.median(change))
    spread = q3 - q1
    if spread:
        ratio = gap / spread
    else:
        ratio = math.copysign(math.inf, gap) if gap else 0.0
    met = 10 * wins(parent, change, better) >= 9 * len(parent) and gap > spread
    return ratio, met


def parse_run(stdout: str) -> dict:
    """The figures of one ``run.py`` call: its last line, and the unbounded
    figures and machine facts of the line before it."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    before = json.loads(lines[-2]) if len(lines) > 1 else {}
    unbounded = before.get("unbounded", {})
    facts = before.get("facts", {})
    return {
        "machine": {"nproc": facts.get("nproc"), "cpus_usable": facts.get("cpus_usable"),
                    "blas_threads": (facts.get("blas") or {}).get("threads")},
        "correct": bool(result["correct"]),
        "failed": int(result["failed"]),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "accuracy": {name: unbounded.get(name, {}).get("value") for name in ACCURACY},
    }


def machine_line(machine: dict) -> str:
    return ", ".join(f"{name} {machine[name]}" for name in MACHINE)


def pair_problem(parent: dict, change: dict) -> str | None:
    """Why the two runs of a pair cannot be compared, or None when they can."""
    if parent["machine"] != change["machine"]:
        return (f"machine facts differ: parent {machine_line(parent['machine'])}; "
                f"change {machine_line(change['machine'])}")
    return None


def side_env(scratch: pathlib.Path, side: str) -> dict:
    """The environment of one side's runs: this one, with the side's own
    bytecode cache and kernel library cache under ``scratch``."""
    return dict(os.environ, PYTHONPYCACHEPREFIX=str(scratch / f"pycache-{side}"),
                XDG_CACHE_HOME=str(scratch / f"cache-{side}"))


def warm_up(tree: pathlib.Path, env: dict, workload: str, seed: int) -> None:
    """One untimed import of the benchmark's set-up in ``tree``, which writes
    the bytecode cache of ``env`` even when it disallows writing one."""
    env = {key: value for key, value in env.items() if key != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "perfbench/workloads.py", "--workload", workload,
                    "--seed", str(seed), "--mode", "setup"],
                   cwd=tree, env=env, capture_output=True, check=True)


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float,
             env: dict) -> dict | None:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"ab_pairs: seed {seed} in {tree} exited {done.returncode}: "
              f"{done.stderr.strip()[-300:]}", file=sys.stderr)
        return None
    return parse_run(done.stdout)


def summary_lines(pairs, end_to_end) -> list[str]:
    """The report of complete ``(parent, change)`` run pairs."""
    count = len(pairs)
    lines = [f"{'metric':<13} {'parent median [q1, q3]':<32} "
             f"{'change median [q1, q3]':<32} change wins"]
    for metric in end_to_end:
        name = metric["name"]
        sides = [[run["metrics"][name] for run in side] for side in zip(*pairs)]
        cells = []
        for values in sides:
            q1, median, q3 = quartiles(values)
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        won = wins(sides[0], sides[1], metric["better"])
        medians = [statistics.median(values) for values in sides]
        change = medians[1] / medians[0] - 1.0
        kept = within_bound(*medians, metric["better"], metric["bound"])
        verdict = "within" if kept else "beyond"
        lines.append(f"{name:<13} {cells[0]:<32} {cells[1]:<32} {won}/{count} "
                     f"({change:+.1%} in the median), {verdict} bound {metric['bound'] * 100:g}%")
        ratio, met = gain_rule(*sides, metric["better"])
        lines.append(f"{'':<13} median gap {ratio:.2f} times the parent's IQR, "
                     f"gain rule {'met' if met else 'not met'}")
    for side, label in ((0, "parent"), (1, "change")):
        runs = [pair[side] for pair in pairs]
        machines = sorted({machine_line(r["machine"]) for r in runs})
        lines.append(f"{label}: failed {sum(r['failed'] for r in runs)}, "
                     f"correct {sum(r['correct'] for r in runs)}/{count}; "
                     + "; ".join(machines))
    same = sum(1 for a, b in pairs if a["accuracy"] == b["accuracy"]
               and a["failed"] == b["failed"] and a["correct"] == b["correct"])
    lines.append(f"pairs with equal failed, correct and {', '.join(ACCURACY)}: "
                 f"{same}/{count}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="seeds as a list of numbers and ranges, e.g. 1001-1010")
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--parent-dir", type=pathlib.Path, default=None,
                        help="an existing checkout of the parent side, used instead of --parent")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(benchmark["run_seconds"])

    scratch = pathlib.Path(tempfile.mkdtemp(prefix="ab_pairs-"))
    parent = args.parent_dir.resolve() if args.parent_dir else scratch / "parent"
    envs = [side_env(scratch, "parent"), side_env(scratch, "change")]
    pairs = []
    try:
        if not args.parent_dir:
            subprocess.run(["git", "worktree", "add", "--detach", str(parent), args.parent],
                           cwd=ROOT, check=True, capture_output=True)
        for side, tree in [(1, ROOT), (0, parent)]:
            warm_up(tree, envs[side], args.workload, args.seeds[0])
        for k, seed in enumerate(args.seeds):
            order = [(0, parent), (1, ROOT)] if k % 2 == 0 else [(1, ROOT), (0, parent)]
            pair = [None, None]
            for side, tree in order:
                pair[side] = run_once(tree, args.workload, seed, seconds, envs[side])
            if None in pair:
                continue
            problem = pair_problem(*pair)
            if problem:
                print(f"ab_pairs: seed {seed} refused, {problem}", file=sys.stderr)
                continue
            pairs.append(pair)
            print(f"seed {seed}: " + ", ".join(
                f"{m['name']} {pair[0]['metrics'][m['name']]:.4g} -> "
                f"{pair[1]['metrics'][m['name']]:.4g}" for m in benchmark["end_to_end"]),
                flush=True)
    finally:
        if not args.parent_dir:
            subprocess.run(["git", "worktree", "remove", "--force", str(parent)],
                           cwd=ROOT, capture_output=True)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    incomplete = len(args.seeds) - len(pairs)
    print(f"workload {args.workload}, {len(pairs)} complete pairs"
          + (f", {incomplete} incomplete (left out)" if incomplete else ""))
    if not pairs:
        return 1
    print("\n".join(summary_lines(pairs, benchmark["end_to_end"])))
    return 0 if not incomplete else 1


if __name__ == "__main__":
    sys.exit(main())
