"""The benchmark's workloads, run in a fresh process by ``run.py``.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds T --mode MODE

``--mode setup`` only imports fsim and builds the inputs; ``setup_s`` times
such processes from start to exit.  ``--mode run`` builds the inputs, then runs whole passes over a fixed input pool, as many as
fill about ``T`` seconds at the parent of the benchmark, so that every commit
times the same fits.  It times set-up probes between the fits, checks every
output and prints a JSON report as its last stdout line.  ``--mode trace``
runs a fixed number of fits twice, once plain and once under
:class:`tracing.Tracer`, and reports per-layer metrics; its length is set by
the fit count, not by ``T``, so that its counts repeat exactly at one seed.

Every input comes from ``--seed``; fsim sees only the generated data.  Why
each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import fsim  # noqa: E402
from fsim import cli, simulate  # noqa: E402

import tracing  # noqa: E402

UNIT_NORM_TOL = 1e-12
CURVE_ROWS = 1000
# fresh set-up processes timed per untraced run, spread between its fits
SETUP_PROBES = 16

# metric name -> unit, as declared in BENCHMARK.json
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
# printed next to the result without a bound; README.md says why
UNBOUNDED = {"fit_s_p50": "s", "failed_frac": "ratio", "rse_p50": "1", "rase_p50": "1",
             "rase2_p50": "1", "concave_frac": "ratio"}


def fit_problem(values: dict, norm: float | None = None) -> str | None:
    """Why a successful fit's output is wrong, or None when it passes.

    Every reported error metric must be finite and the coefficient vector
    must have unit norm within :data:`UNIT_NORM_TOL`.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            return f"{name} is {value}"
    if norm is not None and not abs(norm - 1.0) <= UNIT_NORM_TOL:
        return f"coefficient norm {norm!r} is not 1"
    return None


class MonteCarlo:
    """Monte-Carlo reps of one (link, n, true start) cell via ``simulate.run_single``.

    Rep seeds are derived exactly as ``simulate.run_experiment`` derives them
    for a one-cell table, so ``--seed 5`` on ``mc_gcv_n1000`` replays the
    first reps of acceptance criterion c05.  Set-up draws ``inputs`` datasets;
    one pass fits each once and took about ``pass_s`` seconds at the parent.
    """

    def __init__(self, link, n, method, inputs, pass_s, trace_fits):
        self.link, self.n, self.method = link, n, method
        self.inputs, self.pass_s, self.trace_fits = inputs, pass_s, trace_fits

    def setup(self, seed, work):
        self.config = simulate.ExperimentConfig(
            links=(self.link,), sizes=(self.n,), strategies=("true",), method=self.method,
            reps=self.inputs, seed=seed, noise_sd=0.1, grid_size=10, folds=10,
            opt_budget=150,
        )
        items = []
        for rep in range(self.inputs):
            root = np.random.SeedSequence(entropy=(seed, 0, self.n, 0, rep))
            gen_seed, strategy_seed, fold_seed = root.spawn(3)
            scenario = simulate.SimScenario(n=self.n, link=self.link, noise_sd=0.1,
                                            seed=gen_seed)
            data, truth = simulate.generate(scenario)
            items.append((data, truth, strategy_seed, fold_seed))
        return items

    def rerun_problem(self, items, first, work):
        return None  # reps write no files

    def compare(self, first, second):
        return None

    def run_pass(self, items, k, out):
        data, truth, strategy_seed, fold_seed = items[k % len(items)]
        record = {"input": k % len(items), "error": None, "problem": None}
        started = time.perf_counter()
        try:
            row = simulate.run_single(data, truth, "true", self.config, strategy_seed,
                                      fold_seed)
        except simulate.FAILURE_KINDS as exc:
            row = None
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["fit_s"] = record["wall_s"] = time.perf_counter() - started
        if row is not None:
            values = {key: row[key] for key in ("rse", "rase", "rase2")}
            record.update(values)
            record["problem"] = fit_problem(values)
        return record


class CliEcology:
    """``fsim fit`` then ``fsim plot --truth --svg`` on synthetic ecology files.

    Set-up runs ``fsim synth --n 200 --link g2`` for ``inputs`` files; one
    pass fits each once, with every fit option at its default, and took about
    ``pass_s`` seconds at the parent.
    """

    def __init__(self, inputs, pass_s, trace_fits):
        self.inputs, self.pass_s, self.trace_fits = inputs, pass_s, trace_fits

    def setup(self, seed, work):
        paths = []
        for k in range(self.inputs):
            synth_seed = int(np.random.SeedSequence((seed, k)).generate_state(1)[0])
            path = work / f"eco{k}.csv"
            code = cli.main(["synth", "--out", str(path), "--n", "200", "--link", "g2",
                             "--seed", str(synth_seed)])
            if code != cli.OK:
                raise RuntimeError(f"fsim synth exited {code}")
            paths.append(path)
        return paths

    def run_pass(self, paths, k, out):
        data = paths[k % len(paths)]
        record = {"input": k % len(paths), "error": None, "problem": None, "out": str(out)}
        started = time.perf_counter()
        code = cli.main(["fit", "--data", str(data), "--out", str(out / "fit")])
        fitted = time.perf_counter()
        plot_code = None
        if code == cli.OK:
            plot_code = cli.main(["plot", "--fit", str(out / "fit" / "fit.json"),
                                  "--data", str(data), "--out", str(out / "plots"),
                                  "--truth", f"{data}.truth.json", "--svg"])
        record["fit_s"] = fitted - started
        record["wall_s"] = time.perf_counter() - started
        if code == cli.ESTIMATION_ERROR:
            record["error"] = "fsim fit exited 3: every strategy failed"
        elif code != cli.OK:
            record["problem"] = f"fsim fit exited {code}"
        elif plot_code != cli.OK:
            record["problem"] = f"fsim plot exited {plot_code}"
        else:
            self._check(out, record)
        return record

    @staticmethod
    def _check(out, record):
        payload = json.loads((out / "fit" / "fit.json").read_text(encoding="utf-8"))
        failed = payload["selection"]["failed_strategies"]
        if failed:
            record["error"] = f"strategies failed: {', '.join(sorted(failed))}"
        coeffs = np.concatenate([b["coefficients"] for b in payload["model"]["blocks"]])
        with open(out / "plots" / "g2_curve.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        u = np.array([float(r["index"]) for r in rows])
        g2 = np.array([float(r["g2_hat"]) if r["g2_hat"] else np.nan for r in rows])
        lo, hi = np.quantile(u, 0.10), np.quantile(u, 0.90)
        interior = (u >= lo) & (u <= hi) & np.isfinite(g2)
        record["concave_frac"] = float(np.mean(g2[interior] < 0.0)) if interior.any() else 0.0
        record["problem"] = fit_problem({}, float(np.linalg.norm(coeffs)))
        if len(rows) != CURVE_ROWS:
            record["problem"] = f"g2_curve.csv has {len(rows)} rows, expected {CURVE_ROWS}"

    def rerun_problem(self, paths, first, work):
        """Rerun the first fit untimed on the same input path; compare every file."""
        return self.compare(first, self.run_pass(paths, first["input"], work / "rerun"))

    @staticmethod
    def compare(first, second):
        """Names of the output files that differ between two fits of one input."""
        def files(base):
            base = pathlib.Path(base)
            return {str(p.relative_to(base)): p.read_bytes()
                    for p in sorted(base.rglob("*")) if p.is_file()}
        left, right = files(first["out"]), files(second["out"])
        names = sorted(n for n in set(left) | set(right) if left.get(n) != right.get(n))
        return f"seeded rerun differs in {', '.join(names)}" if names else None


WORKLOADS = {
    "mc_gcv_n1000": MonteCarlo("g3", 1000, "gcv", inputs=3, pass_s=23.0, trace_fits=2),
    "mc_kfold_n100": MonteCarlo("g1", 100, "kfold", inputs=16, pass_s=23.0, trace_fits=4),
    "cli_eco_n200": CliEcology(inputs=3, pass_s=24.0, trace_fits=1),
}


def fit_count(workload, seconds: float) -> int:
    """Fits of the whole passes that fill about ``seconds`` at the parent.

    The count depends on the workload and ``seconds`` only, never on how fast
    the program runs.  Below half a pass a single fit runs, as a smoke test.
    """
    passes = round(seconds / workload.pass_s)
    return workload.inputs * passes if passes else 1


def time_setup(args) -> float:
    """Seconds from start to exit of one fresh ``--mode setup`` process.

    No timeout here: waiting with one polls in sleeps of up to 50 ms, which
    rounds every sample up by as much.  ``run.py`` ends a probe that hangs.
    """
    command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--mode", "setup"]
    started = time.perf_counter()
    subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - started


def blas_facts() -> dict:
    """BLAS vendor and version from numpy's build record; threads from the loaded library."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted({line.split()[-1] for line in handle
                       if "openblas" in line.lower() and ".so" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {"vendor": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def facts(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_facts(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": args.mode,
    }


def median_of(records, key):
    values = [r[key] for r in records if r.get(key) is not None]
    return statistics.median(values) if values else None


def summarize(records) -> dict:
    """Counts, the median fit time and the accuracy medians over the fits."""
    failed = sum(1 for r in records if r["failed"])
    ok = [r for r in records if not r["failed"]]
    return {
        "attempted": len(records),
        "failed": failed,
        "correct": not any(r["problem"] for r in records),
        "unbounded": with_units({
            "fit_s_p50": median_of(records, "fit_s"),
            "failed_frac": failed / len(records),
            "rse_p50": median_of(ok, "rse"),
            "rase_p50": median_of(ok, "rase"),
            "rase2_p50": median_of(ok, "rase2"),
            "concave_frac": median_of(ok, "concave_frac"),
        }, UNBOUNDED),
    }


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def finish(record):
    record["failed"] = bool(record["error"] or record["problem"])
    return record


def run(workload, args, work, probes=SETUP_PROBES) -> dict:
    """The timed fits of :func:`fit_count`, set-up probes between them, then checks.

    The probes run one at a time in the gaps before, between and after the
    fits, so their median spans the run instead of one moment of the
    machine's load.
    """
    items = workload.setup(args.seed, work)
    fits = fit_count(workload, args.seconds)
    gaps = [0] * (fits + 1)
    for i in range(probes):
        gaps[i * (fits + 1) // probes] += 1
    setup, records = [], []
    for k in range(fits + 1):
        setup += [time_setup(args) for _ in range(gaps[k])]
        if k < fits:
            records.append(workload.run_pass(items, k, work / f"pass{k}"))
    first = records[0]
    first["problem"] = first["problem"] or workload.rerun_problem(items, first, work)
    records = [finish(r) for r in records]
    measured = {
        "wall_s": sum(r["wall_s"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if setup:
        measured["setup_s"] = statistics.median(setup)
    return {
        **summarize(records),
        "metrics": with_units({name: measured[name] for name in END_TO_END if name in measured},
                              END_TO_END),
        "setup_samples_s": setup,
        "fits": records,
    }


def run_traced(workload, args, work) -> dict:
    """Each fit plain, then the same fit traced; per-layer metrics from the spans."""
    tracer = tracing.Tracer()
    tracer.fit = "setup"
    with tracer.installed():
        items = workload.setup(args.seed, work)
    records, plain_wall, traced_wall = [], 0.0, 0.0
    for k in range(workload.trace_fits):
        plain = workload.run_pass(items, k, work / f"plain{k}")
        tracer.fit = k
        with tracer.installed():
            record = workload.run_pass(items, k, work / f"traced{k}")
        plain_wall += plain["wall_s"]
        traced_wall += record["wall_s"]
        norms = [s[5]["norm"] for s in tracer.spans
                 if s[4] == k and s[0] == "bandwidth.select_bandwidth" and "norm" in (s[5] or {})]
        for norm in norms:
            record["problem"] = record["problem"] or fit_problem({}, norm)
        record["problem"] = record["problem"] or workload.compare(plain, record)
        records.append(finish(record))
    covered = tracing.covered_seconds(tracer.spans, set(range(workload.trace_fits)))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    return {
        **summarize(records),
        "metrics": with_units(
            tracing.layer_metrics(PER_LAYER, tracer.spans, traced_wall, plain_wall, covered),
            PER_LAYER),
        "spans": str(spans_path.relative_to(ROOT)),
        "fits": records,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)
    if pathlib.Path(fsim.__file__).resolve().parent != SRC / "fsim":
        print(f"fsim imported from {fsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{args.mode}-{os.getpid()}"
    work.mkdir()
    try:
        if args.mode == "setup":
            workload.setup(args.seed, work)
            return 0
        report = (run if args.mode == "run" else run_traced)(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["facts"] = facts(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
