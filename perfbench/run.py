"""fsim benchmark: one workload per call, every metric printed by name with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; fsim is imported from its ``src``
directory.  With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are
measured with nothing patched, in one fresh process that runs a fixed set of
fits filling about ``T`` seconds at the parent: ``setup_s`` is the median over
sixteen fresh processes that import fsim and build the inputs, started one at
a time between those fits.  With ``--trace 1`` the process runs a fixed number
of fits plain and traced and reports the per-layer metrics.  The whole call
gives up after the larger of 170 seconds and five times ``T``, without a
result, because one call of the benchmark must end within 180 seconds.  The
last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Machine facts and the
figures printed without a bound (median fit time, failures, accuracy) go to
the line before it and to ``.perfbench_out/``.  README.md next to this file
describes the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# one call of the benchmark must end within 180 s; stop short of that
DEADLINE_S = 170.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")

    command = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--mode", "trace" if args.trace else "run"]
    # its own process group, so a timeout also ends the set-up probes it started
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as process:
        try:
            stdout, _ = process.communicate(timeout=max(DEADLINE_S, 5 * args.seconds))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            print("perfbench: workload process timed out", file=sys.stderr)
            return 1
    if process.returncode != 0:
        print(f"perfbench: workload process exited {process.returncode}", file=sys.stderr)
        return 1
    report = json.loads(stdout.strip().splitlines()[-1])

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"facts": report["facts"], "fits": report["attempted"],
                      "unbounded": report["unbounded"], "report": f".perfbench_out/{name}"}))
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
