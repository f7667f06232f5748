"""Command-line front end: simulation tables, fits, plot data, synthetic files.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 estimation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import pathlib
import sys

import numpy as np

from . import bandwidth as bw
from . import ingest, simulate, svg
from .basis import BasisExpansion, FourierBasis
from .locfit import EstimationError, curve_estimates
from .model import IndexModelSpec, compute_index
from .optimize import InitStrategy

OK, USAGE_ERROR, DATA_ERROR, ESTIMATION_ERROR = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="fsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo table from a JSON config")
    p_sim.add_argument("--config", required=True, help="JSON experiment configuration")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--reps", type=int, default=None, help="override the config rep count")

    p_fit = sub.add_parser("fit", help="fit the index model to an ecology CSV")
    p_fit.add_argument("--data", required=True, help="input CSV in the ecology schema")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument("--strategy", default="linear,equal,random",
                       help="comma-separated start strategies (linear,equal,random)")
    p_fit.add_argument("--method", choices=("gcv", "kfold"), default="gcv")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--basis-dim", type=int, default=13,
                       help="Fourier dimension for the covariate projection")
    p_fit.add_argument("--budget", type=int, default=1000,
                       help="objective evaluations per coefficient search")
    p_fit.add_argument("--grid-size", type=int, default=10)
    p_fit.add_argument("--folds", type=int, default=10)
    p_fit.add_argument("--candidates", type=int, default=200,
                       help="random-pool size for the random strategy")
    p_fit.add_argument("--keep", type=int, default=10,
                       help="random-pool candidates kept after prefiltering")

    p_plot = sub.add_parser("plot", help="emit plot data from fit artifacts")
    p_plot.add_argument("--fit", required=True, help="fit.json from the fit command")
    p_plot.add_argument("--data", required=True, help="the CSV the fit was run on")
    p_plot.add_argument("--out", required=True, help="output directory")
    p_plot.add_argument("--truth", default=None, help="optional generator truth JSON")
    p_plot.add_argument("--svg", action="store_true", help="also write SVG line charts")
    p_plot.add_argument("--grid-points", type=int, default=1000)

    p_synth = sub.add_parser("synth", help="write a synthetic ecology CSV with known truth")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.add_argument("--truth-out", default=None, help="truth JSON path")
    p_synth.add_argument("--n", type=int, default=200)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--link", choices=sorted(simulate.LINKS), default="g2")
    p_synth.add_argument("--alpha", type=float, default=0.6)
    p_synth.add_argument("--noise-sd", type=float, default=0.05)
    p_synth.add_argument("--basis-dim", type=int, default=13)
    return parser


def _load_config(path, seed_override, reps_override=None) -> simulate.ExperimentConfig:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("config must be a JSON object")
    known = {f.name for f in dataclasses.fields(simulate.ExperimentConfig)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if seed_override is not None:
        payload["seed"] = seed_override
    if reps_override is not None:
        payload["reps"] = reps_override
    return simulate.ExperimentConfig(**payload)


def cmd_simulate(args) -> int:
    try:
        config = _load_config(args.config, args.seed, args.reps)
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print(f"fsim simulate: bad config: {exc}", file=sys.stderr)
        return USAGE_ERROR
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = simulate.run_experiment(config)
    for row in rows:
        if row["flagged"]:
            print(
                f"fsim simulate: warning: cell {row['link']}/n={row['n']}/"
                f"{row['strategy']} failed in {row['failures']}/{row['reps']} reps",
                file=sys.stderr,
            )
    metadata = dataclasses.asdict(config)
    simulate.write_table_csv(rows, out / "results.csv")
    simulate.write_table_json(rows, out / "results.json", metadata=metadata)
    return OK


def _fit_dataset(args):
    records = ingest.load_csv(args.data)
    basis = FourierBasis(args.basis_dim, include_constant=True)
    return ingest.to_dataset(records, basis)


def cmd_fit(args) -> int:
    strategies = [s.strip() for s in args.strategy.split(",") if s.strip()]
    for name in strategies:
        if name not in ("linear", "equal", "random"):
            print(f"fsim fit: unknown strategy {name!r}", file=sys.stderr)
            return USAGE_ERROR
    if not strategies:
        print("fsim fit: no strategies given", file=sys.stderr)
        return USAGE_ERROR
    too_few_folds = args.method == "kfold" and args.folds < 2
    if min(args.grid_size, args.candidates, args.keep) < 1 or too_few_folds:
        print("fsim fit: need --grid-size, --candidates and --keep >= 1, and --folds >= 2"
              " with --method kfold", file=sys.stderr)
        return USAGE_ERROR
    try:
        data = _fit_dataset(args)
    except (OSError, ingest.SchemaError, ValueError) as exc:
        print(f"fsim fit: {exc}", file=sys.stderr)
        return DATA_ERROR

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reports = {}
    errors = {}
    for k, name in enumerate(strategies):
        strategy = InitStrategy(kind=name, candidate_count=args.candidates,
                                keep_best=min(args.keep, args.candidates),
                                seed=np.random.SeedSequence((args.seed, k)))
        try:
            reports[name] = bw.fit_pipeline(data, strategy, args.grid_size, args.method,
                                            args.folds, np.random.SeedSequence((args.seed, k, 1)),
                                            args.budget)
        except EstimationError as exc:
            errors[name] = str(exc)
            print(f"fsim fit: strategy {name} failed: {exc}", file=sys.stderr)
    if not reports:
        print("fsim fit: every strategy failed", file=sys.stderr)
        return ESTIMATION_ERROR

    def final_score(name):
        scores = reports[name].scores
        return float(np.min(scores[np.isfinite(scores)]))

    winner = min(reports, key=lambda name: (final_score(name), strategies.index(name)))
    report = reports[winner]
    spec = report.best_fit.spec
    block_labels = ["precip", "temp"]
    payload = {
        "metadata": {
            "data": args.data,
            "n": data.n,
            "seed": args.seed,
            "method": args.method,
            "strategies": strategies,
            "basis_dim": args.basis_dim,
            "budget": args.budget,
            "grid_size": args.grid_size,
            "candidates": args.candidates,
            "keep": args.keep,
        },
        "selection": {
            "strategy": winner,
            "score": final_score(winner),
            "chosen_h": report.chosen_h,
            "chosen_h_curvature": report.chosen_h_curvature,
            "sigma_index": report.sigma_index,
            "per_strategy": {
                name: {
                    "score": final_score(name),
                    "chosen_h": reports[name].chosen_h,
                    "grid": [float(v) for v in reports[name].grid.values],
                    "scores": [float(v) for v in reports[name].scores],
                    "init_used": reports[name].best_fit.init_used,
                }
                for name in reports
            },
            "failed_strategies": errors,
        },
        "model": {
            "alpha": spec.alpha,
            "bandwidth_record": spec.bandwidth,
            "blocks": [
                {
                    "label": block_labels[k] if k < len(block_labels) else f"block{k}",
                    "basis_dim": beta.basis.dimension,
                    "include_constant": beta.basis.include_constant,
                    "coefficients": [float(v) for v in beta.coeffs],
                }
                for k, beta in enumerate(spec.beta_blocks)
            ],
        },
    }
    with open(out / "fit.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return OK


def _spec_from_payload(payload) -> IndexModelSpec:
    blocks = payload["model"]["blocks"]
    betas = tuple(
        BasisExpansion(
            FourierBasis(b["basis_dim"], include_constant=b["include_constant"]),
            np.asarray(b["coefficients"], dtype=float),
        )
        for b in blocks
    )
    alpha = payload["model"]["alpha"]
    return IndexModelSpec(betas, bandwidth=float(payload["model"]["bandwidth_record"]),
                          alpha=None if alpha is None else float(alpha))


def _write_csv(path, header, columns):
    rows = zip(*columns)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if isinstance(v, float) and not np.isfinite(v) else repr(float(v))
                             for v in row])


def cmd_plot(args) -> int:
    try:
        with open(args.fit, encoding="utf-8") as handle:
            payload = json.load(handle)
        records = ingest.load_csv(args.data)
        basis = FourierBasis(int(payload["metadata"]["basis_dim"]), include_constant=True)
        data = ingest.to_dataset(records, basis)
        truth = ingest.EcologyTruth.from_json(args.truth) if args.truth else None
    except (OSError, json.JSONDecodeError, KeyError, ingest.SchemaError, ValueError) as exc:
        print(f"fsim plot: {exc}", file=sys.stderr)
        return DATA_ERROR

    spec = _spec_from_payload(payload)
    chosen_h = float(payload["selection"]["chosen_h"])
    chosen_h2 = float(payload["selection"]["chosen_h_curvature"])
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # keep the output directory self-describing: seed, bandwidths, strategy
    with open(out / "metadata.json", "w", encoding="utf-8") as handle:
        json.dump({
            "fit_metadata": payload["metadata"],
            "selection": {
                "strategy": payload["selection"]["strategy"],
                "chosen_h": chosen_h,
                "chosen_h_curvature": chosen_h2,
                "sigma_index": payload["selection"]["sigma_index"],
            },
            "truth": args.truth,
            "grid_points": args.grid_points,
        }, handle, indent=2, sort_keys=True)
        handle.write("\n")

    z_hat = compute_index(data, spec)
    grid = np.linspace(float(z_hat.min()), float(z_hat.max()), args.grid_points)
    g_hat = curve_estimates(z_hat, data.y, grid, chosen_h, derivative=0)
    g2_hat = curve_estimates(z_hat, data.y, grid, chosen_h2, derivative=2)

    link = simulate.LINKS[truth.link] if truth else None
    g_cols = [grid, g_hat] + ([link.g(grid)] if link else [])
    g_head = ["index", "g_hat"] + (["g_true"] if link else [])
    _write_csv(out / "g_curve.csv", g_head, g_cols)
    g2_cols = [grid, g2_hat] + ([link.curvature(grid)] if link else [])
    g2_head = ["index", "g2_hat"] + (["g2_true"] if link else [])
    _write_csv(out / "g2_curve.csv", g2_head, g2_cols)

    t_grid = np.linspace(0.0, 1.0, 201)
    coef_head, coef_cols = ["t"], [t_grid]
    labels = [b["label"] for b in payload["model"]["blocks"]]
    for label, beta in zip(labels, spec.beta_blocks):
        coef_head.append(f"beta_{label}")
        coef_cols.append(beta.basis.design_matrix(t_grid) @ beta.coeffs)
    if truth is not None:
        for label, true_beta in zip(labels, truth.beta_expansions(basis)):
            coef_head.append(f"beta_{label}_true")
            coef_cols.append(true_beta.basis.design_matrix(t_grid) @ true_beta.coeffs)
    _write_csv(out / "coefficients.csv", coef_head, coef_cols)

    if truth is not None:
        z_true = truth.true_index(data)
        _write_csv(out / "index_scatter.csv",
                   ["index_true", "index_est", "reference"],
                   [z_true, z_hat, z_true])
        g2_at_samples = curve_estimates(z_hat, data.y, z_hat, chosen_h2, derivative=2)
        _write_csv(out / "curvature_scatter.csv",
                   ["index_true", "g2_est", "g2_true"],
                   [z_true, g2_at_samples, link.curvature(z_true)])

    if args.svg:
        g_series = {"g_hat": g_hat}
        g2_series = {"g2_hat": g2_hat}
        if link:
            g_series["g_true"] = link.g(grid)
            g2_series["g2_true"] = link.curvature(grid)
        svg.line_chart(out / "g_curve.svg", grid, g_series, title="link function")
        svg.line_chart(out / "g2_curve.svg", grid, g2_series, title="link curvature")
        coef_series = {name: col for name, col in zip(coef_head[1:], coef_cols[1:])}
        svg.line_chart(out / "coefficients.svg", t_grid, coef_series,
                       title="coefficient functions")
    return OK


def cmd_synth(args) -> int:
    try:
        ingest.synth_ecology(
            args.out, n=args.n, seed=args.seed, link=args.link, alpha=args.alpha,
            noise_sd=args.noise_sd, basis_dim=args.basis_dim, truth_path=args.truth_out,
        )
    except (OSError, ValueError) as exc:
        print(f"fsim synth: {exc}", file=sys.stderr)
        return DATA_ERROR
    return OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "fit": cmd_fit,
        "plot": cmd_plot,
        "synth": cmd_synth,
    }
    try:
        return handlers[args.command](args)
    except EstimationError as exc:
        print(f"fsim {args.command}: estimation failed: {exc}", file=sys.stderr)
        return ESTIMATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
