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
from .optimize import INIT_KINDS, InitStrategy

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
    p_fit.add_argument("--method", choices=bw.METHODS, default="gcv")
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
    """Fit the model from each start strategy and write the best fit to ``fit.json``.

    Every strategy runs the pipeline of :func:`fsim.bandwidth.fit_pipeline`,
    all of them in one :func:`fsim.bandwidth.fit_pipelines` call, so that
    their grid searches share one lockstep; strategy k draws its random pool
    from seed ``(seed, k)`` and its folds from ``(seed, k, 1)``.  A strategy
    that fails is reported and left out; the winner has the lowest final
    score, ties going to the earlier strategy.  Usage errors are found
    before any file is written.
    """
    strategies = [s.strip() for s in args.strategy.split(",") if s.strip()]
    for name in strategies:
        # the "true" start needs the generating coefficients, which a data file lacks
        if name == "true" or name not in INIT_KINDS:
            print(f"fsim fit: unknown strategy {name!r}", file=sys.stderr)
            return USAGE_ERROR
    if not strategies:
        print("fsim fit: no strategies given", file=sys.stderr)
        return USAGE_ERROR
    if len(set(strategies)) < len(strategies):
        print(f"fsim fit: a strategy is named twice in {args.strategy!r}", file=sys.stderr)
        return USAGE_ERROR
    too_few_folds = args.method == "kfold" and args.folds < 2
    if (min(args.grid_size, args.candidates, args.keep) < 1 or too_few_folds
            or args.budget < 0 or args.seed < 0 or not 2 <= args.basis_dim <= ingest.N_BINS):
        print("fsim fit: need --grid-size, --candidates and --keep >= 1, --budget and --seed"
              f" >= 0, --basis-dim in [2, {ingest.N_BINS}], and --folds >= 2 with --method"
              " kfold", file=sys.stderr)
        return USAGE_ERROR
    try:
        data = _fit_dataset(args)
    except (OSError, ingest.SchemaError, UnicodeDecodeError) as exc:
        print(f"fsim fit: {exc}", file=sys.stderr)
        return DATA_ERROR

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    keep = min(args.keep, args.candidates)
    outcomes = bw.fit_pipelines(
        data,
        [InitStrategy(kind=name, candidate_count=args.candidates, keep_best=keep,
                      seed=np.random.SeedSequence((args.seed, k)))
         for k, name in enumerate(strategies)],
        args.grid_size, args.method, args.folds,
        [np.random.SeedSequence((args.seed, k, 1)) for k in range(len(strategies))],
        args.budget)
    reports = {}
    errors = {}
    for name, outcome in zip(strategies, outcomes):
        if isinstance(outcome, EstimationError):
            errors[name] = str(outcome)
            print(f"fsim fit: strategy {name} failed: {outcome}", file=sys.stderr)
        else:
            reports[name] = outcome
    if not reports:
        print("fsim fit: every strategy failed", file=sys.stderr)
        return ESTIMATION_ERROR
    winner = min(reports, key=lambda name: (reports[name].chosen_score,
                                            strategies.index(name)))
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
            "score": report.chosen_score,
            "chosen_h": report.chosen_h,
            "chosen_h_curvature": report.chosen_h_curvature,
            "sigma_index": report.sigma_index,
            "per_strategy": {
                name: {
                    "score": reports[name].chosen_score,
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
    simulate.write_json(out / "fit.json", payload)
    return OK


def _bandwidth(payload, key) -> float:
    value = payload["selection"][key]
    if not simulate.finite_number(value) or value <= 0:
        raise ingest.SchemaError(f"selection.{key} must be a positive number, got {value!r}")
    return float(value)


def _spec_from_payload(payload, data) -> IndexModelSpec:
    """The fitted spec of a ``fit.json`` payload on the data it was fit to.

    A payload whose blocks do not match the data's blocks and
    ``metadata.basis_dim``, or whose alpha is not a number (ecology data
    carry the scalar W), raises :class:`fsim.ingest.SchemaError`.
    """
    blocks, alpha = payload["model"]["blocks"], payload["model"]["alpha"]
    beta_basis = data.blocks[0].beta_basis()
    layout = (beta_basis.dimension, False, beta_basis.dimension)
    if len(blocks) != len(data.blocks) or not all(
            (b["basis_dim"], b["include_constant"], len(b["coefficients"])) == layout
            and all(map(simulate.finite_number, b["coefficients"])) for b in blocks):
        raise ingest.SchemaError(
            f"model.blocks must be {len(data.blocks)} blocks of {beta_basis.dimension} finite "
            f"coefficients without a constant term, as metadata.basis_dim asks")
    if not simulate.finite_number(alpha):
        raise ingest.SchemaError(f"model.alpha must be a number, got {alpha!r}")
    return IndexModelSpec(tuple(BasisExpansion(beta_basis, b["coefficients"]) for b in blocks),
                          alpha=float(alpha))


def _write_csv(path, columns: dict):
    """One CSV column per entry of ``columns``, named by its key, in order."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in zip(*columns.values()):
            writer.writerow(["" if isinstance(v, float) and not np.isfinite(v) else repr(float(v))
                             for v in row])


def cmd_plot(args) -> int:
    if args.grid_points < 1:
        print("fsim plot: need --grid-points >= 1", file=sys.stderr)
        return USAGE_ERROR
    try:
        with open(args.fit, encoding="utf-8") as handle:
            payload = json.load(handle)
        records = ingest.load_csv(args.data)
        dim = payload["metadata"]["basis_dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or not 2 <= dim <= ingest.N_BINS:
            raise ingest.SchemaError(f"metadata.basis_dim must be an integer in "
                                     f"[2, {ingest.N_BINS}], got {dim!r}")
        basis = FourierBasis(dim, include_constant=True)
        data = ingest.to_dataset(records, basis)
        truth = ingest.EcologyTruth.from_json(args.truth) if args.truth else None
        spec = _spec_from_payload(payload, data)
        chosen_h = _bandwidth(payload, "chosen_h")
        chosen_h2 = _bandwidth(payload, "chosen_h_curvature")
        selection = {"strategy": payload["selection"]["strategy"], "chosen_h": chosen_h,
                     "chosen_h_curvature": chosen_h2,
                     "sigma_index": payload["selection"]["sigma_index"]}
        labels = [b["label"] for b in payload["model"]["blocks"]]
        z_hat = compute_index(data, spec)
        if truth is not None:
            # the truth lives in its own basis, which the fit's need not match;
            # reprojecting reruns the trapezoid quadrature of every history
            # (basis.project_sample_rows, one design per block), so reuse a match
            truth_basis = FourierBasis(truth.basis_dim, include_constant=True)
            true_betas = truth.beta_expansions(truth_basis)
            z_true = truth.true_index(data if truth_basis == basis
                                      else ingest.to_dataset(records, truth_basis))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError,
            ingest.SchemaError) as exc:
        print(f"fsim plot: {exc}", file=sys.stderr)
        return DATA_ERROR

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # keep the output directory self-describing: seed, bandwidths, strategy
    simulate.write_json(out / "metadata.json", {
        "fit_metadata": payload["metadata"],
        "selection": selection,
        "truth": args.truth,
        "grid_points": args.grid_points,
    })

    grid = np.linspace(float(z_hat.min()), float(z_hat.max()), args.grid_points)
    g_series = {"g_hat": curve_estimates(z_hat, data.y, grid, chosen_h, derivative=0)}
    g2_series = {"g2_hat": curve_estimates(z_hat, data.y, grid, chosen_h2, derivative=2)}
    t_grid = np.linspace(0.0, 1.0, 201)
    coef_series = {f"beta_{label}": beta.basis.design_matrix(t_grid) @ beta.coeffs
                   for label, beta in zip(labels, spec.beta_blocks)}
    if truth is not None:
        link = simulate.LINKS[truth.link]
        g_series["g_true"] = link.g(grid)
        g2_series["g2_true"] = link.curvature(grid)
        for label, beta in zip(labels, true_betas):
            coef_series[f"beta_{label}_true"] = beta.basis.design_matrix(t_grid) @ beta.coeffs
    _write_csv(out / "g_curve.csv", {"index": grid, **g_series})
    _write_csv(out / "g2_curve.csv", {"index": grid, **g2_series})
    _write_csv(out / "coefficients.csv", {"t": t_grid, **coef_series})

    if truth is not None:
        _write_csv(out / "index_scatter.csv",
                   {"index_true": z_true, "index_est": z_hat, "reference": z_true})
        g2_at_samples = curve_estimates(z_hat, data.y, z_hat, chosen_h2, derivative=2)
        _write_csv(out / "curvature_scatter.csv",
                   {"index_true": z_true, "g2_est": g2_at_samples,
                    "g2_true": link.curvature(z_true)})

    if args.svg:
        svg.line_chart(out / "g_curve.svg", grid, g_series, title="link function")
        svg.line_chart(out / "g2_curve.svg", grid, g2_series, title="link curvature")
        svg.line_chart(out / "coefficients.svg", t_grid, coef_series,
                       title="coefficient functions")
    return OK


def cmd_synth(args) -> int:
    if (args.n < 1 or not 0 <= args.noise_sd < np.inf or not np.isfinite(args.alpha)
            or args.seed < 0 or not 3 <= args.basis_dim <= ingest.N_BINS):
        print(f"fsim synth: need --n >= 1, a finite --noise-sd >= 0, a finite --alpha, "
              f"--seed >= 0, and --basis-dim in [3, {ingest.N_BINS}]", file=sys.stderr)
        return USAGE_ERROR
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
