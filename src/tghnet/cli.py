"""Command-line interface: simulate, train, evaluate, intervals, density.

Exit codes: 0 success, 2 usage or configuration error or an unwritable
output, 3 data error, 4 numerical failure.  Commands raise; main alone
maps a failure to its code and one stderr line.  TGH_THREADS caps the BLAS
worker pools before numpy is imported: all heavy imports live inside the
command functions, and errors imports no numpy.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, DataError, NumericalError, SolverError, UsageError, row_map

# ceilings on what a count argument may allocate: simulated rows, density values
MAX_SIMULATE_ROWS = 10**7
MAX_DENSITY_VALUES = 10**6
MAX_NETWORK_VALUES = 10**7  # in the network's state vector, and in one activation


def _apply_thread_cap() -> None:
    cap = os.environ.get("TGH_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tghnet",
        description="Train and evaluate neural networks that predict Tukey "
                    "g-and-h predictive distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset CSV")
    p.add_argument("--design", required=True, choices=("gandh", "student_t"))
    p.add_argument("--curves", default="reference", help="registry name of the curve set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("train", help="train a model per a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--svg", default=None, help="optional loss-curve SVG path")

    p = sub.add_parser("evaluate", help="residual diagnostics for a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--svg", default=None, help="optional QQ-plot SVG path")

    p = sub.add_parser("intervals", help="per-row prediction intervals and coverage")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--variant", default="symmetric", choices=("symmetric", "shortest"))
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("density", help="predicted density curves at feature points")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True,
                   help="feature points: components comma-separated, points "
                        "semicolon-separated, e.g. '0.1;0.5;0.9'")
    p.add_argument("--y-grid", required=True, help="target grid as min:max:count")
    p.add_argument("--out", required=True, help="output CSV path")
    return parser


def _score_split(args, score):
    """The scoring of evaluate and intervals: the model's header, and the
    features, targets, predicted parameters and score(y, params, solver
    settings) of the rows of --data that the model's split rule puts in
    --split.  An error at a row, from the network's head or from the score's
    solve, names its data row of --data, counting rows with a dropped target."""
    from .data import load_csv
    from .nn import load_model

    bundle = load_model(args.model)
    header = bundle.header
    dataset = load_csv(args.data, header.data.target_column, header.data.feature_columns)
    if header.split_rule is None:
        raise DataError("model carries no split rule; cannot select a split")
    rows = header.split_rule.apply(dataset)[args.split]
    if len(rows) == 0:
        raise DataError(f"split {args.split!r} is empty for this dataset")
    x, y, data_rows = dataset.x[rows], dataset.y[rows], dataset.source_rows[rows]
    del dataset, rows  # the score runs holding the split's rows, not the whole file's
    with row_map(data_rows):
        params = bundle.predict_params(x)
        return header, x, y, params, score(y, params, header.solver)


def cmd_simulate(args) -> None:
    from . import synth
    from .data import write_csv, write_json

    registry, generate = {
        "gandh": (synth.GANDH_DESIGNS, synth.generate_gandh),
        "student_t": (synth.STUDENT_T_DESIGNS, synth.generate_student_t),
    }[args.design]
    if args.curves not in registry:
        raise UsageError(f"unknown curve set {args.curves!r} for design {args.design!r}")
    if not 1 <= args.n <= MAX_SIMULATE_ROWS:
        raise UsageError(f"--n must lie in [1, {MAX_SIMULATE_ROWS}]")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    ds = generate(args.n, registry[args.curves], args.seed)
    write_csv(args.out, {"x": ds.x, "y": ds.y, **ds.true_values})
    write_json(f"{args.out}.json", {
        "design": args.design,
        "curves": args.curves,
        "n": args.n,
        "seed": args.seed,
        "columns": ["x", "y", *ds.true_values],
    })


def cmd_train(args) -> None:
    import numpy as np

    from .config import load_config
    from .data import load_csv, standardize, write_csv
    from .nn import ModelBundle, Network, save_model, train
    from .nn.network import EVAL_CHUNK
    from .nn.persist import DataColumns, ModelHeader

    cfg = load_config(args.config)
    data = cfg.data
    # late-injected columns come last
    ordered = tuple(c for c in data.features if c not in data.late_columns) + data.late_columns
    dataset = load_csv(args.data, data.target, ordered)
    print(f"loaded {len(dataset)} rows ({dataset.n_dropped} dropped)")
    split = cfg.split.apply(dataset)
    if data.standardize:
        dataset = standardize(dataset, split["train"])

    header = ModelHeader(
        cfg.loss, cfg.network, cfg.link, cfg.solver,
        DataColumns(ordered, data.late_columns, data.target, dataset.standardization),
        cfg.split,
    )
    # checked before any network array exists; a forward takes a batch or EVAL_CHUNK rows
    spec, n_train = header.spec, len(split["train"])
    width = max(map(max, spec.layer_dims()))
    for key, size in (("network.hidden", max(spec.state_size, width * EVAL_CHUNK)),
                      ("training.batch_size", width * min(cfg.training.batch_size, n_train))):
        if size > MAX_NETWORK_VALUES:
            raise ConfigError(f"{key}: the network would hold {size} values in one array, "
                              f"more than {MAX_NETWORK_VALUES}")
    net = Network(spec, seed=cfg.seed)
    # link or a loss check names a divergence, at its data row of --data
    with np.errstate(over="ignore", invalid="ignore"), row_map(dataset.source_rows):
        history = train(
            net, dataset.x, dataset.y, split["train"], split["val"],
            cfg.optimizer, cfg.training, cfg.link, cfg.solver, seed=cfg.seed,
        )
    save_model(args.out, ModelBundle(header, net))
    columns = {name: np.asarray(getattr(history, name), dtype=float)
               for name in ("epoch", "lr", "train_loss", "val_loss")}
    write_csv(f"{args.out}.history.csv", columns)
    if args.svg:
        from .svg import render_plot

        render_plot(
            args.svg,
            [(columns["epoch"], columns["train_loss"], "train"),
             (columns["epoch"], columns["val_loss"], "val")],
            title="mean loss per epoch", xlabel="epoch", ylabel="loss",
        )
    best = history.best_epoch if history.best_epoch is not None else -1
    print(f"trained {cfg.loss} head for {cfg.training.epochs} epochs; "
          f"best validation loss at epoch {best}")


def cmd_evaluate(args) -> None:
    import numpy as np

    from .data import write_csv, write_json
    from .evaluate import binned_residual_summary, coverage_table, ks_critical_value, residuals

    header, x, y, params, report = _score_split(args, residuals)

    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "report.csv"), {
        "y": y, "mu": params.mu, "sigma": params.sigma, "g": params.g, "h": params.h,
        "z_hat": report.z_hat, "u": report.u,
    })
    write_csv(os.path.join(args.out, "qq.csv"),
              {"theoretical": report.qq_theoretical, "empirical": report.qq_empirical})
    edges, means, counts = binned_residual_summary(x[:, 0], report.u)
    write_json(os.path.join(args.out, "summary.json"), {
        "n": len(y),
        "mean_nll": report.mean_nll,
        "ks_statistic": report.ks_statistic,
        "ks_critical_1pct": ks_critical_value(len(y), 0.01),
        "z_hat_mean": float(np.mean(report.z_hat)),
        "z_hat_var": float(np.var(report.z_hat)),
        "split": args.split,
        "loss": header.loss,
        "coverage": coverage_table(report.u),
        "u_bin_edges": [float(v) for v in edges],
        "u_bin_means": [None if v != v else float(v) for v in means],
        "u_bin_counts": [int(v) for v in counts],
    })
    if args.svg:
        from .svg import render_plot

        render_plot(
            args.svg,
            [(report.qq_theoretical, report.qq_empirical, "residuals"),
             (report.qq_theoretical, report.qq_theoretical, "ideal")],
            title="residual QQ", xlabel="normal quantile", ylabel="empirical",
        )
    print(f"evaluated {len(y)} rows: mean NLL {report.mean_nll:.6f}, "
          f"KS {report.ks_statistic:.6f}")


def cmd_intervals(args) -> None:
    import numpy as np

    from .data import write_csv, write_json
    from .evaluate import check_alpha, interval_coverage, shortest_interval, symmetric_interval

    try:
        check_alpha(args.alpha, args.variant)
    except ValueError as exc:
        raise UsageError(f"--alpha: {exc}") from None
    interval = symmetric_interval if args.variant == "symmetric" else shortest_interval
    _, _, y, _, iv = _score_split(args, lambda y, params, _: interval(params, args.alpha))
    write_csv(args.out, {"y": y, "lower": iv.lower, "upper": iv.upper, "gamma": iv.gamma})
    coverage = interval_coverage(y, iv.lower, iv.upper)
    write_json(f"{args.out}.summary.json", {
        "alpha": args.alpha,
        "variant": args.variant,
        "split": args.split,
        "n": len(y),
        "coverage": coverage,
        "mean_length": float(np.mean(iv.upper - iv.lower)),
    })
    print(f"{args.variant} {1 - args.alpha:.0%} intervals on {len(y)} rows: "
          f"coverage {coverage:.4f}")


def cmd_density(args) -> None:
    import numpy as np

    from .data import write_csv
    from .evaluate import density_curve
    from .nn import load_model
    from .tgh import TghParams

    try:
        points = [
            [float(c) for c in chunk.split(",")]
            for chunk in args.features.split(";")
            if chunk.strip()
        ]
        lo, hi, count = args.y_grid.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise UsageError("bad --features or --y-grid syntax") from None
    if not points:
        raise UsageError("no feature points given")
    if not all(np.all(np.isfinite(pt)) for pt in points):
        raise UsageError("--features must be finite")
    if count * len(points) > MAX_DENSITY_VALUES:
        raise UsageError(f"--y-grid count x feature points must be <= {MAX_DENSITY_VALUES}")
    bundle = load_model(args.model)
    width = len(bundle.header.data.feature_columns)
    if any(len(pt) != width for pt in points):
        raise UsageError(f"each feature point needs {width} component(s)")
    p = bundle.predict_params(np.asarray(points, dtype=float))
    with np.errstate(over="ignore"):  # reported below; the float hi - lo never warns
        ends = (np.array([lo, hi]) - p.mu[:, None]) / p.sigma[:, None]
    need = ("count >= 1" if count < 1 else "finite min <= max" if not -np.inf < lo <= hi < np.inf
            else "a span max - min within the double range" if hi - lo == np.inf
            else "(y - mu)/sigma finite at both ends" if not np.all(np.isfinite(ends)) else "")
    if need:
        raise UsageError(f"--y-grid needs {need}")
    grid = np.linspace(lo, hi, count)
    # a (points, grid) batch, which density_curve solves by blocks along the grid
    curves = density_curve(TghParams(p.mu[:, None], p.sigma[:, None], p.g[:, None],
                                     p.h[:, None]), grid, bundle.header.solver)
    write_csv(args.out, {
        "point": np.broadcast_to(np.arange(len(points), dtype=float)[:, None], curves.shape),
        "y": np.broadcast_to(grid, curves.shape),
        "density": curves,
    })
    print(f"wrote {len(points)} density curve(s) of {len(grid)} points")


_COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "intervals": cmd_intervals,
    "density": cmd_density,
}


def main(argv: list[str] | None = None) -> int:
    _apply_thread_cap()
    args = build_parser().parse_args(argv)
    try:
        if [] in vars(args).values():  # argparse reads the value of --flag=-- as []
            raise UsageError("'--' is not an argument value")
        _COMMANDS[args.command](args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (SolverError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        # inputs are opened under DataError or ConfigError, so this is an output
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
