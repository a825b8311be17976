"""Command-line interface: simulate, train, evaluate, intervals, density.

Exit codes: 0 success, 2 usage or configuration error or an unwritable
output, 3 data error, 4 numerical failure.  TGH_THREADS caps the BLAS
worker pools; it is applied before numpy is imported, which is why all
heavy imports live inside the command functions.
"""

from __future__ import annotations

import argparse
import os
import sys


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


def _score_split(args):
    """The scoring prologue of evaluate and intervals: the model, and the
    targets and predicted parameters of the rows of --data that the model's
    split rule puts in --split.  A non-finite head names its data row of
    --data, counting rows with a dropped target."""
    from .data import load_csv
    from .errors import DataError
    from .nn import load_model

    bundle = load_model(args.model)
    header = bundle.header
    dataset = load_csv(args.data, header.data.target_column, header.data.feature_columns)
    if header.split_rule is None:
        raise DataError("model carries no split rule; cannot select a split")
    rows = header.split_rule.apply(dataset).rows(args.split)
    if len(rows) == 0:
        raise DataError(f"split {args.split!r} is empty for this dataset")
    x = dataset.x[rows]
    return header, x, dataset.y[rows], bundle.predict_params(x, dataset.source_rows[rows])


def cmd_simulate(args) -> int:
    from . import synth
    from .data import write_csv, write_json

    registry = synth.GANDH_DESIGNS if args.design == "gandh" else synth.STUDENT_T_DESIGNS
    if args.curves not in registry:
        print(f"unknown curve set {args.curves!r} for design {args.design!r}",
              file=sys.stderr)
        return 2
    fns = registry[args.curves]
    if args.n < 1:
        print("--n must be >= 1", file=sys.stderr)
        return 2
    if args.design == "gandh":
        ds = synth.generate_gandh(args.n, fns, args.seed)
    else:
        ds = synth.generate_student_t(args.n, fns, args.seed)
    write_csv(args.out, {"x": ds.x, "y": ds.y, **ds.true_values})
    write_json(f"{args.out}.json", {
        "design": args.design,
        "curves": args.curves,
        "n": args.n,
        "seed": args.seed,
        "columns": ["x", "y", *ds.true_values],
    })
    return 0


def cmd_train(args) -> int:
    import numpy as np

    from .config import load_config
    from .data import load_csv, standardize, write_csv
    from .nn import ModelBundle, Network, dense_spec, save_model, train
    from .nn.persist import DataColumns, ModelHeader

    cfg = load_config(args.config)
    data = cfg.data
    # late-injected columns come last
    ordered = tuple(c for c in data.features if c not in data.late_columns) + data.late_columns
    dataset = load_csv(args.data, data.target, ordered)
    print(f"loaded {len(dataset)} rows ({dataset.n_dropped} dropped)")
    dataset = cfg.split.apply(dataset)
    if data.standardize:
        dataset = standardize(dataset)

    spec = dense_spec(
        len(data.features), list(cfg.network.hidden), cfg.head_dim,
        late_features=len(data.late_columns), batch_norm=cfg.network.batch_norm,
    )
    header = ModelHeader(
        cfg.loss, spec, cfg.link, cfg.solver,
        DataColumns(ordered, data.late_columns, data.target, dataset.standardization),
        cfg.split,
    )
    net = Network(header.network, seed=cfg.seed)
    history = train(
        net, dataset.x, dataset.y,
        dataset.rows("train"), dataset.rows("val"),
        cfg.loss, cfg.optimizer, cfg.training, cfg.link, cfg.solver, seed=cfg.seed,
    )
    save_model(args.out, ModelBundle(header, net))
    write_csv(
        f"{args.out}.history.csv",
        {
            "epoch": np.asarray(history.epoch, dtype=float),
            "lr": np.asarray(history.lr),
            "train_loss": np.asarray(history.train_loss),
            "val_loss": np.asarray(history.val_loss),
        },
    )
    if args.svg:
        from .svg import render_plot

        epochs = np.asarray(history.epoch, dtype=float)
        render_plot(
            args.svg,
            [(epochs, np.asarray(history.train_loss), "train"),
             (epochs, np.asarray(history.val_loss), "val")],
            title="mean loss per epoch", xlabel="epoch", ylabel="loss",
        )
    best = history.best_epoch if history.best_epoch is not None else -1
    print(f"trained {cfg.loss} head for {cfg.training.epochs} epochs; "
          f"best validation loss at epoch {best}")
    return 0


def cmd_evaluate(args) -> int:
    from .evaluate import (
        binned_residual_summary,
        coverage_table,
        residuals,
        write_qq_csv,
        write_report_csv,
        write_summary_json,
    )

    header, x, y, params = _score_split(args)
    report = residuals(y, params, header.solver)

    os.makedirs(args.out, exist_ok=True)
    write_report_csv(os.path.join(args.out, "report.csv"), y, params, report)
    write_qq_csv(os.path.join(args.out, "qq.csv"), report)
    edges, means, counts = binned_residual_summary(x[:, 0], report.u)
    write_summary_json(
        os.path.join(args.out, "summary.json"),
        report,
        extra={
            "split": args.split,
            "loss": header.loss,
            "coverage": coverage_table(report.u),
            "u_bin_edges": [float(v) for v in edges],
            "u_bin_means": [None if v != v else float(v) for v in means],
            "u_bin_counts": [int(v) for v in counts],
        },
    )
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
    return 0


def cmd_intervals(args) -> int:
    import numpy as np

    from .data import write_csv, write_json
    from .evaluate import check_alpha, interval_coverage, shortest_interval, symmetric_interval

    try:
        check_alpha(args.alpha, args.variant)
    except ValueError as exc:
        print(f"--alpha: {exc}", file=sys.stderr)
        return 2
    _, _, y, params = _score_split(args)
    if args.variant == "symmetric":
        iv = symmetric_interval(params, args.alpha)
    else:
        iv = shortest_interval(params, args.alpha)
    gamma = np.broadcast_to(np.asarray(iv.gamma, dtype=float), (len(y),))
    write_csv(
        args.out,
        {"y": y, "lower": iv.lower, "upper": iv.upper, "gamma": gamma},
    )
    coverage = interval_coverage(y, iv.lower, iv.upper)
    write_json(f"{args.out}.summary.json", {
        "alpha": args.alpha,
        "variant": args.variant,
        "split": args.split,
        "n": len(y),
        "coverage": coverage,
        "mean_length": float(np.mean(np.asarray(iv.upper) - np.asarray(iv.lower))),
    })
    print(f"{args.variant} {1 - args.alpha:.0%} intervals on {len(y)} rows: "
          f"coverage {coverage:.4f}")
    return 0


def cmd_density(args) -> int:
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
        grid = np.linspace(float(lo), float(hi), int(count))
    except ValueError:
        print("bad --features or --y-grid syntax", file=sys.stderr)
        return 2
    if not points:
        print("no feature points given", file=sys.stderr)
        return 2
    if not len(grid) or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) < 0):
        print("--y-grid needs finite min <= max and count >= 1", file=sys.stderr)
        return 2
    if not all(np.all(np.isfinite(pt)) for pt in points):
        print("--features must be finite", file=sys.stderr)
        return 2
    bundle = load_model(args.model)
    width = len(bundle.header.data.feature_columns)
    if any(len(pt) != width for pt in points):
        print(f"each feature point needs {width} component(s)", file=sys.stderr)
        return 2
    x = np.asarray(points, dtype=float)
    p = bundle.predict_params(x)
    # one (points, grid) batch: each row's solve is independent of the rest
    curves = density_curve(TghParams(p.mu[:, None], p.sigma[:, None], p.g[:, None],
                                     p.h[:, None]), grid)
    write_csv(args.out, {
        "point": np.repeat(np.arange(len(points), dtype=float), len(grid)),
        "y": np.tile(grid, len(points)),
        "density": curves.ravel(),
    })
    print(f"wrote {len(points)} density curve(s) of {len(grid)} points")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "intervals": cmd_intervals,
    "density": cmd_density,
}


def main(argv: list[str] | None = None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)

    from .errors import ConfigError, DataError, NumericalError, SolverError

    try:
        return _COMMANDS[args.command](args)
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


if __name__ == "__main__":
    sys.exit(main())
