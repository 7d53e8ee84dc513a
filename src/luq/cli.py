"""Batch command-line surface.

Commands: ``fit`` (estimate density + prior from feature/prediction files),
``score`` (epistemic/aleatoric CSV for new features), ``eval`` (ranking and
calibration metrics), ``toy`` (self-contained desk-scale experiments), and
``pca`` (standalone dimensionality reduction).

Exit codes: 0 success, 2 usage error, 3 data error; ``main`` maps every
failure to one of them.  The worker threads and ``LUQ_THREADS`` follow
``luq._pool``; a bad ``LUQ_THREADS`` is a usage error, reported before
any file is read.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import fileio
from ._pool import thread_cap
from .errors import LuqError, NotPositiveDefiniteError
# fileio loads gmm, linalg and priors for every command; every other module
# is imported by the command that runs it
from .gmm import EmOptions, fit_class_conditional
from .linalg import pca_fit, pca_transform
from .priors import (
    BetaPrimePrior,
    UniformPrior,
    betaprime_fit_mom,
    fit_categorical,
    fit_histogram,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


def _require(ok: bool, flag: str, rule: str, value) -> None:
    """Commands check option values before they read a file or train."""
    if not ok:
        raise UsageError(f"{flag} must be {rule}, got {value}")


@contextlib.contextmanager
def _usage(prefix: str = ""):
    """A ValueError raised in the block, which rejects an option value, is a
    usage error with the message ``prefix`` + its own."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{prefix}{exc}") from exc


def _emit(key, value):
    if isinstance(value, float):
        value = fileio.format_float(value)
    print(f"{key}={value}")


_PRIOR_ARITY = {"categorical": (0,), "uniform": (2,), "betaprime": (0, 2), "histogram": (0, 1)}


def _prior_spec(spec: str | None, model: str):
    """Check a ``--prior`` spec (``categorical``, ``uniform:LO:HI``,
    ``betaprime[:A:B]`` or ``histogram[:BINS]``) and its pairing with the
    density model, before any file is read: class GMMs need the
    categorical prior, a flow needs a density over outputs.  Returns a
    function of the predictions that builds the prior."""
    spec = spec or ("categorical" if model == "gmm" else "uniform:-10:10")
    kind, *params = spec.split(":")
    if kind not in _PRIOR_ARITY:
        raise UsageError(f"unknown prior kind {kind!r}")
    if len(params) not in _PRIOR_ARITY[kind]:
        raise UsageError(f"bad prior spec {spec!r}: expected categorical, uniform:LO:HI, "
                         "betaprime[:A:B] or histogram[:BINS]")
    if (kind == "categorical") != (model == "gmm"):
        raise UsageError(f"--model {model} cannot use the {kind} prior: gmm takes "
                         "categorical, flow takes uniform, betaprime or histogram")
    with _usage(f"bad prior spec {spec!r}: "):
        if kind == "categorical":
            fit = lambda predictions: fit_categorical(predictions.astype(np.int64))
        elif kind == "histogram":
            bins = int(params[0]) if params else 32
            _require(bins >= 1, "--prior histogram:BINS", "at least 1", bins)
            fit = lambda predictions: fit_histogram(predictions, bins=bins)
        elif kind == "betaprime" and not params:
            fit = betaprime_fit_mom
        else:
            cls = UniformPrior if kind == "uniform" else BetaPrimePrior
            prior = cls(float(params[0]), float(params[1]))
            fit = lambda predictions: prior

    def build(predictions):
        with _usage(f"--prior {spec}: "):
            return fit(predictions)

    return build


def _parse_range(text: str, flag: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"{flag} expects LO:HI")
    with _usage(f"{flag}: "):
        lo, hi = float(parts[0]), float(parts[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise UsageError(f"{flag}: need finite LO < HI")
    return lo, hi


# --- fit -------------------------------------------------------------------


def _fit_options(args):
    """``EmOptions`` for gmm, ``(FlowTrainConfig, FlowArchitecture)`` for
    flow.  Out-of-range flag values are usage errors."""
    _require(args.pca is None or args.pca >= 1, "--pca", "at least 1", args.pca)
    with _usage():
        if args.model == "gmm":
            return EmOptions(
                n_components=args.components,
                max_iter=args.max_iter,
                tol=args.tol,
                cov_reg=args.cov_reg,
                covariance_mode=(
                    "tied_across_components" if args.covariance == "tied"
                    else "full_per_component"
                ),
                seed=args.seed,
            )
        from .flow import FlowArchitecture, FlowTrainConfig

        cfg = FlowTrainConfig(
            learning_rate=args.learning_rate,
            weight_decay=args.weight_decay,
            batch_size=args.batch_size,
            max_epochs=args.max_epochs,
            patience=args.patience,
            val_fraction=args.val_fraction,
            seed=args.seed,
        )
        arch = FlowArchitecture(
            n_layers=args.flow_layers,
            hidden=(args.flow_hidden, args.flow_hidden),
        )
        return cfg, arch


def cmd_fit(args) -> int:
    options = _fit_options(args)
    build_prior = _prior_spec(args.prior, args.model)
    x = fileio.read_features(args.features)
    predictions = fileio.read_values(args.predictions)
    if len(predictions) != x.shape[0]:
        raise fileio.DataFormatError(
            f"{args.predictions}: {len(predictions)} predictions for "
            f"{x.shape[0]} feature rows"
        )
    if args.model == "gmm":  # class ids are stored as int64
        fractional = (predictions != np.round(predictions)) | (np.abs(predictions) >= 2.0**63)
        if fractional.any():
            row = int(np.argmax(fractional))
            raise fileio.DataFormatError(
                f"{args.predictions}: data row {row + 1} holds {predictions[row]:g}, "
                "not an integer class id"
            )
    prior = build_prior(predictions)

    pca = None
    if args.pca is not None:
        with _usage("--pca: "):  # the bound depends on the file read
            pca = pca_fit(x, args.pca, whiten=args.whiten)
        x = pca_transform(pca, x)
        _emit("pca_dim", args.pca)

    _emit("n_rows", x.shape[0])
    _emit("dim", x.shape[1])

    if args.model == "gmm":
        labels = predictions.astype(np.int64)
        try:
            density = fit_class_conditional(x, labels, options)
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(
                f"{exc}: a covariance is singular; raise --cov-reg (now {args.cov_reg:g})"
            ) from exc
        for c in density.classes:
            _emit(f"class_{c}_count", int(np.sum(labels == c)))
            _emit(f"class_{c}_final_ll", density.per_class[c].em_log[-1])
        bundle = fileio.ModelBundle(prior=prior, class_gmms=density, pca=pca)
    else:
        from .flow import flow_train

        cfg, arch = options
        flow, log = flow_train(x, predictions, cfg, arch=arch)
        _emit("epochs_run", len(log.train_nll))
        _emit("best_epoch", log.best_epoch)
        _emit("best_val_nll", log.best_val_nll)
        _emit("final_train_nll", float(log.train_nll[-1]))
        bundle = fileio.ModelBundle(prior=prior, flow=flow, pca=pca)

    fileio.write_model(args.output, bundle)
    _emit("model_file", args.output)
    return EXIT_OK


# --- score -----------------------------------------------------------------


def _grid_range(bundle: fileio.ModelBundle, args) -> tuple[float, float]:
    if args.grid_range:
        return _parse_range(args.grid_range, "--grid-range")
    if isinstance(bundle.prior, UniformPrior):
        return bundle.prior.lo, bundle.prior.hi
    if hasattr(bundle.prior, "edges"):
        return float(bundle.prior.edges[0]), float(bundle.prior.edges[-1])
    raise UsageError("the prior has unbounded support; pass --grid-range LO:HI")


def cmd_score(args) -> int:
    from .engine import SupportGrid, prior_on_grid, score_classification, score_regression

    _require(args.grid >= 2, "--grid", "at least 2", args.grid)
    bundle = fileio.read_model(args.model)
    x = fileio.read_features(args.features)
    if bundle.pca is not None and x.shape[1] == bundle.pca.input_dim:
        x = pca_transform(bundle.pca, x)
    if x.shape[1] != bundle.feature_dim:
        raise fileio.DataFormatError(
            f"{args.features}: feature dim {x.shape[1]} does not match "
            f"model dim {bundle.feature_dim}"
        )
    if bundle.class_gmms is not None:
        scores = score_classification(bundle.class_gmms, bundle.prior, x)
    else:
        grid = SupportGrid.from_range(*_grid_range(bundle, args), args.grid)
        with _usage("--grid-range: "):  # the one scoring error the option causes
            prior_on_grid(bundle.prior, grid)
        scores = score_regression(bundle.flow, bundle.prior, grid, x)
    unscored = ~np.isfinite(scores.epistemic)
    if unscored.any():
        raise fileio.DataFormatError(f"{args.features}: data row {np.argmax(unscored) + 1} has "
                                     f"density 0 under the model ({unscored.sum()} such rows)")
    fileio.write_scores_csv(args.output, scores.epistemic, scores.aleatoric)
    _emit("rows_scored", x.shape[0])
    _emit("scores_file", args.output)
    return EXIT_OK


# --- eval ------------------------------------------------------------------


def _write_ood_metrics(path, scores, labels) -> dict:
    """AUROC, AP and FPR at 95 % TPR of ``scores`` against ``labels`` (1 for
    out-of-distribution), written as a one-row CSV; returns them by name."""
    from .metrics import auroc, average_precision, fpr_at_tpr

    values = {
        "auroc": auroc(scores, labels),
        "ap": average_precision(scores, labels),
        "fpr95": fpr_at_tpr(scores, labels, 0.95),
    }
    fileio.write_csv(path, list(values), [np.array([v]) for v in values.values()])
    return values


def _write_curve(path, plot, x_name: str, x, y_name: str, y, title: str,
                 x_label: str) -> None:
    """The curve ``y`` over ``x`` as a two-column CSV at ``path`` and, given a
    ``plot`` path, as an SVG line plot."""
    fileio.write_csv(path, [x_name, y_name], [x, y])
    if plot:
        from .plots import svg_line_plot

        svg_line_plot(plot, x, [(y_name, y)], title=title, x_label=x_label, y_label=y_name)


def _eval_columns(path, names: list[str], binary: str | None = None) -> dict:
    """The ``names`` columns of an eval input CSV.  A non-finite cell, or a
    value other than 0 and 1 in the ``binary`` column, is a data error that
    names the column and the CSV row (the header is row 1), as
    ``read_csv_columns`` numbers them."""
    cols = fileio.read_csv_columns(path, names)
    for name in names:
        values = cols[name]
        if name == binary:
            bad, rule = (values != 0) & (values != 1), "0 or 1"
        else:
            bad, rule = ~np.isfinite(values), "a finite number"
        if bad.any():
            row = int(np.argmax(bad))
            raise fileio.DataFormatError(
                f"{path}: column {name!r}, row {row + 2}: {values[row]:g} is not {rule}"
            )
    return cols


def cmd_eval(args) -> int:
    from .metrics import calibration_curve, rmse_below_uncertainty

    _require(0.0 < args.percentile_step <= 100.0, "--percentile-step", "in (0, 100]",
             args.percentile_step)
    thresholds = None
    if args.thresholds:
        with _usage("--thresholds: "):
            thresholds = np.array([float(t) for t in args.thresholds.split(",")])
        _require(np.isfinite(thresholds).all(), "--thresholds", "finite numbers",
                 args.thresholds)
    if args.mode == "ood":
        if args.plot:
            raise UsageError("--plot applies to calibration and rmse modes")
        cols = _eval_columns(args.input, ["score", "label"], binary="label")
        values = _write_ood_metrics(args.output, cols["score"], cols["label"].astype(int))
        for k, v in values.items():
            _emit(k, v)
    elif args.mode == "calibration":
        cols = _eval_columns(args.input, ["uncertainty", "correct"], binary="correct")
        curve = calibration_curve(cols["uncertainty"], cols["correct"],
                                  percentile_step=args.percentile_step)
        _write_curve(args.output, args.plot, "percentile", curve.percentiles, "accuracy",
                     curve.accuracies, "calibration", "uncertainty percentile")
        if args.plot:
            _emit("plot_file", args.plot)
        _emit("final_accuracy", float(curve.accuracies[-1]))
    else:  # rmse
        cols = _eval_columns(args.input, ["error", "uncertainty"])
        if thresholds is None:
            thresholds = np.percentile(cols["uncertainty"], np.arange(5, 101, 5))
        values = rmse_below_uncertainty(cols["error"], cols["uncertainty"], thresholds)
        _write_curve(args.output, args.plot, "threshold", thresholds, "rmse", values,
                     "error below uncertainty", "uncertainty threshold")
        if args.plot:
            _emit("plot_file", args.plot)
    _emit("metrics_file", args.output)
    return EXIT_OK


# --- toy -------------------------------------------------------------------


def _toy_spec(args):
    """The toy study's spec from the flags, with the classification toy's
    ``EmOptions`` (None for regression); bad values are usage errors."""
    from .toy import ToyClassificationSpec, ToyRegressionSpec, regression_eval_x

    with _usage():
        if args.kind == "classification":
            spec = ToyClassificationSpec(
                sigma=args.cluster_sigma, n_per_class=args.per_class, seed=args.seed
            )
            return spec, EmOptions(n_components=args.components, cov_reg=args.cov_reg,
                                   seed=args.seed)
        _require(args.grid >= 2, "--grid", "at least 2", args.grid)
        _require(0.0 < args.mass < 1.0, "--mass", "in (0, 1)", args.mass)
        spec = ToyRegressionSpec(n_train=args.n_train, gap=_parse_range(args.gap, "--gap"),
                                 noise_sigma=args.noise, seed=args.seed)
        regression_eval_x(spec, args.eval_points)
        return spec, None


def _toy_regression(args, spec, out) -> int:
    from .toy import run_regression_study

    study = run_regression_study(
        spec,
        eval_points=args.eval_points,
        band_mass=args.mass,
        grid_points=args.grid,
        with_ensemble=args.ensemble,
    )
    fileio.write_csv(out / "train_data.csv", ["x", "y"],
                     [study.train_x[:, 0], study.train_y])
    fileio.write_csv(out / "mlp_loss.csv",
                     ["epoch", "loss"],
                     [np.arange(len(study.mlp_losses)), study.mlp_losses])
    fileio.write_matrix(out / "train_latents.luq", study.train_latents)
    fileio.write_matrix(out / "train_predictions.luq", study.train_predictions[:, None])
    fileio.write_model(out / "model.luqm",
                       fileio.ModelBundle(prior=study.prior, flow=study.flow))
    fileio.write_scores_csv(out / "scores.csv", study.scores.epistemic,
                            study.scores.aleatoric)
    lower = np.array([b.lower for b in study.bands])
    upper = np.array([b.upper for b in study.bands])
    fileio.write_csv(
        out / "curve.csv",
        ["x", "prediction", "band_lower", "band_upper", "epistemic_nats",
         "aleatoric_nats"],
        [study.eval_x, study.predictions, lower, upper,
         study.scores.epistemic, study.scores.aleatoric],
    )
    if study.ensemble_epistemic is not None:
        fileio.write_csv(out / "ensemble.csv", ["x", "epistemic_variance"],
                         [study.eval_x, study.ensemble_epistemic])
    if args.plot:
        from .plots import svg_line_plot

        svg_line_plot(out / "prediction_band.svg", study.eval_x,
                      [("prediction", study.predictions)],
                      band=(lower, upper), title="prediction with confidence band",
                      x_label="x", y_label="y")
        svg_line_plot(out / "epistemic.svg", study.eval_x,
                      [("epistemic", study.scores.epistemic)],
                      title="epistemic uncertainty", x_label="x", y_label="nats")
        _emit("plots", str(out / "prediction_band.svg"))
    gap = study.gap_mask()
    train_region = study.train_region_mask()
    _emit("mlp_epochs", len(study.mlp_losses))
    _emit("flow_best_epoch", study.flow_log.best_epoch)
    _emit("epistemic_gap_mean", float(study.scores.epistemic[gap].mean()))
    _emit("epistemic_train_mean", float(study.scores.epistemic[train_region].mean()))
    return EXIT_OK


def _toy_classification(args, spec, em_opts, out) -> int:
    from .metrics import calibration_curve
    from .toy import gen_ood_data, run_classification_study

    study = run_classification_study(spec, em_opts=em_opts)
    fileio.write_csv(out / "train_data.csv", ["x0", "x1", "label"],
                     [study.train_x[:, 0], study.train_x[:, 1], study.train_labels])
    fileio.write_matrix(out / "train_latents.luq", study.train_latents)
    fileio.write_matrix(out / "train_predicted_labels.luq",
                        study.train_predicted.astype(np.float64)[:, None])
    fileio.write_model(out / "model.luqm",
                       fileio.ModelBundle(prior=study.prior, class_gmms=study.density))
    fileio.write_scores_csv(out / "scores.csv", study.test_scores.epistemic,
                            study.test_scores.aleatoric)

    ood_x, _ = gen_ood_data(spec, seed_offset=2)
    ood_scores = study.score_inputs(ood_x)
    fileio.write_scores_csv(out / "ood_scores.csv", ood_scores.epistemic,
                            ood_scores.aleatoric)
    labels = np.concatenate([np.zeros(len(study.test_x)), np.ones(len(ood_x))])
    pooled = np.concatenate([study.test_scores.epistemic, ood_scores.epistemic])
    values = _write_ood_metrics(out / "ood_metrics.csv", pooled, labels)
    correct = (study.test_predictions == study.test_labels).astype(float)
    curve = calibration_curve(study.test_scores.aleatoric, correct)
    plot = out / "calibration.svg" if args.plot else None
    _write_curve(out / "calibration.csv", plot, "percentile", curve.percentiles, "accuracy",
                 curve.accuracies, "calibration", "aleatoric percentile")
    if plot:
        _emit("plots", str(plot))
    for k, v in values.items():
        _emit(f"ood_{k}", v)
    _emit("test_accuracy", float(correct.mean()))
    return EXIT_OK


def cmd_toy(args) -> int:
    from pathlib import Path

    spec, em_opts = _toy_spec(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"  # fail on an unwritable --out before any training
    probe.write_text("")
    probe.unlink()
    if args.kind == "regression":
        return _toy_regression(args, spec, out)
    return _toy_classification(args, spec, em_opts, out)


# --- pca -------------------------------------------------------------------


def cmd_pca(args) -> int:
    _require(args.out_dim >= 1, "--out-dim", "at least 1", args.out_dim)
    x = fileio.read_features(args.features)
    with _usage("--out-dim: "):  # the bound depends on the file read
        model = pca_fit(x, args.out_dim, whiten=args.whiten)
    transformed = pca_transform(model, x)
    fileio.write_matrix(args.output, transformed)
    total = float(np.sum(model.eigenvalues))
    _emit("input_dim", model.input_dim)
    _emit("out_dim", model.out_dim)
    _emit("eigenvalue_sum", total)
    _emit("top_eigenvalue", float(model.eigenvalues[0]))
    _emit("output_file", args.output)
    return EXIT_OK


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luq",
        description="Uncertainty from the density of latent representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a density model and output prior")
    p_fit.add_argument("--features", required=True)
    p_fit.add_argument("--predictions", required=True)
    p_fit.add_argument("--model", choices=["gmm", "flow"], required=True)
    p_fit.add_argument("--output", required=True)
    p_fit.add_argument("--prior", default=None,
                       help="categorical | uniform:LO:HI | betaprime[:A:B] | histogram[:BINS]")
    p_fit.add_argument("--components", type=int, default=1)
    p_fit.add_argument("--cov-reg", type=float, default=1e-6)
    p_fit.add_argument("--covariance", choices=["full", "tied"], default="full")
    p_fit.add_argument("--max-iter", type=int, default=200)
    p_fit.add_argument("--tol", type=float, default=1e-6)
    p_fit.add_argument("--pca", type=int, default=None)
    p_fit.add_argument("--whiten", action="store_true")
    p_fit.add_argument("--learning-rate", type=float, default=1e-3)
    p_fit.add_argument("--weight-decay", type=float, default=1e-5)
    p_fit.add_argument("--batch-size", type=int, default=128)
    p_fit.add_argument("--max-epochs", type=int, default=500)
    p_fit.add_argument("--patience", type=int, default=20)
    p_fit.add_argument("--val-fraction", type=float, default=0.2)
    p_fit.add_argument("--flow-layers", type=int, default=3)
    p_fit.add_argument("--flow-hidden", type=int, default=64)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.set_defaults(func=cmd_fit)

    p_score = sub.add_parser("score", help="score features with a fitted model")
    p_score.add_argument("--model", required=True)
    p_score.add_argument("--features", required=True)
    p_score.add_argument("--output", required=True)
    p_score.add_argument("--grid", type=int, default=1000)
    p_score.add_argument("--grid-range", default=None)
    p_score.set_defaults(func=cmd_score)

    p_eval = sub.add_parser("eval", help="threshold-free metrics over a scores CSV")
    p_eval.add_argument("--mode", choices=["ood", "calibration", "rmse"], required=True)
    p_eval.add_argument("--input", required=True)
    p_eval.add_argument("--output", required=True)
    p_eval.add_argument("--plot", default=None)
    p_eval.add_argument("--percentile-step", type=float, default=5.0)
    p_eval.add_argument("--thresholds", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_toy = sub.add_parser("toy", help="run a self-contained toy experiment")
    p_toy.add_argument("kind", choices=["regression", "classification"])
    p_toy.add_argument("--out", required=True)
    p_toy.add_argument("--seed", type=int, default=0)
    p_toy.add_argument("--mass", type=float, default=0.2)
    p_toy.add_argument("--grid", type=int, default=1000)
    p_toy.add_argument("--n-train", type=int, default=750)
    p_toy.add_argument("--gap", default="-0.25:0.25")
    p_toy.add_argument("--noise", type=float, default=0.0)
    p_toy.add_argument("--eval-points", type=int, default=201)
    p_toy.add_argument("--ensemble", action="store_true")
    p_toy.add_argument("--components", type=int, default=20)
    p_toy.add_argument("--cov-reg", type=float, default=1e-4)
    p_toy.add_argument("--per-class", type=int, default=500)
    p_toy.add_argument("--cluster-sigma", type=float, default=0.4)
    p_toy.add_argument("--plot", action="store_true")
    p_toy.set_defaults(func=cmd_toy)

    p_pca = sub.add_parser("pca", help="fit PCA and write transformed features")
    p_pca.add_argument("--features", required=True)
    p_pca.add_argument("--out-dim", type=int, required=True)
    p_pca.add_argument("--output", required=True)
    p_pca.add_argument("--whiten", action="store_true")
    p_pca.set_defaults(func=cmd_pca)

    for p in sub.choices.values():  # last, so --help lists it last
        p.add_argument("--config", default=None)
    return parser


def _merge_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Inject config-file entries as flags ahead of the explicit CLI flags,
    so explicit flags win (argparse keeps the last occurrence).

    The config file is named in any form argparse accepts: ``--config PATH``,
    ``--config=PATH`` or a prefix that only ``--config`` starts with.  Config
    keys are the long flag names without dashes; unknown keys are rejected
    with their line number.
    """
    sub_action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    cmd_idx = next((i for i, tok in enumerate(argv) if tok in sub_action.choices), None)
    if cmd_idx is None:
        return argv
    subparser = sub_action.choices[argv[cmd_idx]]
    known_flags = {}
    for action in subparser._actions:
        for opt in action.option_strings:
            if opt.startswith("--"):
                known_flags[opt[2:]] = action
    path = None
    for i in range(cmd_idx + 1, len(argv)):
        name, eq, value = argv[i].partition("=")
        if name == "--":
            break
        matches = [f for f in known_flags if f.startswith(name[2:])]
        if name.startswith("--") and matches == ["config"]:
            path = value if eq else (argv[i + 1] if i + 1 < len(argv) else None)
    if path is None:
        return argv
    insert = cmd_idx + 1
    while insert < len(argv) and not argv[insert].startswith("-"):
        insert += 1  # keep positionals (e.g. the toy kind) in front
    injected = []
    for lineno, key, value in fileio.parse_config(path):
        if key not in known_flags:
            raise fileio.DataFormatError(f"{path}: line {lineno}: unknown key {key!r}")
        action = known_flags[key]
        if isinstance(action, argparse._StoreTrueAction):
            if value.lower() in ("1", "true", "yes", "on"):
                injected.append(f"--{key}")
        else:
            injected.extend([f"--{key}", value])
    return argv[:insert] + injected + argv[insert:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        with _usage():
            thread_cap()
        args = parser.parse_args(_merge_config(argv, parser))
        return args.func(args)
    except SystemExit as exc:  # argparse has printed its message or the help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LuqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
