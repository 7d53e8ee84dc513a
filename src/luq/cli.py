"""Batch command-line surface.

Commands: ``fit`` (estimate density + prior from feature/prediction files),
``score`` (epistemic/aleatoric CSV for new features), ``eval`` (ranking and
calibration metrics), ``toy`` (self-contained desk-scale experiments), and
``pca`` (standalone dimensionality reduction).

Exit codes: 0 success, 2 usage error, 3 data error; ``main`` maps every
failure to one of them and prints a command's ``key=value`` results only
on success.  The worker threads and ``LUQ_THREADS`` follow ``luq._pool``;
a bad ``LUQ_THREADS`` is a usage error, reported before any file is read.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import warnings
from dataclasses import fields, replace
from functools import partial

import numpy as np

from . import fileio
from ._pool import thread_cap
from .errors import DivergedError, LuqError, NotPositiveDefiniteError
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

# a row's posterior density at a grid end inside the prior's support, over
# the posterior's peak, above which the grid cuts the posterior off
END_RATIO_LIMIT = 1e-3


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


_PRIOR_ARITY = {"categorical": (0,), "uniform": (2,), "betaprime": (0, 2), "histogram": (0, 1)}


def _prior_spec(spec: str | None, model: str):
    """Check a ``--prior`` spec (``categorical``, ``uniform:LO:HI``,
    ``betaprime[:A:B]`` or ``histogram[:BINS]``) and its pairing with the
    density model, before any file is read: class GMMs need the
    categorical prior, a flow needs a density over outputs.  Returns a
    function of the predictions that builds the prior."""
    if spec is None:
        spec = "categorical" if model == "gmm" else "uniform:-10:10"
    kind, *params = spec.split(":")
    if len(params) not in _PRIOR_ARITY.get(kind, ()):
        raise UsageError(f"--prior {spec or repr(spec)}: expected categorical, uniform:LO:HI, "
                         "betaprime[:A:B] or histogram[:BINS]")
    if (kind == "categorical") != (model == "gmm"):
        raise UsageError(f"--prior {spec} does not pair with --model {model}: gmm takes "
                         "categorical, flow takes uniform, betaprime or histogram")
    with _usage(f"--prior {spec}: "):
        if kind == "categorical":
            fit = lambda predictions: fit_categorical(predictions.astype(np.int64))
        elif kind == "histogram":
            bins = {"bins": int(params[0])} if params else {}
            if bins:
                _require(bins["bins"] >= 1, "--prior histogram:BINS", "at least 1", bins["bins"])
            fit = lambda predictions: fit_histogram(predictions, **bins)
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
    if not (lo < hi and np.isfinite(hi - lo)):
        raise UsageError(f"{flag}: need finite LO < HI with a finite HI - LO")
    return lo, hi


def _from_flags(args, variant: str, *bases, reads=()) -> tuple:
    """The option objects ``bases``, each with the fields set whose flags,
    named by the field, were given; the rest keep theirs.  A given flag
    that sets no field of them and whose dest is not in ``reads`` is a
    usage error, for ``variant`` would ignore it.  A value an object
    rejects is a usage error that names its flag after the object's
    message, which begins with the field."""
    read = {f.name for base in bases for f in fields(base)} | set(reads)
    unread = [flag for dest, flag in args.flags.items() if dest in args and dest not in read]
    if unread:
        raise UsageError(f"{variant} does not read {', '.join(unread)}")
    given = vars(args)
    try:
        return tuple(replace(base, **{f.name: given[f.name] for f in fields(base)
                                      if f.name in given}) for base in bases)
    except ValueError as exc:
        raise UsageError(f"{exc} (from {args.flags[str(exc).split()[0]]})") from exc


# --- fit -------------------------------------------------------------------


def _fit_options(args):
    """``EmOptions`` for gmm, ``(FlowTrainConfig, FlowArchitecture)`` for
    flow.  Out-of-range flag values are usage errors; ``--whiten`` is read
    only with ``--pca``."""
    pca = "pca" in args
    if pca:
        _require(args.pca >= 1, "--pca", "at least 1", args.pca)
    variant = f"--model {args.model}" + ("" if pca or "whiten" not in args else " without --pca")
    reads = ("prior", "pca", "whiten") if pca else ("prior", "pca")
    if args.model == "gmm":
        return _from_flags(args, variant, EmOptions(), reads=reads)[0]
    from .flow import FlowArchitecture, FlowTrainConfig

    return _from_flags(args, variant, FlowTrainConfig(), FlowArchitecture(), reads=reads)


def cmd_fit(args) -> dict:
    options = _fit_options(args)
    build_prior = _prior_spec(vars(args).get("prior"), args.model)
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
    try:
        prior = build_prior(predictions)
    except OverflowError as exc:  # a histogram over predictions too far apart
        raise fileio.DataFormatError(f"--predictions {args.predictions}: {exc}") from exc

    pca = None
    if "pca" in args:
        with _usage("--pca: "):  # the bound depends on the file read
            pca = pca_fit(x, args.pca, whiten="whiten" in args)
        x = pca_transform(pca, x)

    results = {"pca_dim": args.pca} if pca is not None else {}
    results["n_rows"] = x.shape[0]
    results["dim"] = x.shape[1]

    if args.model == "gmm":
        labels = predictions.astype(np.int64)
        try:
            density = fit_class_conditional(x, labels, options)
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(
                f"{exc}: a covariance is singular; raise --cov-reg (now {options.cov_reg:g})"
            ) from exc
        for c in density.classes:
            results[f"class_{c}_count"] = int(np.sum(labels == c))
            results[f"class_{c}_final_ll"] = density.per_class[c].em_log[-1]
        bundle = fileio.ModelBundle(prior=prior, class_gmms=density, pca=pca)
    else:
        from .flow import flow_train

        cfg, arch = options
        try:
            with _usage("--val-fraction: "):  # the split depends on the rows read
                flow, log = flow_train(x, predictions, cfg, arch=arch)
        except DivergedError as exc:  # the flow trains on the raw values read
            raise DivergedError(f"--predictions {args.predictions}, --features "
                                f"{args.features}: {exc}") from exc
        results["epochs_run"] = len(log.train_nll)
        results["best_epoch"] = log.best_epoch
        results["best_val_nll"] = log.val_nll[log.best_epoch]
        results["final_train_nll"] = float(log.train_nll[-1])
        bundle = fileio.ModelBundle(prior=prior, flow=flow, pca=pca)

    fileio.write_model(args.output, bundle)
    results["model_file"] = args.output
    return results


# --- score -----------------------------------------------------------------


def _grid_range(bundle: fileio.ModelBundle, args) -> tuple[float, float]:
    if "grid_range" in args:
        return _parse_range(args.grid_range, "--grid-range")
    if isinstance(bundle.prior, UniformPrior):
        return bundle.prior.lo, bundle.prior.hi
    if hasattr(bundle.prior, "edges"):
        return float(bundle.prior.edges[0]), float(bundle.prior.edges[-1])
    raise UsageError("the prior has unbounded support; pass --grid-range LO:HI")


def cmd_score(args) -> dict:
    from .engine import SupportGrid, prior_on_grid, score_classification, score_regression

    points = vars(args).get("grid", 1000)
    _require(points >= 2, "--grid", "at least 2", points)
    bundle = fileio.read_model(args.model)
    if bundle.class_gmms is not None:  # scored without a grid; a flow reads every flag
        _from_flags(args, f"GMM model {args.model}")
    x = fileio.read_features(args.features)
    width = bundle.feature_dim if bundle.pca is None else bundle.pca.input_dim
    if x.shape[1] != width:
        raise fileio.DataFormatError(
            f"{args.features}: feature dim {x.shape[1]} does not match model dim {width}")
    if bundle.pca is not None:
        x = pca_transform(bundle.pca, x)
    if bundle.class_gmms is not None:
        scores = score_classification(bundle.class_gmms, bundle.prior, x)
    else:
        grid = SupportGrid.from_range(*_grid_range(bundle, args), points)
        with _usage("--grid-range: "):  # the one scoring error the option causes
            prior_on_grid(bundle.prior, grid)
        scores = score_regression(bundle.flow, bundle.prior, grid, x)
        cut = np.sum(scores.end_ratio > END_RATIO_LIMIT, axis=0)
        ends = [f"{side} end {end:g} ({k} rows)" for side, end, k
                in zip(("lower", "upper"), (grid.lo, grid.hi), cut) if k]
        if ends:
            raise UsageError(f"--grid-range: the grid cuts the posterior off at its "
                             f"{' and its '.join(ends)}: there, inside the prior's support, "
                             f"the posterior density is more than {END_RATIO_LIMIT:g} of its "
                             "peak; widen the range")
    unscored = ~np.isfinite(scores.epistemic)
    if unscored.any():
        raise fileio.DataFormatError(f"{args.features}: data row {np.argmax(unscored) + 1} has "
                                     f"density 0 under the model ({unscored.sum()} such rows)")
    fileio.write_scores_csv(args.output, scores.epistemic, scores.aleatoric)
    return {"rows_scored": x.shape[0],
            "scores_file": args.output}


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


# the optional flags that each eval mode reads
_EVAL_READS = {"ood": (), "calibration": ("plot", "percentile_step"),
               "rmse": ("plot", "thresholds")}


def cmd_eval(args) -> dict:
    from .metrics import calibration_curve, rmse_below_uncertainty

    _from_flags(args, f"--mode {args.mode}", reads=_EVAL_READS[args.mode])
    step = {"percentile_step": args.percentile_step} if "percentile_step" in args else {}
    if step:  # checked before the input is read
        _require(0.01 <= args.percentile_step <= 100.0, "--percentile-step", "in [0.01, 100]",
                 args.percentile_step)
    thresholds = None
    if "thresholds" in args:
        with _usage("--thresholds: "):
            thresholds = np.array([float(t) for t in args.thresholds.split(",")])
        _require(np.isfinite(thresholds).all(), "--thresholds", "finite numbers",
                 args.thresholds)
    plot = vars(args).get("plot")
    results = {"plot_file": plot} if plot else {}
    if args.mode == "ood":
        cols = _eval_columns(args.input, ["score", "label"], binary="label")
        results |= _write_ood_metrics(args.output, cols["score"], cols["label"].astype(int))
    elif args.mode == "calibration":
        cols = _eval_columns(args.input, ["uncertainty", "correct"], binary="correct")
        curve = calibration_curve(cols["uncertainty"], cols["correct"], **step)
        _write_curve(args.output, plot, "percentile", curve.percentiles, "accuracy",
                     curve.accuracies, "calibration", "uncertainty percentile")
        results["final_accuracy"] = float(curve.accuracies[-1])
    else:  # rmse
        cols = _eval_columns(args.input, ["error", "uncertainty"])
        if thresholds is None:
            thresholds = np.percentile(cols["uncertainty"], np.arange(5, 101, 5))
        values = rmse_below_uncertainty(cols["error"], cols["uncertainty"], thresholds)
        _write_curve(args.output, plot, "threshold", thresholds, "rmse", values,
                     "error below uncertainty", "uncertainty threshold")
    results["metrics_file"] = args.output
    return results


# --- toy -------------------------------------------------------------------


def _toy_spec(args):
    """The toy study's spec from the flags, with the classification toy's
    ``EmOptions`` (None for regression); bad values are usage errors."""
    from .toy import CLASSIFICATION_EM, ToyClassificationSpec, ToyRegressionSpec

    if args.kind == "classification":
        return _from_flags(args, "toy classification", ToyClassificationSpec(), CLASSIFICATION_EM,
                           reads=("plot",))
    if "gap" in args:
        args.gap = _parse_range(args.gap, "--gap")
    return _from_flags(args, "toy regression", ToyRegressionSpec(),
                       reads=("plot", "ensemble"))[0], None


def _toy_regression(args, spec, out) -> dict:
    from .toy import run_regression_study

    study = run_regression_study(spec, with_ensemble="ensemble" in args)
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
    if "plot" in args:
        from .plots import svg_line_plot

        svg_line_plot(out / "prediction_band.svg", study.eval_x,
                      [("prediction", study.predictions)],
                      band=(lower, upper), title="prediction with confidence band",
                      x_label="x", y_label="y")
        svg_line_plot(out / "epistemic.svg", study.eval_x,
                      [("epistemic", study.scores.epistemic)],
                      title="epistemic uncertainty", x_label="x", y_label="nats")
    results = {"plots": str(out / "prediction_band.svg")} if "plot" in args else {}
    gap = study.gap_mask()
    train_region = study.train_region_mask()
    results["mlp_epochs"] = len(study.mlp_losses)
    results["flow_best_epoch"] = study.flow_log.best_epoch
    results["epistemic_gap_mean"] = float(study.scores.epistemic[gap].mean())
    results["epistemic_train_mean"] = float(study.scores.epistemic[train_region].mean())
    return results


def _toy_classification(args, spec, em_opts, out) -> dict:
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
    plot = out / "calibration.svg" if "plot" in args else None
    _write_curve(out / "calibration.csv", plot, "percentile", curve.percentiles, "accuracy",
                 curve.accuracies, "calibration", "aleatoric percentile")
    results = {"plots": str(plot)} if plot else {}
    for k, v in values.items():
        results[f"ood_{k}"] = v
    results["test_accuracy"] = float(correct.mean())
    return results


def cmd_toy(args) -> dict:
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


def cmd_pca(args) -> dict:
    _require(args.out_dim >= 1, "--out-dim", "at least 1", args.out_dim)
    x = fileio.read_features(args.features)
    with _usage("--out-dim: "):  # the bound depends on the file read
        model = pca_fit(x, args.out_dim, whiten="whiten" in args)
    transformed = pca_transform(model, x)
    fileio.write_matrix(args.output, transformed)
    return {"input_dim": model.input_dim,
            "out_dim": model.out_dim,
            "eigenvalue_sum": float(np.sum(model.eigenvalues)),
            "top_eigenvalue": float(model.eigenvalues[0]),
            "output_file": args.output}


# --- parser ----------------------------------------------------------------


def _two_layers(text: str) -> tuple[int, int]:
    """``--flow-hidden W`` as ``FlowArchitecture.hidden``: two layers of width W."""
    try:
        return (int(text),) * 2
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luq", description="Uncertainty from the density of latent representations.  "
        "An argument @FILE stands for the arguments FILE holds, each line split as a shell "
        "splits it, # starting a comment; so write --output=@name for a path that begins "
        "with @.")
    sub = parser.add_subparsers(dest="command", required=True)
    # an optional flag's dest is set only when the flag is given
    add_parser = partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p_fit = add_parser("fit", help="fit a density model and output prior")
    p_fit.add_argument("--features", required=True)
    p_fit.add_argument("--predictions", required=True)
    p_fit.add_argument("--model", choices=["gmm", "flow"], required=True)
    p_fit.add_argument("--output", required=True)
    p_fit.add_argument("--prior",
                       help="categorical | uniform:LO:HI | betaprime[:A:B] | histogram[:BINS]")
    p_fit.add_argument("--components", dest="n_components", type=int)
    p_fit.add_argument("--cov-reg", type=float)
    p_fit.add_argument("--covariance", dest="covariance_mode", choices=["full", "tied"])
    p_fit.add_argument("--max-iter", type=int)
    p_fit.add_argument("--tol", type=float)
    p_fit.add_argument("--pca", type=int)
    p_fit.add_argument("--whiten", action="store_true")
    p_fit.add_argument("--learning-rate", type=float)
    p_fit.add_argument("--weight-decay", type=float)
    p_fit.add_argument("--batch-size", type=int)
    p_fit.add_argument("--max-epochs", type=int)
    p_fit.add_argument("--patience", type=int)
    p_fit.add_argument("--val-fraction", type=float)
    p_fit.add_argument("--flow-layers", dest="n_layers", type=int)
    p_fit.add_argument("--flow-hidden", dest="hidden", type=_two_layers)
    p_fit.add_argument("--seed", type=int)
    p_fit.set_defaults(func=cmd_fit)

    p_score = add_parser("score", help="score features with a fitted model")
    p_score.add_argument("--model", required=True)
    p_score.add_argument("--features", required=True)
    p_score.add_argument("--output", required=True)
    p_score.add_argument("--grid", type=int)
    p_score.add_argument("--grid-range",
                         help="LO:HI; write --grid-range=LO:HI when LO is negative")
    p_score.set_defaults(func=cmd_score)

    p_eval = add_parser("eval", help="threshold-free metrics over a scores CSV")
    p_eval.add_argument("--mode", choices=["ood", "calibration", "rmse"], required=True)
    p_eval.add_argument("--input", required=True)
    p_eval.add_argument("--output", required=True)
    p_eval.add_argument("--plot")
    p_eval.add_argument("--percentile-step", type=float)
    p_eval.add_argument("--thresholds",
                        help="T1,T2,...; write --thresholds=T1,T2 when T1 is negative")
    p_eval.set_defaults(func=cmd_eval)

    p_toy = add_parser("toy", help="run a self-contained toy experiment")
    p_toy.add_argument("kind", choices=["regression", "classification"])
    p_toy.add_argument("--out", required=True)
    p_toy.add_argument("--seed", type=int)
    p_toy.add_argument("--mass", dest="band_mass", type=float)
    p_toy.add_argument("--grid", dest="grid_points", type=int)
    p_toy.add_argument("--n-train", type=int)
    p_toy.add_argument("--gap", help="LO:HI; write --gap=LO:HI when LO is negative")
    p_toy.add_argument("--noise", dest="noise_sigma", type=float)
    p_toy.add_argument("--eval-points", type=int)
    p_toy.add_argument("--ensemble", action="store_true")
    p_toy.add_argument("--components", dest="n_components", type=int)
    p_toy.add_argument("--cov-reg", type=float)
    p_toy.add_argument("--per-class", dest="n_per_class", type=int)
    p_toy.add_argument("--cluster-sigma", dest="sigma", type=float)
    p_toy.add_argument("--plot", action="store_true")
    p_toy.set_defaults(func=cmd_toy)

    p_pca = add_parser("pca", help="fit PCA and write transformed features")
    p_pca.add_argument("--features", required=True)
    p_pca.add_argument("--out-dim", type=int, required=True)
    p_pca.add_argument("--output", required=True)
    p_pca.add_argument("--whiten", action="store_true")
    p_pca.set_defaults(func=cmd_pca)

    for p in sub.choices.values():  # each optional flag, by dest
        p.set_defaults(flags={a.dest: a.option_strings[-1] for a in p._actions
                              if not a.required})
    return parser


def _expand_files(argv: list[str]) -> list[str]:
    """``argv`` with each ``@FILE`` replaced by the arguments FILE holds, in
    order: each line split as a shell splits it, ``#`` starting a comment.
    An unquoted ``#`` inside a word, which would cut the word short, is a
    UsageError.  Arguments read from a file are not expanded again."""
    expanded = []
    for arg in argv:
        if not arg.startswith("@"):
            expanded.append(arg)
            continue
        import shlex  # loaded only where a file is expanded

        for lineno, line in enumerate(fileio._read_lines(arg[1:]), start=1):
            lexer = shlex.shlex(line, posix=True)
            lexer.whitespace_split = True
            try:
                for word in lexer:
                    # a comment read from inside a word ends it and counts as a
                    # line; one after whitespace is read after the last word
                    if lexer.lineno > 1:
                        raise UsageError(f"{arg[1:]}: line {lineno}: a # inside a word cuts "
                                         f"{word!r} short; quote the # or put a space before it")
                    expanded.append(word)
            except ValueError as exc:  # an unclosed quote or a trailing escape
                raise fileio.DataFormatError(f"{arg[1:]}: line {lineno}: {exc}") from exc
    return expanded


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        with _usage():
            thread_cap()
        args = parser.parse_args(_expand_files(argv))
        with warnings.catch_warnings():  # one line per warning; the caller's handler returns
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            results = args.func(args)
    except SystemExit as exc:  # argparse has printed its message or the help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LuqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # a size flag too large to allocate, such as --grid
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA
    for key, value in results.items():  # a command that fails prints no result
        if isinstance(value, float):
            value = fileio.format_float(value)
        print(f"{key}={value}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
