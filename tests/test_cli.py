import argparse
import ast
import inspect
import math
import os
import re
import shlex
import struct
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from luq import cli, fileio, toy
from luq.engine import SupportGrid
from luq.fileio import (
    ModelBundle,
    read_csv_columns,
    read_features,
    read_model,
    write_matrix,
    write_model,
)
from luq.flow import FlowArchitecture, FlowTrainConfig
from luq.gmm import ClassConditionalGmm, EmOptions, GaussianComponent, Gmm
from luq.linalg import PcaModel, cholesky, pca_transform
from luq.metrics import calibration_curve
from luq.priors import (
    BetaPrimePrior,
    CategoricalPrior,
    HistogramPrior,
    UniformPrior,
    fit_histogram,
)
from luq.toy import ToyClassificationSpec, ToyRegressionSpec, run_regression_study


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def two_class_reference_model():
    """Unit-weight 1-D Gaussians whose log densities at z=0 are exactly
    -1 and -2; with equal priors the scores at z=0 are the hand-worked
    engine values."""

    def gmm_for(target):
        var = math.exp(-2.0 * target) / (2 * math.pi)
        comp = GaussianComponent(
            log_weight=0.0, mean=np.zeros(1), cov_chol=cholesky(np.array([[var]]))
        )
        return Gmm(dim=1, components=(comp,))

    density = ClassConditionalGmm(
        dim=1, classes=(0, 1), per_class={0: gmm_for(-1.0), 1: gmm_for(-2.0)}
    )
    prior = CategoricalPrior(classes=(0, 1), log_probs=np.log([0.5, 0.5]))
    return ModelBundle(prior=prior, class_gmms=density)


@pytest.fixture
def blob_files(tmp_path):
    rng = np.random.default_rng(0)
    xa = rng.normal(size=(60, 2)) * 0.4 + [2, 2]
    xb = rng.normal(size=(60, 2)) * 0.4 + [-2, -2]
    features = np.vstack([xa, xb])
    labels = np.array([0.0] * 60 + [1.0] * 60)
    fpath = tmp_path / "features.luq"
    ppath = tmp_path / "labels.luq"
    write_matrix(fpath, features)
    write_matrix(ppath, labels[:, None])
    return fpath, ppath


class TestFit:
    def test_gmm_fit_round_trip(self, tmp_path, blob_files, capsys):
        fpath, ppath = blob_files
        model_path = tmp_path / "model.luqm"
        code = run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "gmm", "--components", "2", "--seed", "3",
                       "--output", str(model_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "class_0_count=60" in out
        assert "class_1_count=60" in out
        bundle = read_model(model_path)
        again = tmp_path / "model2.luqm"
        write_model(again, bundle)
        assert model_path.read_bytes() == again.read_bytes()

    def test_flow_fit_reports_early_stop(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(120, 2))
        preds = rng.normal(size=(120, 1))
        fpath = tmp_path / "z.luq"
        ppath = tmp_path / "p.luq"
        write_matrix(fpath, z)
        write_matrix(ppath, preds)
        model_path = tmp_path / "flow.luqm"
        code = run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "flow", "--max-epochs", "200", "--patience", "5",
                       "--flow-hidden", "16", "--prior", "uniform:-10:10",
                       "--output", str(model_path))
        assert code == 0
        out = capsys.readouterr().out
        epochs = int(out.split("epochs_run=")[1].split("\n")[0])
        best = int(out.split("best_epoch=")[1].split("\n")[0])
        assert epochs < 200  # patience triggered
        assert best < epochs
        assert read_model(model_path).flow is not None

    def test_truncated_features_exit_3(self, tmp_path, blob_files, capsys):
        fpath, ppath = blob_files
        raw = fpath.read_bytes()
        fpath.write_bytes(raw[: len(raw) // 2])
        code = run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "gmm", "--output", str(tmp_path / "m.luqm"))
        assert code == 3
        assert "byte offset" in capsys.readouterr().err

    def test_missing_flag_exit_2(self):
        assert run_cli("fit", "--features", "x") == 2

    @pytest.mark.parametrize("labels, row, shown", [
        ([0.7] * 60 + [1.7] * 60, 1, "0.7"),
        ([0.0] * 60 + [1.0] * 10 + [1.5] * 50, 71, "1.5"),
        ([0.0] * 119 + [1e20], 120, "1e+20"),
    ])
    def test_fractional_gmm_predictions_exit_3(self, tmp_path, blob_files, capsys,
                                               monkeypatch, labels, row, shown):
        fpath, ppath = blob_files
        write_matrix(ppath, np.array(labels)[:, None])
        monkeypatch.setattr(cli, "fit_class_conditional", None)  # no fit may start
        model_path = tmp_path / "m.luqm"
        code = run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "gmm", "--output", str(model_path))
        assert code == 3
        captured = capsys.readouterr()
        assert f"{ppath}: data row {row} holds {shown}, not an integer class id" in captured.err
        assert captured.out == ""
        assert not model_path.exists()

    def test_gmm_model_file_independent_of_worker_count(self, tmp_path):
        rng = np.random.default_rng(5)
        centers = np.array([[3.0, 0.0, 0.0], [-3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        labels = np.repeat([0.0, 1.0, 2.0], 70)
        fpath, ppath = tmp_path / "f.luq", tmp_path / "p.luq"
        write_matrix(fpath, rng.normal(size=(210, 3)) + centers[labels.astype(int)])
        write_matrix(ppath, labels[:, None])
        env = subprocess_env(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                             MKL_NUM_THREADS="1")  # one worker per CPU
        env.pop("LUQ_THREADS", None)
        models = []
        for cap in (None, "1"):
            if cap is not None:
                env["LUQ_THREADS"] = cap
            models.append(tmp_path / f"m{cap}.luqm")
            subprocess.run([sys.executable, "-m", "luq", "fit", "--features", str(fpath),
                            "--predictions", str(ppath), "--model", "gmm", "--components",
                            "3", "--seed", "2", "--output", str(models[-1])],
                           env=env, check=True, capture_output=True)
        assert models[0].read_bytes() == models[1].read_bytes()
        # scored in two blocks of rows per class, on one worker and on two
        zpath = tmp_path / "z.luq"
        write_matrix(zpath, rng.normal(scale=3.0, size=(9000, 3)))
        scores = []
        for cap in ("1", "2"):
            env["LUQ_THREADS"] = cap
            scores.append(tmp_path / f"s{cap}.csv")
            subprocess.run([sys.executable, "-m", "luq", "score", "--model", str(models[0]),
                            "--features", str(zpath), "--output", str(scores[-1])],
                           env=env, check=True, capture_output=True)
        assert scores[0].read_bytes() == scores[1].read_bytes()

    def test_flow_scores_independent_of_worker_count(self, tmp_path):
        from luq.flow import FlowArchitecture, build_flow

        flow = build_flow(3, 1, FlowArchitecture(n_layers=2, hidden=(6, 5)), seed=4)
        rng = np.random.default_rng(4)
        for p in flow.params():
            p += rng.normal(scale=0.3, size=p.shape)
        model_path, zpath = tmp_path / "m.luqm", tmp_path / "z.luq"
        write_model(model_path, ModelBundle(prior=UniformPrior(-3.0, 3.0), flow=flow))
        write_matrix(zpath, rng.normal(size=(21, 3)))
        env = subprocess_env(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                             MKL_NUM_THREADS="1")
        scores = []
        for cap in ("1", "2"):  # 600 grid points: two chunks, a tail of 88 in the second
            env["LUQ_THREADS"] = cap
            scores.append(tmp_path / f"s{cap}.csv")
            subprocess.run([sys.executable, "-m", "luq", "score", "--model", str(model_path),
                            "--features", str(zpath), "--output", str(scores[-1]),
                            "--grid", "600"], env=env, check=True, capture_output=True)
        assert scores[0].read_bytes() == scores[1].read_bytes()

    @pytest.mark.parametrize("model, flag, value", [
        ("gmm", "--components", "0"),
        ("gmm", "--tol", "0"),
        ("gmm", "--cov-reg", "-1"),
        ("gmm", "--pca", "0"),
        ("flow", "--val-fraction", "2"),
        ("flow", "--patience", "0"),
        ("flow", "--learning-rate", "0"),
        ("flow", "--flow-layers", "0"),
        ("flow", "--max-epochs", "0"),
        ("flow", "--batch-size", "0"),
        ("flow", "--flow-hidden", "0"),
        ("gmm", "--seed", "-1"),
        ("flow", "--seed", "-1"),
        ("gmm", "--max-iter", "-3"),
        ("gmm", "--cov-reg", "nan"),
        ("gmm", "--cov-reg", "inf"),
        ("gmm", "--tol", "nan"),
        ("flow", "--learning-rate", "nan"),
        ("flow", "--learning-rate", "inf"),
        ("flow", "--weight-decay", "-1"),
        ("flow", "--weight-decay", "nan"),
        ("flow", "--weight-decay", "inf"),
    ])
    def test_bad_option_value_exit_2(self, tmp_path, blob_files, capsys, model, flag, value):
        fpath, ppath = blob_files
        model_path = tmp_path / "m.luqm"
        code = run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", model, flag, value, "--output", str(model_path))
        assert code == 2
        assert "usage error" in capsys.readouterr().err
        assert not model_path.exists()

    def test_zero_max_iter_keeps_the_seeded_model(self, tmp_path, blob_files, capsys):
        fpath, ppath = blob_files
        model_path = tmp_path / "m.luqm"
        assert run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "gmm", "--components", "2", "--max-iter", "0",
                       "--output", str(model_path)) == 0
        assert len(read_model(model_path).class_gmms.per_class[0].components) == 2

    @pytest.mark.parametrize("line", ["--components 0", "--components=0", "--comp 0",
                                      "--comp=0"])
    def test_argument_file_is_merged(self, tmp_path, blob_files, capsys, line):
        fpath, ppath = blob_files
        args = tmp_path / "c.args"
        args.write_text(line + "\n")
        model_path = tmp_path / "m.luqm"
        code = run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "gmm", "--output", str(model_path), f"@{args}")
        assert code == 2
        assert ("usage error: n_components must be >= 1 (from --components)"
                in capsys.readouterr().err)
        assert not model_path.exists()

    @pytest.mark.parametrize("covariance", ["full", "tied"])
    def test_singular_covariance_without_ridge_exit_3(self, tmp_path, blob_files, capsys,
                                                       covariance):
        _, ppath = blob_files
        fpath = tmp_path / "flat.luq"
        features = np.column_stack([np.random.default_rng(2).normal(size=120), np.zeros(120)])
        write_matrix(fpath, features)
        model_path = tmp_path / "m.luqm"
        code = run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "gmm", "--components", "2", "--cov-reg", "0",
                       "--covariance", covariance, "--output", str(model_path))
        assert code == 3
        captured = capsys.readouterr()
        assert "not positive definite" in captured.err
        assert re.search(r"error: class \d+: ", captured.err)  # the class whose fit failed
        assert "raise --cov-reg (now 0)" in captured.err
        assert captured.out == ""
        assert not model_path.exists()

    def test_flow_on_too_few_rows_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        fpath, ppath = tmp_path / "f.luq", tmp_path / "p.luq"
        write_matrix(fpath, rng.normal(size=(6, 3)))
        write_matrix(ppath, rng.normal(size=(6, 1)))
        model_path = tmp_path / "m.luqm"
        assert run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "flow", "--output", str(model_path)) == 3
        assert "at least 10 rows, got 6" in capsys.readouterr().err
        assert not model_path.exists()

    def test_data_driven_prior_fails_before_training(self, tmp_path, capsys):
        # the beta-prime fit rejects the negative predictions; no flow is trained
        rng = np.random.default_rng(1)
        fpath, ppath = tmp_path / "f.luq", tmp_path / "p.luq"
        write_matrix(fpath, rng.normal(size=(40, 2)))
        write_matrix(ppath, rng.normal(size=(40, 1)))
        model_path = tmp_path / "m.luqm"
        assert run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "flow", "--prior", "betaprime",
                       "--output", str(model_path)) == 2
        captured = capsys.readouterr()
        assert "usage error: --prior betaprime" in captured.err
        assert captured.out == ""
        assert not model_path.exists()

    @pytest.mark.parametrize("rows, fraction", [(10, "0.99"), (40, "0.99"), (10, "0.95")])
    def test_val_fraction_leaving_no_training_rows_exit_2(self, tmp_path, capsys, rows,
                                                           fraction):
        # 0.95 of 10 rows rounds to all 10; the bound depends on the file
        rng = np.random.default_rng(1)
        fpath, ppath = tmp_path / "f.luq", tmp_path / "p.luq"
        write_matrix(fpath, rng.normal(size=(rows, 2)))
        write_matrix(ppath, rng.normal(size=(rows, 1)))
        model_path = tmp_path / "m.luqm"
        assert run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "flow", "--val-fraction", fraction,
                       "--output", str(model_path)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: --val-fraction: ")
        assert f"of {rows} rows leaves no training rows" in captured.err
        assert captured.out == ""  # the files were read before the split failed
        assert not model_path.exists()

    def test_histogram_over_overflowing_range_exit_3(self, tmp_path, capsys):
        # the predictions span more than the largest float: a data error,
        # raised with no RuntimeWarning (Tier-1 turns those into errors)
        rng = np.random.default_rng(1)
        fpath, ppath = tmp_path / "f.luq", tmp_path / "p.luq"
        write_matrix(fpath, rng.normal(size=(30, 2)))
        write_matrix(ppath, np.where(np.arange(30) % 2, 1e308, -1e308)[:, None])
        model_path = tmp_path / "m.luqm"
        assert run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "flow", "--prior", "histogram:4",
                       "--output", str(model_path)) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --predictions {ppath}: ")
        assert "wider than the largest float" in captured.err
        assert captured.out == ""
        assert not model_path.exists()

    def test_bare_histogram_prior_takes_the_library_bins(self, tmp_path):
        rng = np.random.default_rng(1)
        fpath, ppath = tmp_path / "f.luq", tmp_path / "p.luq"
        write_matrix(fpath, rng.normal(size=(40, 2)))
        write_matrix(ppath, rng.normal(size=(40, 1)))
        model_path = tmp_path / "m.luqm"
        assert run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "flow", "--prior", "histogram", "--max-epochs", "1",
                       "--output", str(model_path)) == 0
        bins = inspect.signature(fit_histogram).parameters["bins"].default
        assert len(read_model(model_path).prior.edges) == bins + 1

    def test_library_warning_is_one_line(self, blob_files, tmp_path, capsys):
        """A library warning prints as ``warning: <message>``, with no source
        path or line; the caller's handler is back once ``main`` returns."""
        handler = warnings.showwarning
        assert run_cli("fit", "--features", str(blob_files[0]), "--predictions",
                       str(blob_files[1]), "--model", "gmm", "--components", "150",
                       "--output", str(tmp_path / "m.luqm")) == 0
        assert capsys.readouterr().err == "".join(
            f"warning: class {c} has 60 samples; reducing components 150 -> 30\n"
            for c in (0, 1))
        assert warnings.showwarning is handler

    def test_warning_filters_still_apply(self, blob_files, tmp_path):
        # Tier-1 turns a RuntimeWarning into an error; main keeps that filter
        def overflow(*args, **kwargs):
            warnings.warn("overflow encountered", RuntimeWarning)

        with mock.patch.object(cli, "pca_fit", side_effect=overflow):
            with pytest.raises(RuntimeWarning, match="overflow encountered"):
                run_cli("pca", "--features", str(blob_files[0]), "--out-dim", "1",
                        "--output", str(tmp_path / "t.luq"))

    @pytest.mark.parametrize("scale, prior", [(1e308, []),
                                              (1e300, ["--prior", "uniform:-1e301:1e301"])])
    def test_flow_on_overflowing_predictions_exit_3(self, tmp_path, capsys, scale, prior):
        # the flow conditions on the raw predictions; a training step that
        # overflows is a data error, raised with no RuntimeWarning
        rng = np.random.default_rng(1)
        fpath, ppath = tmp_path / "f.luq", tmp_path / "p.luq"
        write_matrix(fpath, rng.normal(size=(30, 2)))
        write_matrix(ppath, np.where(np.arange(30) % 2, scale, -scale)[:, None])
        model_path = tmp_path / "m.luqm"
        assert run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "flow", "--max-epochs", "3", *prior,
                       "--output", str(model_path)) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --predictions {ppath}, --features {fpath}: ")
        assert "overflow" in captured.err
        assert captured.out == ""
        assert not model_path.exists()

    def test_unwritable_output_exit_3(self, tmp_path, blob_files, capsys):
        # the fit has run when the model write fails
        fpath, ppath = blob_files
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "gmm", "--output", str(blocker / "m.luqm")) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(blocker) in captured.err
        assert captured.out == ""

    def test_pca_above_feature_count_exit_2(self, tmp_path, blob_files, capsys):
        # the bound depends on the file: the blob features have 2 columns
        fpath, ppath = blob_files
        model_path = tmp_path / "m.luqm"
        code = run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "gmm", "--pca", "3", "--output", str(model_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error: --pca" in err and "min(rows, cols)=2" in err
        assert not model_path.exists()


def test_only_main_writes_to_stdout():
    """``main`` prints a command's results after it returns, so a command
    that fails leaves stdout empty; no other function of cli.py prints."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main)}
    writers = [node.lineno for node in ast.walk(tree) if id(node) not in in_main and (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        or isinstance(node, ast.Attribute) and node.attr == "stdout")]
    assert writers == [], f"cli.py writes to stdout outside main at lines {writers}"


class TestOptionValues:
    """Out-of-range option values exit 2 before any file is read or any
    directory made: the inputs named here do not exist.  The message names
    the flag."""

    @pytest.mark.parametrize("argv", [
        ["score", "--grid", "1"],
        ["score", "--grid", "0"],
        ["toy", "regression", "--grid", "1"],
        ["toy", "regression", "--mass", "1.5"],
        ["toy", "regression", "--eval-points", "0"],
        ["toy", "regression", "--eval-points", "2"],
        ["toy", "regression", "--gap", "0.5:2"],
        ["toy", "classification", "--per-class", "0"],
        ["toy", "regression", "--n-train", "5"],
        ["toy", "regression", "--noise", "-1"],
        ["toy", "regression", "--noise", "nan"],
        ["toy", "regression", "--seed", "-1"],
        ["toy", "classification", "--components", "0"],
        ["toy", "classification", "--cov-reg", "-1"],
        ["toy", "classification", "--cluster-sigma", "-1"],
        ["toy", "classification", "--cluster-sigma", "inf"],
        ["toy", "classification", "--seed", "-1"],
        ["pca", "--out-dim", "0"],
        ["eval", "--mode", "calibration", "--percentile-step", "0"],
        ["eval", "--mode", "calibration", "--percentile-step", "1e-300"],
        ["eval", "--mode", "rmse", "--thresholds", "a,b"],
        ["fit", "--model", "flow", "--prior", "uniform:1"],
        ["fit", "--model", "flow", "--prior", "uniform:1:-1"],
        ["fit", "--model", "flow", "--prior", "uniform:-inf:inf"],
        ["fit", "--model", "flow", "--prior", "uniform:-1e308:1e308"],
        ["fit", "--model", "flow", "--prior", "betaprime:1:-2"],
        ["fit", "--model", "flow", "--prior", "histogram:0"],
        ["fit", "--model", "flow", "--prior", "categorical"],
        ["fit", "--model", "gmm", "--prior", "uniform:-10:10"],
        ["fit", "--model", "gmm", "--prior", "categorical:3"],
        ["fit", "--model", "gmm", "--prior", "dirichlet"],
    ], ids=lambda argv: " ".join(argv))
    def test_exit_2_before_any_work(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "missing")
        files = {
            "fit": ["--features", missing, "--predictions", missing],
            "score": ["--model", missing, "--features", missing],
            "toy": ["--out", str(tmp_path / "out")],
            "pca": ["--features", missing],
            "eval": ["--input", missing],
        }[argv[0]]
        output = [] if argv[0] == "toy" else ["--output", str(tmp_path / "o")]
        assert run_cli(*argv, *files, *output) == 2
        err = capsys.readouterr().err
        assert "usage error" in err
        assert argv[-2] in err
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("form", [["--prior", ""], ["--prior="]], ids=["space", "equals"])
    @pytest.mark.parametrize("model", ["flow", "gmm"])
    def test_empty_prior_is_given_not_absent(self, tmp_path, capsys, model, form):
        missing = str(tmp_path / "missing")
        assert run_cli("fit", "--model", model, *form, "--features", missing,
                       "--predictions", missing, "--output", str(tmp_path / "o")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: --prior '': expected categorical")
        assert sorted(tmp_path.iterdir()) == []


    def test_refused_gap_names_gap(self, tmp_path, capsys):
        # no evaluation input lies in this gap: the spec refuses the value set by --gap
        out = tmp_path / "out"
        assert run_cli("toy", "regression", "--out", str(out), "--gap=0.0001:0.0002") == 2
        assert capsys.readouterr().err == (
            "usage error: eval_points must put inputs both inside the gap and in the "
            "training region, got 201 (from --gap)\n")
        assert not out.exists()

    def test_flags_refused_one_at_a_time_pass_together(self):
        """The fields are set one at a time only to name a refused flag: a gap
        that holds no input of the default grid passes beside a finer one."""
        args = cli.build_parser().parse_args(["toy", "regression", "--out", "o",
                                              "--gap=0.0001:0.0002", "--eval-points", "20001"])
        assert cli._toy_spec(args)[0] == ToyRegressionSpec(gap=(0.0001, 0.0002),
                                                           eval_points=20001)

    def test_no_flags_is_one_usage_error_line(self, capsys):
        assert run_cli("fit") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("usage error: the following arguments are required: "
                                "--features, --predictions, --model, --output\n")

    def test_help_exits_0(self, capsys):
        assert run_cli("fit", "--help") == 0
        assert capsys.readouterr().out.startswith("usage: luq fit")


class TestSizeValues:
    """Every integer flag but ``--seed`` is bounded as it is parsed, by
    ``cli.MAX_SIZE`` (``--flow-hidden`` by ``cli.MAX_WIDTH``): a value numpy
    could not even size an array for exits 2 and names its flag, and a value
    the bound lets through fails to allocate (exit 3)."""

    # the command before the flag, the flag
    FLAGS = [
        ("fit --model gmm", "--components"),
        ("fit --model gmm", "--max-iter"),
        ("fit --model gmm", "--pca"),
        ("fit --model flow", "--batch-size"),
        ("fit --model flow", "--max-epochs"),
        ("fit --model flow", "--patience"),
        ("fit --model flow", "--flow-layers"),
        ("fit --model flow", "--flow-hidden"),
        ("score", "--grid"),
        ("toy regression", "--n-train"),
        ("toy regression", "--eval-points"),
        ("toy regression --n-train 10 --eval-points 5", "--grid"),
        ("toy classification", "--per-class"),
        ("toy classification", "--components"),
        ("pca", "--out-dim"),
    ]

    @pytest.mark.parametrize("value", [10**20, 4 * 10**18])
    @pytest.mark.parametrize("command, flag", FLAGS, ids=[" ".join(c) for c in FLAGS])
    def test_too_large_for_an_array_exit_2(self, tmp_path, command, flag, value):
        missing = str(tmp_path / "missing")
        files = {
            "fit": ["--features", missing, "--predictions", missing],
            "score": ["--model", missing, "--features", missing],
            "toy": ["--out", str(tmp_path / "out")],
            "pca": ["--features", missing],
        }[command.split()[0]]
        output = [] if command.startswith("toy") else ["--output", str(tmp_path / "o")]
        proc = subprocess.run([sys.executable, "-m", "luq", *command.split(), *files, *output,
                               flag, str(value)],
                              capture_output=True, env=subprocess_env(), text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"usage error: argument {flag}: expected an integer ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["toy", "regression", "--n-train", str(cli.MAX_SIZE)],
        ["toy", "classification", "--per-class", str(cli.MAX_SIZE)],
    ], ids=["n-train", "per-class"])
    def test_toy_size_at_the_bound_exit_3(self, tmp_path, capsys, argv):
        # the training data fail to allocate at once, without touching memory
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of memory: ")
        assert captured.out == ""

    @pytest.mark.parametrize("value", [10**20, 4 * 10**18])
    def test_histogram_bins_too_large_exit_2_before_any_read(self, tmp_path, capsys, value):
        missing = str(tmp_path / "missing")
        assert run_cli("fit", "--model", "flow", "--prior", f"histogram:{value}",
                       "--features", missing, "--predictions", missing,
                       "--output", str(tmp_path / "o")) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"usage error: --prior histogram:{value}: expected an integer "
                                f"from 1 to {cli.MAX_SIZE:,}, got '{value}'\n")
        assert captured.out == "" and sorted(tmp_path.iterdir()) == []

    def test_toy_grid_at_the_bound_exit_3_before_training(self, tmp_path, capsys, monkeypatch):
        def untrained(*args, **kwargs):
            raise AssertionError("the regressor trained before the grid was made")

        monkeypatch.setattr(toy, "mlp_train", untrained)
        assert run_cli("toy", "regression", "--n-train", "10", "--eval-points", "5",
                       "--grid", str(cli.MAX_SIZE), "--out", str(tmp_path / "out")) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of memory: ")
        assert captured.out == ""

    def test_flow_width_at_the_bound_exit_3(self, tmp_path, capsys):
        # one latent: a subnet's first layer has no inputs, and its W x W
        # second layer fails to allocate at once, without touching memory
        fpath, ppath = tmp_path / "z.luq", tmp_path / "y.luq"
        write_matrix(fpath, np.random.default_rng(0).normal(size=(40, 1)))
        write_matrix(ppath, np.random.default_rng(1).normal(size=(40, 1)))
        out = tmp_path / "m.luqm"
        assert run_cli("fit", "--model", "flow", "--features", str(fpath), "--predictions",
                       str(ppath), "--output", str(out), "--flow-hidden",
                       str(cli.MAX_WIDTH)) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of memory: ")
        assert not out.exists()


class TestUnreadFlags:
    """A flag that only another ``--model``, toy kind or ``--mode`` reads
    exits 2 before any file is read or any directory made, naming the flag
    and the variant; it is not ignored."""

    # command line -> the message's text after "usage error: "
    CASES = {
        "fit --model gmm --learning-rate -1": "--model gmm does not read --learning-rate",
        "fit --model gmm --flow-hidden 8": "--model gmm does not read --flow-hidden",
        "fit --model flow --components 2 --cov-reg 0":
            "--model flow does not read --components, --cov-reg",
        "toy classification --gap 0.1:0.5": "toy classification does not read --gap",
        "toy classification --mass 0.3": "toy classification does not read --mass",
        "toy classification --grid 200": "toy classification does not read --grid",
        "toy classification --eval-points 31": "toy classification does not read --eval-points",
        "toy classification --noise 0.1 --n-train 80":
            "toy classification does not read --n-train, --noise",
        "toy regression --components 3": "toy regression does not read --components",
        "toy regression --cluster-sigma 1 --per-class 9":
            "toy regression does not read --per-class, --cluster-sigma",
        "eval --mode ood --thresholds 1,2 --percentile-step 7":
            "--mode ood does not read --percentile-step, --thresholds",
        "eval --mode ood --plot p.svg": "--mode ood does not read --plot",
        "eval --mode calibration --thresholds 1": "--mode calibration does not read --thresholds",
        "eval --mode rmse --percentile-step 7": "--mode rmse does not read --percentile-step",
        "toy classification --ensemble": "toy classification does not read --ensemble",
        "fit --model gmm --whiten": "--model gmm without --pca does not read --whiten",
        "fit --model flow --whiten": "--model flow without --pca does not read --whiten",
    }

    @pytest.mark.parametrize("argv", list(CASES))
    def test_exit_2_before_any_work(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "missing")
        command = argv.split()[0]
        files = {
            "fit": ["--features", missing, "--predictions", missing],
            "toy": ["--out", str(tmp_path / "out")],
            "eval": ["--input", missing],
        }[command]
        output = [] if command == "toy" else ["--output", str(tmp_path / "o")]
        assert run_cli(*argv.split(), *files, *output) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: {self.CASES[argv]}" in captured.err
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, line", [("classification", "--gap=-0.5:0.5"),
                                            ("regression", "--components=3"),
                                            ("classification", "--ensemble")])
    def test_flag_from_a_file_is_a_flag(self, tmp_path, capsys, kind, line):
        args = tmp_path / "run.args"
        args.write_text(line + "\n")
        out = tmp_path / "out"
        assert run_cli("toy", kind, "--out", str(out), f"@{args}") == 2
        flag = line.split("=")[0]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: toy {kind} does not read {flag}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--grid", "50"], ["--grid-range", "0:1"]],
                             ids=["grid", "grid-range"])
    def test_score_refuses_grid_flags_for_a_gmm_model(self, tmp_path, capsys, flag):
        """A GMM model is scored without a grid: the flag is refused once the
        model is read, before the features are, so a missing features file
        is never reported."""
        model = tmp_path / "m.luqm"
        write_model(model, two_class_reference_model())
        out = tmp_path / "s.csv"
        assert run_cli("score", "--model", str(model), "--features", str(tmp_path / "missing"),
                       "--output", str(out), *flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: GMM model {model} does not read {flag[0]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fit", "--model", "gmm", "--pca", "2", "--whiten"],
        ["pca", "--out-dim", "2", "--whiten"],
        ["toy", "regression", "--ensemble", "--plot", "--n-train", "60", "--eval-points", "21",
         "--grid", "101"],
    ], ids=["fit-pca-whiten", "pca-whiten", "toy-regression-ensemble-plot"])
    def test_switches_their_variant_reads_run(self, tmp_path, blob_files, argv):
        """``--whiten`` with ``--pca`` and ``--ensemble`` with the regression
        toy are read: the features come out with unit variance, and the toy
        writes its ensemble and plot files."""
        out = tmp_path / "out"
        if argv[0] == "toy":
            assert run_cli(*argv, "--out", str(out)) == 0
            assert (out / "ensemble.csv").exists() and (out / "prediction_band.svg").exists()
            return
        predictions = ["--predictions", str(blob_files[1])] if argv[0] == "fit" else []
        assert run_cli(*argv, "--features", str(blob_files[0]), *predictions,
                       "--output", str(out)) == 0
        x = read_features(blob_files[0])
        z = pca_transform(read_model(out).pca, x) if argv[0] == "fit" else read_features(out)
        np.testing.assert_allclose(np.var(z, axis=0, ddof=1), 1.0)


class TestNegativeOptionValues:
    """argparse takes ``--gap -0.5:0.5`` for a flag with no value; the
    ``--flag=VALUE`` form carries a value that begins with a minus sign, on
    the command line and in an argument file alike."""

    @pytest.mark.parametrize("argv, dest, value", [
        (["toy", "regression", "--out", "o", "--gap=-0.5:0.5"], "gap", (-0.5, 0.5)),
        (["score", "--model", "m", "--features", "f", "--output", "o",
          "--grid-range=-2:9"], "grid_range", (-2.0, 9.0)),
        (["eval", "--mode", "rmse", "--input", "i", "--output", "o",
          "--thresholds=-70,-60"], "thresholds", (-70.0, -60.0)),
    ], ids=["gap", "grid-range", "thresholds"])
    def test_equals_form_parses(self, argv, dest, value):
        """The parser's type turns the text into the value the command reads."""
        np.testing.assert_array_equal(getattr(cli.build_parser().parse_args(argv), dest), value)

    def test_argument_file_value_with_leading_minus(self, tmp_path):
        args = tmp_path / "run.args"
        args.write_text("--gap=-0.5:0.5\n")
        argv = cli._expand_files(["toy", "regression", "--out", "o", f"@{args}"])
        assert cli.build_parser().parse_args(argv).gap == (-0.5, 0.5)


class TestArgumentFiles:
    """An argument ``@FILE`` stands for the arguments FILE holds: each line
    split as a shell splits it, ``#`` starting a comment.  The arguments
    keep their order, and those read from a file are not expanded again."""

    def test_comments_blank_lines_and_quoted_spaces(self, tmp_path, blob_files, capsys):
        features = tmp_path / "blob features.luq"
        features.write_bytes(blob_files[0].read_bytes())
        model = tmp_path / "m.luqm"
        args = tmp_path / "run.args"
        args.write_text(f"# a two-class fit\n\n--features '{features}'  # quoted\n"
                        f"--predictions {blob_files[1]} --model gmm\n"
                        f"--components=1\n   \n--output \"{model}\"\n")
        assert run_cli("fit", f"@{args}") == 0
        assert capsys.readouterr().out.endswith(f"model_file={model}\n")
        assert len(read_model(model).class_gmms.per_class[0].components) == 1

    def test_a_flag_after_the_file_wins_and_one_before_it_loses(self, tmp_path):
        args = tmp_path / "run.args"
        args.write_text("--seed 5\n--n-train 60\n")
        argv = cli._expand_files(["toy", "regression", "--seed", "1", f"@{args}",
                                  "--n-train", "70", "--out", "o"])
        assert argv == ["toy", "regression", "--seed", "1", "--seed", "5", "--n-train", "60",
                        "--n-train", "70", "--out", "o"]
        parsed = cli.build_parser().parse_args(argv)
        assert (parsed.seed, parsed.n_train) == (5, 70)

    def test_a_file_that_names_itself_ends_without_a_traceback(self, tmp_path):
        args = tmp_path / "self.args"
        args.write_text(f"--out {tmp_path / 'out'}\n@{args}\n")
        proc = subprocess.run([sys.executable, "-m", "luq", "toy", "regression", f"@{args}"],
                              capture_output=True, env=subprocess_env(), text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"unrecognized arguments: @{args}" in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    def test_a_hash_inside_a_word_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                    blob_files):
        monkeypatch.chdir(tmp_path)
        args = tmp_path / "pca.args"
        args.write_text("--out-dim 1\n--output=run#2.luq\n")
        assert run_cli("pca", "--features", str(blob_files[0]), f"@{args}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: {args}: line 2: a # inside a word cuts "
                                "'--output=run' short; quote the # or put a space before it\n")
        assert not (tmp_path / "run").exists() and not (tmp_path / "run#2.luq").exists()

    def test_a_quoted_hash_is_part_of_the_word(self, tmp_path, monkeypatch, capsys, blob_files):
        monkeypatch.chdir(tmp_path)
        args = tmp_path / "pca.args"
        args.write_text("--out-dim 1 --output='run#2.luq'\n")
        assert run_cli("pca", "--features", str(blob_files[0]), f"@{args}") == 0
        assert capsys.readouterr().out.endswith("output_file=run#2.luq\n")
        assert read_features(tmp_path / "run#2.luq").shape[1] == 1

    def test_a_hash_after_whitespace_starts_a_comment(self, tmp_path):
        args = tmp_path / "score.args"
        args.write_text("--grid 500  # note\n")
        assert cli._expand_files([f"@{args}", "--seed", "1"]) == ["--grid", "500", "--seed", "1"]

    def test_a_value_joined_to_its_flag_may_begin_with_at(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_model("m.luqm", two_class_reference_model())
        write_matrix("z.luq", np.zeros((3, 1)))
        assert run_cli("score", "--model", "m.luqm", "--features", "z.luq",
                       "--output=@scores.csv") == 0
        assert capsys.readouterr().out.endswith("scores_file=@scores.csv\n")
        assert len(read_csv_columns(tmp_path / "@scores.csv", ["index"])["index"]) == 3


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# every option string of each subcommand: a flag added, dropped or renamed
# must show up here
OPTION_STRINGS = {
    "fit": ["-h", "--help", "--features", "--predictions", "--model", "--output", "--prior",
            "--components", "--cov-reg", "--covariance", "--max-iter", "--tol", "--pca",
            "--whiten", "--learning-rate", "--weight-decay", "--batch-size", "--max-epochs",
            "--patience", "--val-fraction", "--flow-layers", "--flow-hidden", "--seed"],
    "score": ["-h", "--help", "--model", "--features", "--output", "--grid", "--grid-range"],
    "eval": ["-h", "--help", "--mode", "--input", "--output", "--plot", "--percentile-step",
             "--thresholds"],
    "toy": ["-h", "--help", "--out", "--seed", "--mass", "--grid", "--n-train", "--gap",
            "--noise", "--eval-points", "--ensemble", "--components", "--cov-reg",
            "--per-class", "--cluster-sigma", "--plot"],
    "pca": ["-h", "--help", "--features", "--out-dim", "--output", "--whiten"],
}


def test_option_strings_are_unchanged():
    assert {name: [opt for action in p._actions for opt in action.option_strings]
            for name, p in subparsers().items()} == OPTION_STRINGS


def test_readme_command_examples_parse():
    """Each ``luq`` line of the README's "Command line" examples, its
    continued lines joined, parses as shown; no command runs.  A renamed
    flag or a tightened parser type fails here while the README shows the
    old form."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```bash\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("luq ")]
    assert [argv[0] for argv in commands] == ["fit", "fit", "score", "eval", "eval", "eval",
                                              "toy", "toy", "pca"]
    for argv in commands:
        assert cli.build_parser().parse_args(argv).command == argv[0]


class TestOptionObjects:
    """A ``fit``/``toy`` flag that sets a field of a library option object
    is named by the field, and no optional flag has a parser default, so
    the library states each default once and a flag's dest is parsed only
    when the flag is given."""

    # the option objects each command builds, and the flags it reads itself
    BUILT = {"fit": (EmOptions, FlowTrainConfig, FlowArchitecture),
             "toy": (ToyRegressionSpec, ToyClassificationSpec, EmOptions)}
    OWN = {"fit": {"prior", "pca", "whiten"}, "toy": {"ensemble", "plot"}}

    @pytest.mark.parametrize("command, count", [("fit", 14), ("toy", 11)])
    def test_flags_without_a_default_are_fields(self, command, count):
        names = {f.name for cls in self.BUILT[command] for f in fields(cls)}
        actions = [a for a in subparsers()[command]._actions
                   if not (a.required or isinstance(a, argparse._HelpAction))]
        suppressed = [a.dest for a in actions if a.default is argparse.SUPPRESS]
        fielded = [dest for dest in suppressed if dest in names]
        assert [a.dest for a in actions if a.dest in names] == fielded
        assert set(suppressed) - set(fielded) == self.OWN[command]
        assert len(fielded) == count

    def test_the_defaults_the_parser_states(self):
        """None: every optional flag is unset until it is given."""
        assert {name: {a.dest: a.default for a in p._actions
                       if not a.required and a.default is not argparse.SUPPRESS}
                for name, p in subparsers().items()} == {name: {} for name in OPTION_STRINGS}

    @pytest.mark.parametrize("command, flag, function, parameter", [
        ("toy", "mass", run_regression_study, "band_mass"),
        ("toy", "grid", run_regression_study, "grid_points"),
        ("toy", "eval_points", run_regression_study, "eval_points"),
        ("eval", "percentile_step", calibration_curve, "percentile_step"),
    ])
    def test_stated_defaults_are_the_library_defaults(self, tmp_path, command, flag,
                                                      function, parameter):
        """A bare command leaves ``parameter`` unset, so ``function`` runs on
        the default the library states for it."""
        if command == "toy":
            args = cli.build_parser().parse_args(["toy", "regression", "--out", "o"])
            assert parameter not in args
            assert inspect.signature(function).parameters["spec"].default is None
            assert (getattr(cli._toy_spec(args)[0], parameter)
                    == getattr(ToyRegressionSpec(), parameter))
            return
        csv, out = tmp_path / "u.csv", tmp_path / "cal.csv"
        csv.write_text("uncertainty,correct\n0.1,1\n0.2,0\n0.3,1\n")
        with mock.patch("luq.metrics.calibration_curve", wraps=calibration_curve) as curve:
            assert run_cli("eval", "--mode", "calibration", "--input", str(csv),
                           "--output", str(out)) == 0
        assert parameter not in curve.call_args.kwargs
        step = inspect.signature(function).parameters[parameter].default
        np.testing.assert_allclose(read_csv_columns(out, ["percentile"])["percentile"],
                                   np.arange(step, 100.0 + 1e-9, step))

    @pytest.mark.parametrize("model, options", [
        ("gmm", EmOptions()),
        ("flow", (FlowTrainConfig(), FlowArchitecture())),
    ])
    def test_bare_fit_takes_the_library_defaults(self, model, options):
        args = cli.build_parser().parse_args(["fit", "--features", "f", "--predictions", "p",
                                              "--model", model, "--output", "o"])
        assert cli._fit_options(args) == options

    def test_fit_flags_set_their_fields(self):
        args = cli.build_parser().parse_args([
            "fit", "--features", "f", "--predictions", "p", "--model", "flow", "--output", "o",
            "--flow-hidden", "16", "--flow-layers", "2", "--seed", "4", "--val-fraction", "0.3"])
        assert cli._fit_options(args) == (FlowTrainConfig(seed=4, val_fraction=0.3),
                                          FlowArchitecture(n_layers=2, hidden=(16, 16)))

    def test_flow_hidden_that_is_no_integer_exit_2(self, capsys):
        assert run_cli("fit", "--features", "f", "--predictions", "p", "--model", "flow",
                       "--output", "o", "--flow-hidden", "1.5") == 2
        assert ("usage error: argument --flow-hidden: expected an integer up to 31,622,776, "
                "got '1.5'\n") == capsys.readouterr().err

    def test_toy_classification_starts_from_its_em_options(self):
        from luq.toy import CLASSIFICATION_EM

        args = cli.build_parser().parse_args(["toy", "classification", "--out", "o",
                                              "--seed", "3"])
        assert cli._toy_spec(args) == (ToyClassificationSpec(seed=3),
                                       replace(CLASSIFICATION_EM, seed=3))

    def test_toy_regression_defaults_and_gap(self):
        parser = cli.build_parser()
        args = parser.parse_args(["toy", "regression", "--out", "o"])
        assert cli._toy_spec(args) == (ToyRegressionSpec(), None)
        args = parser.parse_args(["toy", "regression", "--out", "o", "--gap=-0.5:0.1"])
        assert cli._toy_spec(args)[0] == ToyRegressionSpec(gap=(-0.5, 0.1))


class TestNonFiniteFeatures:
    @staticmethod
    def write_features(path, data, kind):
        if kind == "csv":
            lines = [",".join(f"f{j}" for j in range(data.shape[1]))]
            lines += [",".join(repr(float(v)) for v in row) for row in data]
            path.write_text("\n".join(lines) + "\n")
        else:
            write_matrix(path, data)

    @pytest.mark.parametrize("kind", ["luq1", "csv"])
    def test_fit_exit_3_names_file_and_row(self, tmp_path, blob_files, capsys, kind):
        _, ppath = blob_files
        features = np.random.default_rng(0).normal(size=(120, 2))
        features[6, 1] = np.nan
        fpath = tmp_path / f"features.{kind}"
        self.write_features(fpath, features, kind)
        model_path = tmp_path / "m.luqm"
        code = run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "gmm", "--output", str(model_path))
        assert code == 3
        err = capsys.readouterr().err
        assert str(fpath) in err and "data row 7" in err
        assert not model_path.exists()

    @pytest.mark.parametrize("kind", ["luq1", "csv"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_score_exit_3_names_file_and_row(self, tmp_path, capsys, kind, bad):
        model_path = tmp_path / "ref.luqm"
        write_model(model_path, two_class_reference_model())
        fpath = tmp_path / f"z.{kind}"
        self.write_features(fpath, np.array([[0.0], [bad], [1.0]]), kind)
        out = tmp_path / "s.csv"
        code = run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out))
        assert code == 3
        err = capsys.readouterr().err
        assert str(fpath) in err and "data row 2" in err
        assert not out.exists()


class TestHeaderOnlyCsv:
    """A CSV with a header and no data rows is a data error naming the file."""

    @pytest.mark.parametrize("command", ["fit", "score", "pca"])
    def test_exit_3_names_file(self, tmp_path, blob_files, capsys, command):
        fpath = tmp_path / "empty.csv"
        fpath.write_text("f0,f1\n")
        model_path = tmp_path / "ref.luqm"
        write_model(model_path, two_class_reference_model())
        out = tmp_path / "out"
        argv = {
            "fit": ["--predictions", str(blob_files[1]), "--model", "gmm"],
            "score": ["--model", str(model_path)],
            "pca": ["--out-dim", "1"],
        }[command]
        assert run_cli(command, "--features", str(fpath), *argv, "--output", str(out)) == 3
        err = capsys.readouterr().err
        assert str(fpath) in err and "no data rows" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode, header", [("ood", "score,label"),
                                              ("calibration", "uncertainty,correct"),
                                              ("rmse", "error,uncertainty")])
    def test_eval_exit_3_names_file(self, tmp_path, capsys, mode, header):
        csv = tmp_path / "empty.csv"
        csv.write_text(header + "\n")
        out = tmp_path / "o.csv"
        assert run_cli("eval", "--mode", mode, "--input", str(csv), "--output", str(out)) == 3
        assert f"{csv}: no data rows" in capsys.readouterr().err
        assert not out.exists()


class TestEmptyMatrix:
    """A LUQ1 file with no rows or no columns is a data error naming the
    file, as a header-only CSV is."""

    @pytest.mark.parametrize("shape", [(40, 0), (0, 3)], ids=["40x0", "0x3"])
    @pytest.mark.parametrize("command", ["fit", "score", "pca"])
    def test_exit_3_names_file(self, tmp_path, blob_files, capsys, command, shape):
        fpath = tmp_path / "empty.luq"
        write_matrix(fpath, np.zeros(shape))
        model_path = tmp_path / "ref.luqm"
        write_model(model_path, two_class_reference_model())
        out = tmp_path / "out"
        argv = {
            "fit": ["--predictions", str(blob_files[1]), "--model", "gmm"],
            "score": ["--model", str(model_path)],
            "pca": ["--out-dim", "1"],
        }[command]
        assert run_cli(command, "--features", str(fpath), *argv, "--output", str(out)) == 3
        err = capsys.readouterr().err
        assert f"{fpath}: a matrix of {shape[0]} rows and {shape[1]} columns holds no data" in err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["gmm", "flow"])
    def test_empty_predictions_exit_3(self, tmp_path, blob_files, capsys, model):
        ppath = tmp_path / "empty.luq"
        write_matrix(ppath, np.zeros((120, 0)))
        out = tmp_path / "out"
        assert run_cli("fit", "--features", str(blob_files[0]), "--predictions", str(ppath),
                       "--model", model, "--output", str(out)) == 3
        assert f"error: {ppath}: a matrix of 120 rows" in capsys.readouterr().err
        assert not out.exists()


class TestMixedCsvFirstLine:
    """A first line with some numeric tokens is data, not a header: one bad
    token in it is a data error naming row 1, not a silently dropped row."""

    @pytest.mark.parametrize("command", ["fit", "score", "pca"])
    def test_exit_3_names_row_1(self, tmp_path, blob_files, capsys, command):
        fpath = tmp_path / "typo.csv"
        fpath.write_text("1.0,2.O\n" + "".join(f"{i}.5,{i}.25\n" for i in range(119)))
        model_path = tmp_path / "ref.luqm"
        write_model(model_path, two_class_reference_model())
        out = tmp_path / "out"
        argv = {
            "fit": ["--predictions", str(blob_files[1]), "--model", "gmm"],
            "score": ["--model", str(model_path)],
            "pca": ["--out-dim", "1"],
        }[command]
        assert run_cli(command, "--features", str(fpath), *argv, "--output", str(out)) == 3
        err = capsys.readouterr().err
        assert str(fpath) in err and "row 1:" in err
        assert not out.exists()


class TestScore:
    @pytest.mark.parametrize("model", ["gmm", "flow"])
    def test_zero_density_rows_exit_3(self, tmp_path, capsys, model):
        from luq.flow import build_flow

        bundle = two_class_reference_model() if model == "gmm" else ModelBundle(
            prior=UniformPrior(-10.0, 10.0), flow=build_flow(1, 1, seed=0))
        model_path = tmp_path / "m.luqm"
        write_model(model_path, bundle)
        fpath = tmp_path / "z.luq"
        write_matrix(fpath, np.array([[0.0], [1e200], [1.0], [-1e200]]))
        out = tmp_path / "s.csv"
        grid = ["--grid", "50"] if model == "flow" else []
        code = run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out), *grid)
        assert code == 3
        err = capsys.readouterr().err
        assert str(fpath) in err and "data row 2" in err and "(2 such rows)" in err
        assert not out.exists()

    def test_reference_values_and_determinism(self, tmp_path):
        model_path = tmp_path / "ref.luqm"
        write_model(model_path, two_class_reference_model())
        fpath = tmp_path / "z.luq"
        write_matrix(fpath, np.zeros((1, 1)))
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        assert run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out1)) == 0
        assert run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        cols = read_csv_columns(out1, ["epistemic_nats", "aleatoric_nats"])
        assert cols["epistemic_nats"][0] == pytest.approx(1.379885, abs=1e-6)
        assert cols["aleatoric_nats"][0] == pytest.approx(0.582203, abs=1e-6)

    def test_dim_mismatch_names_both(self, tmp_path, capsys):
        from luq.flow import build_flow

        fpath = tmp_path / "bad.luq"
        write_matrix(fpath, np.zeros((2, 3)))
        out = tmp_path / "s.csv"
        flow_model = ModelBundle(prior=UniformPrior(-10.0, 10.0), flow=build_flow(2, 1, seed=0))
        for bundle in (two_class_reference_model(), flow_model):
            model_path = tmp_path / "m.luqm"
            write_model(model_path, bundle)
            code = run_cli("score", "--model", str(model_path), "--features", str(fpath),
                           "--output", str(out))
            assert code == 3
            assert capsys.readouterr().err == (f"error: {fpath}: feature dim 3 does not match "
                                               f"model dim {bundle.feature_dim}\n")
            assert not out.exists()

    def test_grid_too_large_to_allocate_exit_3(self, tmp_path, capsys):
        # the grid's points fail to allocate at once, without touching memory
        model_path, fpath = self.flat_posterior_model(tmp_path)
        out = tmp_path / "s.csv"
        assert run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out), "--grid", "1000000000000000") == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of memory: ")
        assert captured.out == ""
        assert not out.exists()

    def test_unbounded_prior_needs_grid_range(self, tmp_path):
        from luq.flow import build_flow

        model_path = tmp_path / "bp.luqm"
        write_model(model_path, ModelBundle(prior=BetaPrimePrior(31.76, 3.07),
                                            flow=build_flow(1, 1, seed=0)))
        fpath = tmp_path / "z.luq"
        write_matrix(fpath, np.zeros((2, 1)))
        out = tmp_path / "s.csv"
        assert run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out)) == 2
        # the posterior is the prior: 1:400 holds it (4e-8 of it lies below 1,
        # 5e-5 above 400), where 1:80 cuts 0.7 % of its heavy tail off
        assert run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out), "--grid-range", "1:80",
                       "--grid", "155") == 2
        assert run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out), "--grid-range", "1:400",
                       "--grid", "155") == 0
        cols = read_csv_columns(out, ["epistemic_nats"])
        assert len(cols["epistemic_nats"]) == 2

    def test_grid_without_prior_mass_exit_2(self, tmp_path, capsys):
        from luq.flow import build_flow

        model_path = tmp_path / "u.luqm"
        write_model(model_path, ModelBundle(prior=UniformPrior(-10.0, 10.0),
                                            flow=build_flow(1, 1, seed=0)))
        fpath = tmp_path / "z.luq"
        write_matrix(fpath, np.zeros((2, 1)))
        out = tmp_path / "s.csv"
        assert run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out), "--grid-range", "20:30",
                       "--grid", "50") == 2
        err = capsys.readouterr().err
        assert "usage error: --grid-range" in err and "no mass" in err
        assert not out.exists()
        assert run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out), "--grid-range=-inf:30") == 2
        assert ("usage error: argument --grid-range: expected LO:HI with finite LO < HI"
                in capsys.readouterr().err)
        assert not out.exists()
        assert run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out), "--grid-range=-1e308:1e308") == 2
        assert ("argument --grid-range: expected LO:HI with finite LO < HI and a finite HI - LO, "
                "got '-1e308:1e308'") in capsys.readouterr().err
        assert not out.exists()
        # a grid that overlaps the support scores (one whose end lies inside
        # the support cuts this flat posterior off: see the next test)
        assert run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out), "--grid-range=-10:30",
                       "--grid", "50") == 0

    @staticmethod
    def flat_posterior_model(tmp_path):
        # the untrained flow ignores its condition, so each row's posterior
        # is the uniform prior on -10:10, cut by any grid end inside it
        from luq.flow import build_flow

        model_path = tmp_path / "u.luqm"
        write_model(model_path, ModelBundle(prior=UniformPrior(-10.0, 10.0),
                                            flow=build_flow(1, 1, seed=0)))
        fpath = tmp_path / "z.luq"
        write_matrix(fpath, np.zeros((2, 1)))
        return model_path, fpath

    @pytest.mark.parametrize("grid_range, ends", [
        ("5:30", "lower end 5 (2 rows)"),
        ("-20:5", "upper end 5 (2 rows)"),
        ("-3:3", "lower end -3 (2 rows) and its upper end 3 (2 rows)"),
    ])
    def test_grid_that_cuts_the_posterior_exit_2(self, tmp_path, capsys, grid_range, ends):
        model_path, fpath = self.flat_posterior_model(tmp_path)
        out = tmp_path / "s.csv"
        assert run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out), f"--grid-range={grid_range}", "--grid", "50") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"usage error: --grid-range: the grid cuts the posterior off at its {ends}: ")
        assert captured.err.endswith(": there, inside the prior's support, the posterior "
                                     "density is more than 0.001 of its peak; widen the range\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("grid_range, grid, code", [
        ("0.001:50", "20", 2),
        ("0.0001:50", "20", 2),
        ("0.001:50", "10000", 2),  # a finer grid alone does not help
        ("1e-9:50", "10000", 0),
        ("0:50", "20", 0),
    ])
    def test_grid_end_near_the_support_edge(self, tmp_path, capsys, grid_range, grid, code):
        # the posterior is the beta-prime prior, whose density rises as
        # sqrt(y) from 0 to its peak at 0.125: at 0.001 it is 0.15 of the
        # peak (and the largest value of a 20-point grid), though the prior
        # holds only 1.4e-4 below 0.001; at 1e-9 it is 1.5e-4 of the peak,
        # and a grid from 0 ends on the support's edge
        from luq.flow import build_flow

        model_path = tmp_path / "b.luqm"
        write_model(model_path, ModelBundle(prior=BetaPrimePrior(1.5, 3.0),
                                            flow=build_flow(1, 1, seed=0)))
        fpath = tmp_path / "z.luq"
        write_matrix(fpath, np.zeros((2, 1)))
        out = tmp_path / "s.csv"
        assert run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out), "--grid-range", grid_range, "--grid", grid) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("usage error: --grid-range: the grid cuts the posterior off "
                                  f"at its lower end {grid_range.split(':')[0]} (2 rows): ")
            assert not out.exists()
        else:
            assert out.exists()

    @pytest.mark.parametrize("grid_range", ["-10:10", "-20:20"])
    def test_grid_that_ends_at_the_support_edge_scores(self, tmp_path, capsys, grid_range):
        model_path, fpath = self.flat_posterior_model(tmp_path)
        out = tmp_path / "s.csv"
        assert run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(out), f"--grid-range={grid_range}", "--grid", "50") == 0
        assert capsys.readouterr().out == f"rows_scored=2\nscores_file={out}\n"

    def test_stored_pca_applied(self, tmp_path, blob_files, capsys):
        fpath, ppath = blob_files
        model_path = tmp_path / "m.luqm"
        assert run_cli("fit", "--features", str(fpath), "--predictions", str(ppath),
                       "--model", "gmm", "--pca", "1",
                       "--output", str(model_path)) == 0
        # raw-dim features accepted because the stored PCA is applied first
        assert run_cli("score", "--model", str(model_path), "--features", str(fpath),
                       "--output", str(tmp_path / "s.csv")) == 0
        cols = read_csv_columns(tmp_path / "s.csv", ["epistemic_nats"])
        assert len(cols["epistemic_nats"]) == 120
        # features at the projected width are not taken as already projected
        projected = tmp_path / "projected.luq"
        write_matrix(projected, np.zeros((3, 1)))
        out = tmp_path / "p.csv"
        assert run_cli("score", "--model", str(model_path), "--features", str(projected),
                       "--output", str(out)) == 3
        assert capsys.readouterr().err == (f"error: {projected}: feature dim 1 does not match "
                                           "model dim 2\n")
        assert not out.exists()


class TestEval:
    def test_ood_perfect_separation(self, tmp_path, capsys):
        csv = tmp_path / "scores.csv"
        csv.write_text("score,label\n0.9,1\n0.8,1\n0.1,0\n0.2,0\n")
        out = tmp_path / "metrics.csv"
        assert run_cli("eval", "--mode", "ood", "--input", str(csv),
                       "--output", str(out)) == 0
        cols = read_csv_columns(out, ["auroc", "ap", "fpr95"])
        assert cols["auroc"][0] == 1.0
        assert cols["fpr95"][0] == 0.0

    def test_ood_derived_case(self, tmp_path):
        csv = tmp_path / "scores.csv"
        csv.write_text("score,label\n0.8,1\n0.4,1\n0.6,0\n0.2,0\n")
        out = tmp_path / "m.csv"
        assert run_cli("eval", "--mode", "ood", "--input", str(csv),
                       "--output", str(out)) == 0
        assert read_csv_columns(out, ["auroc"])["auroc"][0] == pytest.approx(0.75)

    def test_calibration_all_correct(self, tmp_path):
        csv = tmp_path / "u.csv"
        csv.write_text("uncertainty,correct\n0.1,1\n0.2,1\n0.3,1\n")
        out = tmp_path / "cal.csv"
        svg = tmp_path / "cal.svg"
        assert run_cli("eval", "--mode", "calibration", "--input", str(csv),
                       "--output", str(out), "--plot", str(svg)) == 0
        cols = read_csv_columns(out, ["percentile", "accuracy"])
        np.testing.assert_array_equal(cols["accuracy"], 1.0)
        assert svg.read_text().startswith("<svg")

    def test_rmse_mode(self, tmp_path):
        csv = tmp_path / "e.csv"
        csv.write_text("error,uncertainty\n0.0,1.0\n2.0,10.0\n")
        out = tmp_path / "r.csv"
        assert run_cli("eval", "--mode", "rmse", "--input", str(csv),
                       "--output", str(out), "--thresholds", "5,100") == 0
        cols = read_csv_columns(out, ["threshold", "rmse"])
        assert cols["rmse"][0] == 0.0
        assert cols["rmse"][1] == pytest.approx(math.sqrt(2.0))

    def test_missing_columns_exit_3(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("a,b\n1,2\n")
        assert run_cli("eval", "--mode", "ood", "--input", str(csv),
                       "--output", str(tmp_path / "o.csv")) == 3

    @pytest.mark.parametrize("mode, text, column, row, value", [
        ("ood", "score,label\n" + "0.9,1\n0.2,0\n" * 6 + "nan,1\n" + "0.8,1\n0.1,0\n" * 3
         + "0.7,0\n", "score", 14, "nan"),
        ("ood", "score,label\n0.9,1\n0.3,2\n0.1,0\n", "label", 3, "2"),
        ("ood", "score,label\n0.9,1\n0.3,0.5\n0.1,0\n", "label", 3, "0.5"),
        ("ood", "score,label\n0.9,1\n0.3,nan\n0.1,0\n", "label", 3, "nan"),
        ("ood", "score,label\n0.9,1\ninf,0\n", "score", 3, "inf"),
        ("calibration", "uncertainty,correct\n0.1,1\nnan,0\n0.3,1\n", "uncertainty", 3,
         "nan"),
        ("calibration", "uncertainty,correct\n0.1,1\n0.2,-1\n", "correct", 3, "-1"),
        ("rmse", "error,uncertainty\n0.0,1.0\nnan,2.0\n", "error", 3, "nan"),
        ("rmse", "error,uncertainty\n0.0,1.0\n1.0,-inf\n", "uncertainty", 3, "-inf"),
    ])
    def test_bad_cell_exit_3(self, tmp_path, capsys, mode, text, column, row, value):
        csv = tmp_path / "in.csv"
        csv.write_text(text)
        out = tmp_path / "o.csv"
        assert run_cli("eval", "--mode", mode, "--input", str(csv), "--output", str(out)) == 3
        assert f"{csv}: column '{column}', row {row}: {value} is not" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("thresholds", ["nan,1", "1,inf", "0.5,-inf"])
    def test_non_finite_threshold_exit_2(self, tmp_path, capsys, thresholds):
        csv = tmp_path / "e.csv"
        csv.write_text("error,uncertainty\n0.0,1.0\n2.0,10.0\n")
        assert run_cli("eval", "--mode", "rmse", "--input", str(csv), "--output",
                       str(tmp_path / "r.csv"), "--thresholds", thresholds) == 2
        assert (f"usage error: argument --thresholds: expected finite numbers, got '{thresholds}'"
                in capsys.readouterr().err)

    def test_plot_with_ood_exit_2(self, tmp_path):
        csv = tmp_path / "scores.csv"
        csv.write_text("score,label\n0.9,1\n0.1,0\n")
        assert run_cli("eval", "--mode", "ood", "--input", str(csv),
                       "--output", str(tmp_path / "o.csv"),
                       "--plot", str(tmp_path / "p.svg")) == 2


class TestToy:
    def test_small_regression_run_artifacts(self, tmp_path):
        out = tmp_path / "runA"
        code = run_cli("toy", "regression", "--out", str(out), "--seed", "1",
                       "--n-train", "80", "--eval-points", "31", "--grid", "200",
                       "--plot")
        assert code == 0
        for name in ["train_data.csv", "mlp_loss.csv", "train_latents.luq",
                     "model.luqm", "scores.csv", "curve.csv",
                     "prediction_band.svg", "epistemic.svg"]:
            assert (out / name).exists(), name
        curve = read_csv_columns(out / "curve.csv",
                                 ["x", "prediction", "band_lower", "band_upper"])
        assert np.all(curve["band_lower"] <= curve["prediction"] + 1e-12)
        assert np.all(curve["prediction"] <= curve["band_upper"] + 1e-12)
        bundle = read_model(out / "model.luqm")
        assert bundle.flow is not None

    def test_eval_points_too_large_to_allocate_exit_3(self, tmp_path, capsys):
        # the evaluation inputs fail to allocate at once, before any training
        assert run_cli("toy", "regression", "--out", str(tmp_path / "big"),
                       "--eval-points", "1000000000000000") == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of memory: ")
        assert captured.out == ""

    def test_small_classification_run_artifacts(self, tmp_path):
        out = tmp_path / "runB"
        code = run_cli("toy", "classification", "--out", str(out), "--seed", "0",
                       "--per-class", "40", "--components", "2")
        assert code == 0
        metrics = read_csv_columns(out / "ood_metrics.csv", ["auroc", "ap", "fpr95"])
        assert metrics["auroc"][0] > 0.9
        cal = read_csv_columns(out / "calibration.csv", ["percentile", "accuracy"])
        assert cal["percentile"][-1] == 100.0

    def test_toy_outputs_flow_through_fit_and_score(self, tmp_path):
        # the emitted latents/predictions must be valid inputs to the
        # generic fit/score pipeline
        out = tmp_path / "runD"
        assert run_cli("toy", "classification", "--out", str(out), "--seed", "0",
                       "--per-class", "30", "--components", "1") == 0
        refit = tmp_path / "refit.luqm"
        assert run_cli("fit", "--features", str(out / "train_latents.luq"),
                       "--predictions", str(out / "train_predicted_labels.luq"),
                       "--model", "gmm", "--components", "1",
                       "--output", str(refit)) == 0
        scores = tmp_path / "refit_scores.csv"
        assert run_cli("score", "--model", str(refit),
                       "--features", str(out / "train_latents.luq"),
                       "--output", str(scores)) == 0
        cols = read_csv_columns(scores, ["epistemic_nats"])
        assert len(cols["epistemic_nats"]) == 120

    def test_argument_file_merges_and_cli_overrides(self, tmp_path):
        args = tmp_path / "toy.args"
        args.write_text("--n-train 80\n--eval-points 11\n--grid 150\n--seed 5\n")
        out = tmp_path / "runC"
        code = run_cli("toy", "regression", "--out", str(out), f"@{args}", "--eval-points", "13")
        assert code == 0
        cols = read_csv_columns(out / "curve.csv", ["x"])
        assert len(cols["x"]) == 13  # the flag after the file wins
        data = read_csv_columns(out / "train_data.csv", ["x", "y"])
        assert len(data["x"]) == 80  # from the file

    def test_argument_file_unread_flag_exit_2(self, tmp_path, capsys):
        args = tmp_path / "bad.args"
        args.write_text("--per-class 30\n")
        out = tmp_path / "x"
        assert run_cli("toy", "regression", "--out", str(out), f"@{args}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: toy regression does not read --per-class\n"
        assert not out.exists()

    def test_prediction_outside_the_prior_range_exit_3(self, tmp_path, capsys):
        # at --noise 2 the regressor predicts below -10, where the toy's
        # uniform prior, and so every confidence band, is 0
        out = tmp_path / "noisy"
        assert run_cli("toy", "regression", "--out", str(out), "--noise", "2",
                       "--n-train", "60", "--eval-points", "21", "--grid", "100") == 3
        err = capsys.readouterr().err
        assert re.search(r"error: prediction -?[0-9.]+ at x=\S+ lies outside the output "
                         "range -10:10", err), err
        assert list(out.iterdir()) == []

    def test_unwritable_out_dir_exit_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = run_cli("toy", "regression", "--out", str(blocker / "sub"),
                       "--seed", "0", "--n-train", "40")
        assert code == 3


class TestPca:
    def test_transform_written(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        fpath = tmp_path / "f.luq"
        write_matrix(fpath, rng.normal(size=(40, 6)))
        out = tmp_path / "t.luq"
        assert run_cli("pca", "--features", str(fpath), "--out-dim", "3",
                       "--output", str(out)) == 0
        assert read_features(out).shape == (40, 3)
        assert "eigenvalue_sum=" in capsys.readouterr().out

    def test_one_row_exit_3(self, tmp_path, capsys):
        fpath = tmp_path / "f.luq"
        write_matrix(fpath, np.arange(5.0)[None, :])
        out = tmp_path / "t.luq"
        assert run_cli("pca", "--features", str(fpath), "--out-dim", "1",
                       "--output", str(out)) == 3
        assert "at least 2 rows, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_out_dim_above_feature_count_exit_2(self, tmp_path, capsys):
        fpath = tmp_path / "f.luq"
        write_matrix(fpath, np.random.default_rng(4).normal(size=(40, 6)))
        out = tmp_path / "t.luq"
        assert run_cli("pca", "--features", str(fpath), "--out-dim", "7",
                       "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert "usage error: --out-dim" in err and "min(rows, cols)=6" in err
        assert not out.exists()


def subprocess_env(**extra):
    """The test process environment with ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    env.update(extra)
    return env


class TestSubprocessEntry:
    def test_module_entry_and_exit_codes(self, tmp_path):
        env = subprocess_env()
        proc = subprocess.run(
            [sys.executable, "-m", "luq", "eval", "--mode", "bogus",
             "--input", "x", "--output", "y"],
            capture_output=True, env=env,
        )
        assert proc.returncode == 2
        csv = tmp_path / "s.csv"
        csv.write_text("score,label\n0.9,1\n0.1,0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "luq", "eval", "--mode", "ood",
             "--input", str(csv), "--output", str(tmp_path / "m.csv")],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0
        assert b"auroc=1" in proc.stdout

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="thread count is read from /proc")
    def test_luq_threads_caps_blas_pool(self):
        env = subprocess_env(LUQ_THREADS="1")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            env.pop(var, None)
        code = ("import luq.cli\n"
                "for line in open('/proc/self/status'):\n"
                "    if line.startswith('Threads:'):\n"
                "        print(line.split()[1])\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=env, text=True, check=True)
        assert proc.stdout.strip() == "1"

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_bad_luq_threads_exit_2_before_any_file_is_read(self, tmp_path, value):
        env = subprocess_env(LUQ_THREADS=value)
        proc = subprocess.run(
            [sys.executable, "-m", "luq", "pca", "--features", str(tmp_path / "missing.luq"),
             "--out-dim", "1", "--output", str(tmp_path / "o.luq")],
            capture_output=True, env=env, text=True,
        )
        assert proc.returncode == 2
        assert f"usage error: LUQ_THREADS must be a positive integer, got '{value}'" in proc.stderr
        # importing the library still works; its fits raise ValueError
        code = ("import luq\n"
                "try:\n"
                "    luq.fit_class_conditional([[0.0], [1.0]], [0, 0], luq.EmOptions())\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                              text=True, check=True)
        assert "LUQ_THREADS" in proc.stdout

    def test_import_leaves_scipy_out(self):
        code = ("import sys, luq, luq.cli\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m == 'scipy' or m.startswith('scipy.')))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=subprocess_env(), text=True, check=True)
        assert proc.stdout.strip() == "[]"


def _directory_as(flag):
    def build(tmp_path, blob_files):
        d = tmp_path / "a_dir"
        d.mkdir()
        features, labels = blob_files
        argv = {
            "--features": ["fit", "--features", str(d), "--predictions", str(labels),
                           "--model", "gmm"],
            "--input": ["eval", "--mode", "ood", "--input", str(d)],
            "--model": ["score", "--model", str(d), "--features", str(features)],
        }[flag]
        return argv, d, "Is a directory"
    return build


def _argument_file(name, content, text):
    """A gmm fit given ``@name``, where ``name`` holds the bytes ``content``,
    is missing (None) or is a directory ("/")."""
    def build(tmp_path, blob_files):
        path = tmp_path / name
        if content == "/":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        return (["fit", "--features", str(blob_files[0]), "--predictions", str(blob_files[1]),
                 "--model", "gmm", f"@{path}"], path, text)
    return build


def _undecodable_csv(tmp_path, blob_files):
    csv = tmp_path / "latin1.csv"
    csv.write_bytes("f\xe9ature,b\n1,2\n3,4\n".encode("latin-1"))
    return ["pca", "--features", str(csv), "--out-dim", "1"], csv, "not UTF-8 text"


def _undecodable_eval_csv(tmp_path, blob_files):
    csv = tmp_path / "latin1.csv"
    csv.write_bytes(b"score,label\n0.9,1\n0.1,0\n\xff\n")
    return ["eval", "--mode", "ood", "--input", str(csv)], csv, "not UTF-8 text"


def _unnormalized_prior_section(tmp_path, blob_files):
    # a PRIR section whose CRC holds but whose class probabilities sum to 1.1
    payload = (struct.pack("<BI", 0, 2) + np.array([0, 1], dtype="<i8").tobytes()
               + fileio._pack_array(np.log([0.5, 0.6])))
    model = tmp_path / "bad_prior.luqm"
    sections = tuple((tag, name, (lambda prior: payload) if name == "prior" else pack, unpack)
                     for tag, name, pack, unpack in fileio._SECTIONS)
    with mock.patch.object(fileio, "_SECTIONS", sections):
        write_model(model, two_class_reference_model())
    return (["score", "--model", str(model), "--features", str(blob_files[0])],
            f"{model}[PRIR]", "does not normalize")


def _spoiled(density, spoil, section, text):
    """A failure-table case: a valid 2-D ``density`` ("gmm" or "flow")
    model, changed by ``spoil`` after its constructors ran, scores the blob
    features; the error names the model file, and ``section`` in it when
    given."""
    def build(tmp_path, blob_files):
        from luq.flow import build_flow

        if density == "gmm":
            bundle = _two_d_gmm_bundle()
        else:
            bundle = ModelBundle(prior=UniformPrior(-3.0, 3.0), flow=build_flow(2, 1, seed=0))
        spoil(bundle)
        model = tmp_path / f"{density}.luqm"
        write_model(model, bundle)
        return (["score", "--model", str(model), "--features", str(blob_files[0]),
                 "--grid", "8"], f"{model}[{section}]" if section else model, text)
    return build


def _repeated(tag, density="gmm", spoil=lambda bundle: None):
    """A failure-table case: a valid ``density`` model, changed by
    ``spoil``, written with its ``tag`` section twice."""
    def build(tmp_path, blob_files):
        sections = fileio._SECTIONS + tuple(row for row in fileio._SECTIONS if row[0] == tag)
        with mock.patch.object(fileio, "_SECTIONS", sections):
            argv, model, _ = _spoiled(density, spoil, None, None)(tmp_path, blob_files)
        return argv, model, f"section {tag.decode().strip()!r} appears twice"
    return build


def _padded(tag, density="gmm", spoil=lambda bundle: None):
    """A failure-table case: a valid ``density`` model, changed by
    ``spoil``, whose ``tag`` section ends in 8 bytes that its values leave
    unread, under a checksum that holds."""
    def build(tmp_path, blob_files):
        sections = tuple((t, name, (lambda part, pack=pack: pack(part) + bytes(8))
                          if t == tag else pack, unpack)
                         for t, name, pack, unpack in fileio._SECTIONS)
        label = tag.decode().strip()
        with mock.patch.object(fileio, "_SECTIONS", sections):
            argv, model, _ = _spoiled(density, spoil, label, None)(tmp_path, blob_files)
        return argv, model, "8 unread bytes at the end of the section"
    return build


def _first_component(bundle):
    return bundle.class_gmms.per_class[0].components[0]


def _histogram_prior():
    return HistogramPrior(np.array([-3.0, 0.0, 3.0]), np.full(2, -np.log(6.0)))


def _add_pca(bundle):
    bundle.pca = PcaModel(np.zeros(2), np.eye(2), np.ones(2))


def _nan_pca_mean(bundle):
    _add_pca(bundle)
    bundle.pca.mean[0] = np.nan


def _prior_spoiled(prior, spoil):
    """A spoiler that gives the bundle ``prior()`` changed by ``spoil``."""
    def apply(bundle):
        bundle.prior = prior()
        spoil(bundle.prior)
    return apply


def _flow_parts_outside_latent(tmp_path, blob_files):
    # a FLOW section whose CRC holds but whose first layer transforms latent
    # dimension 5 of 2
    from luq.flow import build_flow

    flow = build_flow(2, 1, seed=0)
    flow.layers[0].part2 = np.array([5])
    model = tmp_path / "flow.luqm"
    write_model(model, ModelBundle(prior=UniformPrior(-3.0, 3.0), flow=flow))
    return (["score", "--model", str(model), "--features", str(blob_files[0]), "--grid", "8"],
            f"{model}[FLOW]", "layer 0: the coupling parts do not partition")


def _two_d_gmm_bundle(mean_length=2):
    """A checksum-valid two-class 2-D GMM model whose first component mean
    has ``mean_length`` entries (set past the component's own check)."""
    comps = [GaussianComponent(0.0, np.full(2, float(c)), cholesky(np.eye(2))) for c in (0, 1)]
    object.__setattr__(comps[0], "mean", np.zeros(mean_length))
    return ModelBundle(
        prior=CategoricalPrior(classes=(0, 1), log_probs=np.log([0.5, 0.5])),
        class_gmms=ClassConditionalGmm(dim=2, classes=(0, 1), per_class={
            c: Gmm(dim=2, components=(comp,)) for c, comp in enumerate(comps)}))


def _gmm_mean_of_wrong_length(tmp_path, blob_files):
    model = tmp_path / "mean.luqm"
    write_model(model, _two_d_gmm_bundle(mean_length=3))
    return (["score", "--model", str(model), "--features", str(blob_files[0])],
            f"{model}[GMMS]", "component mean has shape (3,)")


def _pca_mean_of_wrong_length(tmp_path, blob_files):
    pca = PcaModel(mean=np.zeros(3), basis=np.eye(3)[:, :2], eigenvalues=np.ones(2))
    object.__setattr__(pca, "mean", np.zeros(4))
    bundle = _two_d_gmm_bundle()
    bundle.pca = pca
    model = tmp_path / "pca.luqm"
    write_model(model, bundle)
    features = tmp_path / "x3.luq"  # three columns, so the stored PCA would apply
    write_matrix(features, np.ones((4, 3)))
    return (["score", "--model", str(model), "--features", str(features)],
            f"{model}[PCA]", "PCA mean (4,), basis (3, 2)")


def _flow_net_of_wrong_width(tmp_path, blob_files):
    # layer 0 copies one latent coordinate, its scale net takes two
    from luq.flow import FlowArchitecture, build_flow

    flow = build_flow(2, 1, FlowArchitecture(n_layers=2, hidden=(4,), cond_hidden=(4,),
                                             cond_feat_dim=4), seed=0)
    flow.layers[0].scale_net.weights[0] = np.zeros((2, 4))
    model = tmp_path / "net.luqm"
    write_model(model, ModelBundle(prior=UniformPrior(-3.0, 3.0), flow=flow))
    return (["score", "--model", str(model), "--features", str(blob_files[0]), "--grid", "8"],
            f"{model}[FLOW]", "layer 0: scale net: weight 0 is (2, 4)")


def _two_density_sections(tmp_path, blob_files):
    from luq.flow import build_flow

    bundle = _two_d_gmm_bundle()
    bundle.flow = build_flow(2, 1, seed=0)
    model = tmp_path / "both.luqm"
    write_model(model, bundle)
    return (["score", "--model", str(model), "--features", str(blob_files[0])],
            model, "exactly one density section, GMMS or FLOW; found 2")


def _inf_named_header(tmp_path, blob_files):
    csv = tmp_path / "scores.csv"
    csv.write_text("score,inf\n0.9,1\n0.1,0\n")
    return ["eval", "--mode", "ood", "--input", str(csv)], csv, "missing columns ['label']"


def _nonfinite_first_feature_row(tmp_path, blob_files):
    csv = tmp_path / "features.csv"
    csv.write_text("nan,inf\n" + "".join(f"{i}.5,{i}.25\n" for i in range(119)))
    return (["fit", "--features", str(csv), "--predictions", str(blob_files[1]), "--model", "gmm"],
            csv, "data row 1 holds a NaN or infinite value")


class TestFailureTable:
    """Each kind of bad input file is a data error through ``python -m luq``:
    exit 3, a message that names the file, no traceback and no output."""

    CASES = {
        "directory-features": _directory_as("--features"),
        "directory-input": _directory_as("--input"),
        "directory-model": _directory_as("--model"),
        "missing-argument-file": _argument_file("nonexistent.args", None, "No such file"),
        "directory-argument-file": _argument_file("args.d", "/", "Is a directory"),
        "undecodable-csv": _undecodable_csv,
        "undecodable-eval-csv": _undecodable_eval_csv,
        "undecodable-argument-file": _argument_file("latin1.args", b"# r\xe9sum\xe9\n--seed 1\n",
                                                    "not UTF-8 text"),
        "unclosed-quote-argument-file": _argument_file(
            "quote.args", b"--seed 1\n--prior 'categorical\n", "line 2: No closing quotation"),
        "checksum-valid-invalid-section": _unnormalized_prior_section,
        "gmm-with-uniform-prior": _spoiled(
            "gmm", lambda b: setattr(b, "prior", UniformPrior(-3.0, 3.0)), None,
            "a gmm model cannot use a UniformPrior"),
        "flow-with-categorical-prior": _spoiled(
            "flow", lambda b: setattr(b, "prior", two_class_reference_model().prior), None,
            "a flow model cannot use a CategoricalPrior"),
        "flow-parts-outside-latent": _flow_parts_outside_latent,
        "gmm-section-without-classes": _spoiled(
            "gmm", lambda b: object.__setattr__(b.class_gmms, "classes", ()), "GMMS",
            "holds no classes"),
        "gmm-mean-of-wrong-length": _gmm_mean_of_wrong_length,
        "pca-mean-of-wrong-length": _pca_mean_of_wrong_length,
        "flow-net-of-wrong-width": _flow_net_of_wrong_width,
        "gmm-and-flow-sections": _two_density_sections,
        "nan-cholesky-diagonal": _spoiled(
            "gmm", lambda b: np.put(_first_component(b).cov_chol.lower, 3, np.nan), "GMMS",
            "factor entries must be finite"),
        "nan-component-mean": _spoiled(
            "gmm", lambda b: np.put(_first_component(b).mean, 0, np.nan), "GMMS",
            "component mean is not finite"),
        "nan-gmm-log-weight": _spoiled(
            "gmm", lambda b: object.__setattr__(_first_component(b), "log_weight", np.nan),
            "GMMS", "mixture weights sum to exp(nan)"),
        "nan-categorical-log-prob": _spoiled(
            "gmm", lambda b: np.put(b.prior.log_probs, 0, np.nan), "PRIR",
            "categorical prior does not normalize"),
        "nan-beta-prime-parameter": _spoiled(
            "flow", _prior_spoiled(lambda: BetaPrimePrior(2.0, 3.0),
                                   lambda p: object.__setattr__(p, "alpha", np.nan)),
            "PRIR", "beta-prime parameters must be finite and positive"),
        "nan-histogram-edge": _spoiled(
            "flow", _prior_spoiled(_histogram_prior, lambda p: np.put(p.edges, 1, np.nan)),
            "PRIR", "histogram edges must be finite and strictly increasing"),
        "nan-histogram-density": _spoiled(
            "flow", _prior_spoiled(_histogram_prior,
                                   lambda p: np.put(p.log_densities, 0, np.nan)),
            "PRIR", "histogram integrates to nan"),
        "nan-pca-mean": _spoiled("gmm", _nan_pca_mean, "PCA",
                                 "PCA mean, basis and eigenvalues must be finite"),
        "nan-flow-net-weight": _spoiled(
            "flow", lambda b: np.put(b.flow.layers[0].cond_net.weights[0], 0, np.nan), "FLOW",
            "layer 0: a net parameter is not finite"),
        "zero-flow-scale-clamp": _spoiled(
            "flow", lambda b: setattr(b.flow.layers[1], "scale_clamp", 0.0), "FLOW",
            "layer 1: scale clamp 0.0 is not finite and > 0"),
        "prior-class-without-density": _spoiled(
            "gmm", lambda b: setattr(b, "prior", CategoricalPrior(
                (0, 1, 2), np.log([0.2, 0.3, 0.5]))), None,
            "the prior's classes [0, 1, 2] are not the density's [0, 1]"),
        "density-class-without-prior": _spoiled(
            "gmm", lambda b: setattr(b, "prior", CategoricalPrior((0,), np.zeros(1))), None,
            "the prior's classes [0] are not the density's [0, 1]"),
        "repeated-prior-section": _repeated(fileio.SECTION_PRIOR),
        "repeated-gmm-section": _repeated(fileio.SECTION_GMMS),
        "repeated-flow-section": _repeated(fileio.SECTION_FLOW, "flow"),
        "repeated-pca-section": _repeated(fileio.SECTION_PCA, spoil=_add_pca),
        "unread-bytes-in-prior-section": _padded(fileio.SECTION_PRIOR, "flow"),
        "unread-bytes-in-gmm-section": _padded(fileio.SECTION_GMMS),
        "unread-bytes-in-flow-section": _padded(fileio.SECTION_FLOW, "flow"),
        "unread-bytes-in-pca-section": _padded(fileio.SECTION_PCA, spoil=_add_pca),
        "repeated-prior-class": _spoiled(
            "gmm", _prior_spoiled(lambda: CategoricalPrior((0, 1, 2), np.log([0.25, 0.25, 0.5])),
                                  lambda p: object.__setattr__(p, "classes", (0, 0, 1))),
            "PRIR", "a class id repeats in [0, 0, 1]"),
        "repeated-density-class": _spoiled(
            "gmm", lambda b: object.__setattr__(b.class_gmms, "classes", (0, 0, 1)), "GMMS",
            "the classes [0, 0, 1] are not those with a density, [0, 1], each once"),
        "overflowing-uniform-width": _spoiled(
            "flow", lambda b: (object.__setattr__(b.prior, "lo", -1e308),
                               object.__setattr__(b.prior, "hi", 1e308)),
            "PRIR", "uniform prior needs finite lo < hi with a finite hi - lo"),
        "overflowing-histogram-span": _spoiled(
            "flow", _prior_spoiled(_histogram_prior, lambda p: (
                np.copyto(p.edges, [-1.5e308, 0.0, 1.5e308]),
                np.copyto(p.log_densities, [-np.log(1.5e308), -np.inf]))),
            "PRIR", "with a finite span"),
        "pca-wider-than-density": _spoiled(
            "gmm", lambda b: setattr(b, "pca", PcaModel(np.zeros(2), np.eye(3)[:2],
                                                        np.ones(3))), None,
            "the PCA gives 3 columns, the density takes 2"),
        "inf-named-header": _inf_named_header,
        "nan-inf-first-feature-row": _nonfinite_first_feature_row,
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_code_and_message(self, tmp_path, blob_files, case):
        argv, named, text = self.CASES[case](tmp_path, blob_files)
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "luq", *argv, "--output", str(out)],
                              capture_output=True, env=subprocess_env(), text=True)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and str(named) in proc.stderr
        assert text in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    def test_grid_outside_the_prior_stays_a_usage_error(self, tmp_path):
        from luq.flow import build_flow

        model = tmp_path / "u.luqm"
        write_model(model, ModelBundle(prior=UniformPrior(-10.0, 10.0),
                                       flow=build_flow(2, 1, seed=0)))
        features = tmp_path / "z.luq"
        write_matrix(features, np.zeros((2, 2)))
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "luq", "score", "--model", str(model),
                               "--features", str(features), "--grid-range", "20:30",
                               "--output", str(out)],
                              capture_output=True, env=subprocess_env(), text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("usage error: --grid-range: the prior puts no mass")
        assert not out.exists()

    def test_a_scoring_value_error_is_not_a_grid_range_error(self, tmp_path):
        from luq.flow import build_flow

        model = tmp_path / "u.luqm"
        write_model(model, ModelBundle(prior=UniformPrior(-10.0, 10.0),
                                       flow=build_flow(2, 1, seed=0)))
        features = tmp_path / "z.luq"
        write_matrix(features, np.zeros((2, 2)))
        with mock.patch("luq.flow.flow_log_prob", side_effect=ValueError("inside the flow")):
            with pytest.raises(ValueError, match="inside the flow"):
                run_cli("score", "--model", str(model), "--features", str(features),
                        "--grid-range=-2:2", "--output", str(tmp_path / "out"))
