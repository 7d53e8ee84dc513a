"""The names the benchmark's hooks reach into luq by still exist.

``bench/tracer.py`` wraps luq functions by name and the ``log_pdf`` of
each prior class; ``bench/pinned_toy.py`` replaces ``toy.MlpTrainConfig``;
``bench/workloads.py`` recomputes scores from the fields of the
``ModelBundle`` that ``read_model`` returns.  A rename in ``src/`` would
break ``bench/run.py`` without failing any other test.  The files are
loaded by path; ``bench/run.py`` is not imported, because it sets the BLAS
thread variables in ``os.environ`` when imported.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _lookup(name):
    short, attr = name.split(".")
    return getattr(importlib.import_module(f"luq.{short}"), attr)


def test_tracer_wraps_every_counted_function_and_restores_it():
    tracer_mod = _load("tracer")
    from luq import priors

    prior_classes = (priors.CategoricalPrior, priors.UniformPrior,
                     priors.BetaPrimePrior, priors.HistogramPrior)
    originals = {name: _lookup(name) for name in tracer_mod.COUNTERS}
    log_pdfs = {cls: cls.__dict__["log_pdf"] for cls in prior_classes}
    tracer = tracer_mod.Tracer("hooks")
    try:
        tracer.install()
        unwrapped = [name for name, fn in originals.items()
                     if getattr(_lookup(name), "__wrapped__", None) is not fn]
        assert unwrapped == []
        assert all(cls.__dict__["log_pdf"].__wrapped__ is log_pdfs[cls]
                   for cls in prior_classes)
    finally:
        tracer.uninstall()
    assert {name: _lookup(name) for name in originals} == originals
    assert {cls: cls.__dict__["log_pdf"] for cls in prior_classes} == log_pdfs


def test_pinned_toy_sets_every_mlp_budget():
    pinned_toy = _load("pinned_toy")
    from luq import toy

    original = pinned_toy.pin(3, 2)
    try:
        regressor = toy.MlpTrainConfig(seed=1)
        ensemble = toy.MlpTrainConfig(max_epochs=600, seed=1)
    finally:
        toy.MlpTrainConfig = original
    assert (regressor.max_epochs, regressor.improvement_window) == (3, 3)
    assert (ensemble.max_epochs, ensemble.improvement_window) == (2, 2)
    assert isinstance(regressor, original) and regressor.seed == 1


def test_workload_references_agree_with_the_engine(tmp_path):
    workloads = _load("workloads")
    from luq.engine import SupportGrid, score_classification, score_regression
    from luq.fileio import ModelBundle, read_model, write_model
    from luq.flow import build_flow
    from luq.gmm import EmOptions, fit_class_conditional
    from luq.linalg import pca_fit, pca_transform
    from luq.priors import UniformPrior, fit_categorical

    def reread(bundle):
        write_model(tmp_path / "m.luqm", bundle)
        return read_model(tmp_path / "m.luqm")

    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 4))
    labels = (x[:, 0] > 0).astype(int)
    pca = pca_fit(x, 3, whiten=True)
    density = fit_class_conditional(pca_transform(pca, x), labels, EmOptions(n_components=2))
    gmm = reread(ModelBundle(prior=fit_categorical(labels), class_gmms=density, pca=pca))
    got = score_classification(gmm.class_gmms, gmm.prior, pca_transform(gmm.pca, x))
    epistemic, aleatoric = workloads.gmm_reference_scores(gmm, x)
    assert workloads.close(got.epistemic, epistemic, workloads.SCORE_RTOL)[0]
    assert workloads.close(got.aleatoric, aleatoric, workloads.SCORE_RTOL)[0]

    flow = reread(ModelBundle(prior=UniformPrior(-2.0, 3.0), flow=build_flow(2, 1, seed=0)))
    z = rng.normal(size=(5, 2))
    got = score_regression(flow.flow, flow.prior, SupportGrid(-2.0, 3.0, 50), z)
    reference = workloads.flow_reference_epistemic(flow, z, 50)
    assert workloads.close(got.epistemic, reference, workloads.SCORE_RTOL)[0]



def test_workload_commands_use_only_flags_their_variant_reads(tmp_path):
    """Each ``fit`` and ``score`` command line of every workload gets past
    the CLI's unread-flag rule to the first read of its data: the features
    file for ``fit`` and ``score`` (after the model file), the study for
    ``toy``.  That read is stopped, so nothing is trained or scored."""
    workloads = _load("workloads")
    from unittest import mock

    from luq import cli
    from luq.fileio import ModelBundle, write_model
    from luq.flow import build_flow
    from luq.gmm import EmOptions, fit_class_conditional
    from luq.priors import UniformPrior, fit_categorical

    class Reached(Exception):
        pass

    rep = tmp_path / "rep"
    (rep / "toy").mkdir(parents=True)
    x, labels = np.random.default_rng(0).normal(size=(20, 2)), np.arange(20) % 2
    write_model(rep / "model.luqm", ModelBundle(  # the models each score step reads
        prior=fit_categorical(labels),
        class_gmms=fit_class_conditional(x, labels, EmOptions(n_components=1))))
    write_model(rep / "toy" / "model.luqm",
                ModelBundle(prior=UniformPrior(-10.0, 10.0), flow=build_flow(2, 1, seed=0)))
    workloads.write_luq1(rep / "toy" / "train_latents.luq", x)

    gmm = workloads.GmmWorkload(seed=301, size="tiny")
    gmm.inputs = tmp_path / "inputs"
    reached = []
    for workload in (gmm, workloads.ToyRegressionWorkload(seed=301, size="tiny")):
        for phase, make_argv in workload.steps(rep):
            if phase == "eval":
                continue
            argv = make_argv()
            with mock.patch("luq.fileio.read_features", side_effect=Reached), \
                    mock.patch("luq.toy.run_regression_study", side_effect=Reached):
                with pytest.raises(Reached):
                    cli.main(argv)
            reached.append(argv[:2])
    assert reached == [["fit", "--features"], ["score", "--model"],
                       ["toy", "regression"], ["score", "--model"]]
