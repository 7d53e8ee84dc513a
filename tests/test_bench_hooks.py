"""The names the benchmark's hooks reach into luq by still exist.

``bench/tracer.py`` wraps luq functions by name and the ``log_pdf`` of
each prior class; ``bench/pinned_toy.py`` replaces ``toy.MlpTrainConfig``.
A rename in ``src/`` would break ``bench/run.py --trace 1`` and the toy
workload without failing any other test.  Both files are loaded by path;
``bench/run.py`` is not imported, because it sets the BLAS thread
variables in ``os.environ`` when imported.
"""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
