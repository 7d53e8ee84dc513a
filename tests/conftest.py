"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` makes the fits that follow run on ``n`` worker threads:
    it sets ``LUQ_THREADS`` to n, declares one BLAS thread and reports n
    usable CPUs."""

    def use(n: int):
        monkeypatch.setenv("LUQ_THREADS", str(n))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)

    return use


@pytest.fixture
def toy_mlp_epochs(monkeypatch):
    """``toy_mlp_epochs(n)`` caps at ``n`` epochs every MLP training config
    the toy studies build for themselves, by substituting
    ``toy.MlpTrainConfig`` as ``bench/pinned_toy.py`` does; the
    improvement-window stop stays on."""
    from luq import toy
    from luq.mlp import MlpTrainConfig

    def use(n: int):
        def capped(**kwargs):
            return MlpTrainConfig(**{**kwargs, "max_epochs": n})

        monkeypatch.setattr(toy, "MlpTrainConfig", capped)

    return use
