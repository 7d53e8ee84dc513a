"""Spans around the public functions of the luq modules, recorded from
outside the program.

``Tracer.install`` replaces every public function of the traced modules by
a wrapper, under each name a caller looks it up by: the defining module's
global (for calls inside that module), every other luq module that imported
it, and the package namespace.  The ``log_pdf`` methods of the prior
classes are wrapped on their classes.  Each wrapper records one span (name,
start, end, parent span, run id) and work counters taken from its arguments
and result.  Self time is computed as the spans close: a span's duration
minus the durations of its direct children.  ``uninstall`` restores every
original.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import re
import sys
import time
from collections import defaultdict
from pathlib import Path

TRACED_MODULES = ("fileio", "linalg", "gmm", "flow", "priors", "engine", "mlp",
                  "toy", "metrics", "cli")

# Leaf helpers stay inside their caller's self time: format_float runs once
# per CSV cell, and logsumexp is part of the quadrature the regression
# scorer's self time stands for.
UNTRACED = {"fileio.format_float", "linalg.logsumexp", "linalg.as_matrix"}

# Spans kept per name; counters and times stay exact beyond the cap.
SPAN_CAP = 2000


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        data = getattr(a, "data", None)  # FeatureMatrix
        shape = getattr(data, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _em_flops(args, result) -> float:
    """Floating-point operations of one em_fit, computed from the shapes:
    per E-step a triangular solve (n d^2) and the quadratic form (3 n d) per
    component; per M-step the means (2 n k d), the weighted scatter
    (2 n d^2 + 2 n d) and a Cholesky factorization (d^3 / 3) per component."""
    x = args[0]
    x = getattr(x, "data", x)
    n, d = x.shape
    k = len(result.components)
    iters = len(result.em_log) - 1
    e_step = k * (n * d * d + 3 * n * d)
    m_step = 2 * n * k * d + k * (2 * n * d * d + 2 * n * d + d ** 3 / 3)
    return (iters + 1) * e_step + iters * m_step


# name -> function(args, kwargs, result) -> {counter: amount}
COUNTERS = {
    "fileio.read_features": lambda a, k, r: {"bytes": _file_bytes(a[0])},
    "fileio.write_scores_csv": lambda a, k, r: {"bytes": _file_bytes(a[0])},
    "gmm.em_fit": lambda a, k, r: {"iters": len(r.em_log) - 1, "flops": _em_flops(a, r)},
    "gmm.gmm_log_prob": lambda a, k, r: {"rows": _rows(a[1])},
    "flow.flow_train": lambda a, k, r: {"epochs": len(r[1].train_nll)},
    "flow.flow_gradients": lambda a, k, r: {"rows": _rows(a[1])},
    "flow.flow_log_prob": lambda a, k, r: {"rows": _rows(a[1])},
    "engine.score_regression": lambda a, k, r: {"rows": _rows(a[3])},
    "mlp.mlp_train": lambda a, k, r: {"epochs": len(r[1])},
    "mlp.mlp_train_many": lambda a, k, r: {"epochs": len(r[1]), "members": len(r[0])},
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.dropped: dict[str, int] = defaultdict(int)
        self.stats: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0
        self._patched: list[tuple] = []

    # --- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, name, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                st = tracer.stats[name]
                st["calls"] += 1
                st["s"] += dur
                st["self_s"] += dur - frame[2]
                if st["calls"] <= SPAN_CAP:
                    tracer.spans.append((span_id, parent, name, start, end))
                else:
                    tracer.dropped[name] += 1
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    st[key] += amount
            return result

        return wrapper

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib

        modules = {m: importlib.import_module(f"luq.{m}") for m in TRACED_MODULES}
        wrappers = {}  # id(original) -> wrapper
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or f"{short}.{attr}" in UNTRACED):
                    continue
                wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        luq_modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "luq" or n.startswith("luq."))]
        for mod in luq_modules:
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, w)
        priors = modules["priors"]
        for cls in (priors.CategoricalPrior, priors.UniformPrior,
                    priors.BetaPrimePrior, priors.HistogramPrior):
            original = cls.__dict__["log_pdf"]
            self._patched.append((cls, "log_pdf", original))
            setattr(cls, "log_pdf", self._wrap("priors.log_pdf", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- results -----------------------------------------------------------

    def value(self, name: str, quantity: str) -> float:
        if name not in self.stats:
            return 0.0
        return float(self.stats[name].get(quantity, 0.0))

    def dump(self, path: Path) -> None:
        """Write spans, per-name totals and dropped-span counts as JSON."""
        doc = {
            "run_id": self.run_id,
            "clock": "time.perf_counter, seconds",
            "span_fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "spans_dropped": dict(self.dropped),
            "totals": {n: dict(s) for n, s in sorted(self.stats.items())},
        }
        path.write_text(json.dumps(doc))


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import seconds from ``-X importtime`` output.

    numpy: cumulative time of the ``numpy`` package import.  scipy: summed
    cumulative time of each scipy module whose importer is not itself a
    scipy module.  luq: summed cumulative time of the top-level ``luq`` and
    ``luq.*`` imports, which includes numpy and scipy.
    """
    entries = []  # (level, name, cumulative us), in print order (post-order)
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    out = {"numpy": 0.0, "scipy": 0.0, "luq": 0.0}
    ancestors: list[str] = []
    for level, name, cum in reversed(entries):  # parents before children
        del ancestors[level:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if name == "numpy" and not any(a.startswith("numpy") for a in ancestors):
            out["numpy"] += cum
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            out["scipy"] += cum
        if level == 0 and (name == "luq" or name.startswith("luq.")):
            out["luq"] += cum
        ancestors.append(name)
    return {k: v / 1e6 for k, v in out.items()}
