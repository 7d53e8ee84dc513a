"""No module of the package imports a name it never uses, or defines a
module-level private name that it never reads.  ``import luq`` loads no
submodule, and serves each public name from its defining module on first
use; the GMM commands load only the modules they run, and only the commands
that fit or score GMMs load the worker pool's ``concurrent.futures``.  A
command loads ``shlex`` only to read an ``@FILE`` argument.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import luq
from luq.fileio import write_matrix

SRC = Path(__file__).resolve().parent.parent / "src" / "luq"
ALL_MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nfrom dataclasses import dataclass, field\n"
              "def f() -> os.PathLike:\n    return dataclass\n")
    assert unused_imports(source) == [(3, "field")]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def unused_private_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of every module-level private name (``_x = ...``,
    ``def _x``, ``class _X``) that the module never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for line, name in defined
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def test_finds_an_unused_private_name():
    source = ("_USED = 1\n_TABLE = {'a': 0}\n__all__ = []\nPUBLIC = 2\n"
              "def _helper():\n    return _USED\n"
              "def _dead():\n    pass\nclass _Spare:\n    pass\n"
              "def f():\n    _local = 3\n    return _helper()\n")
    assert unused_private_names(source) == [(2, "_TABLE"), (7, "_dead"), (9, "_Spare")]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_unused_private_names(module):
    assert unused_private_names((SRC / module).read_text(encoding="utf-8")) == []


# The names ``luq`` exported when ``__init__.py`` imported them all eagerly.
EXPORTED = {
    "engine": ["ConfidenceRegion", "RegressionPosterior", "SupportGrid", "UncertaintyScores",
               "aleatoric_classification", "aleatoric_regression", "confidence_region",
               "epistemic_classification", "epistemic_regression", "score_classification",
               "score_regression"],
    "flow": ["ConditionalFlow", "FlowArchitecture", "FlowTrainConfig", "build_flow",
             "flow_condition", "flow_forward", "flow_gradients", "flow_inverse",
             "flow_log_prob", "flow_nll", "flow_train"],
    "gmm": ["ClassConditionalGmm", "EmOptions", "GaussianComponent", "Gmm", "em_fit",
            "fit_class_conditional", "gmm_log_prob"],
    "linalg": ["CholeskyFactor", "PcaModel", "cholesky", "log_det", "logsumexp", "pca_fit",
               "pca_transform"],
    "metrics": ["CalibrationCurve", "auroc", "average_precision", "calibration_curve",
                "discrete_entropy", "fpr_at_tpr", "rmse_below_uncertainty"],
    "mlp": ["MlpModel", "MlpTrainConfig", "latent_extract", "mlp_init", "mlp_predict",
            "mlp_train"],
    "priors": ["BetaPrimePrior", "CategoricalPrior", "HistogramPrior", "OutputPrior",
               "UniformPrior", "betaprime_fit_mom", "fit_categorical", "fit_histogram"],
    "toy": ["EnsembleModel", "ToyClassificationSpec", "ToyRegressionSpec", "ensemble_scores",
            "gen_classification_data", "gen_ood_data", "gen_regression_data", "perturb",
            "regression_target", "run_classification_study", "run_regression_study",
            "train_ensemble"],
}


@pytest.mark.parametrize("module", list(EXPORTED))
def test_every_exported_name_resolves_to_its_module(module):
    defining = importlib.import_module(f"luq.{module}")
    assert getattr(luq, module) is defining
    for name in EXPORTED[module]:
        assert getattr(luq, name) is getattr(defining, name)
        assert name in dir(luq)
    exec(f"from luq import {', '.join(EXPORTED[module])}", {})


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        luq.no_such_name
    assert not hasattr(luq, "as_matrix")  # defined in linalg, but not exported
    with pytest.raises(ImportError):
        exec("from luq import no_such_name", {})


LIST_LOADED = """import importlib
import sys
importlib.import_module(sys.argv[1])
if sys.argv[2:]:
    from luq.cli import main
    assert main(sys.argv[2:]) == 0
print(*sorted(m[4:] for m in sys.modules if m.startswith("luq.")),
      *(m for m in ["concurrent.futures", "shlex"] if m in sys.modules))
"""


def loaded_modules(cwd, *argv, module="luq") -> set[str]:
    """The ``luq`` submodules loaded by importing ``module`` and, given
    ``argv``, by one ``luq`` command, in a fresh interpreter; plus
    ``concurrent.futures``, which the worker pool loads, and ``shlex``, which
    an ``@FILE`` argument loads, if they are loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", LIST_LOADED, module, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_import_luq_loads_no_submodule(tmp_path):
    assert loaded_modules(tmp_path) == {"_pool"}


def test_worker_pool_loads_only_where_it_runs(tmp_path):
    write_matrix(tmp_path / "f.luq", np.random.default_rng(0).normal(size=(10, 3)))
    (tmp_path / "s.csv").write_text("score,label\n0.9,1\n0.1,0\n")
    cli = loaded_modules(tmp_path, module="luq.cli")
    pca = loaded_modules(tmp_path, "pca", "--features", "f.luq", "--out-dim", "2",
                         "--output", "r.luq")
    ood = loaded_modules(tmp_path, "eval", "--mode", "ood", "--input", "s.csv",
                         "--output", "m.csv")
    assert "cli" in cli & pca & ood
    assert "concurrent.futures" not in cli | pca | ood


def test_gmm_commands_load_only_what_they_run(tmp_path):
    rng = np.random.default_rng(0)
    write_matrix(tmp_path / "f.luq", rng.normal(size=(40, 2)) + np.repeat([[0], [4]], 20, 0))
    write_matrix(tmp_path / "p.luq", np.repeat([0.0, 1.0], 20)[:, None])
    fit = loaded_modules(tmp_path, "fit", "--features", "f.luq", "--predictions", "p.luq",
                         "--model", "gmm", "--output", "m.luqm")
    score = loaded_modules(tmp_path, "score", "--model", "m.luqm", "--features", "f.luq",
                           "--output", "s.csv")
    unused = {"flow", "mlp", "toy", "metrics", "plots"}
    assert {"cli", "gmm", "fileio"} <= fit and not fit & (unused | {"engine"})
    assert {"cli", "gmm", "engine"} <= score and not score & unused
    assert "concurrent.futures" in fit & score
    assert "shlex" not in fit | score  # given no @FILE


def top_level_imports(source: str) -> set[str]:
    """The top-level module names that ``source`` imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_test_extra_installs_what_the_tests_import():
    # after ``pip install -e '.[test]'`` every test module can be collected
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    root = SRC.parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    extra = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
             for req in project["optional-dependencies"]["test"]}
    tests = root / "tests"
    local = {p.stem for p in tests.glob("*.py")}
    imported = set().union(*(top_level_imports(p.read_text(encoding="utf-8"))
                             for p in tests.glob("*.py")))
    allowed = set(sys.stdlib_module_names) | local | extra | {"numpy", "luq"}
    assert {"numpy", "pytest"} <= imported and imported - allowed == set()
