"""Smoke test of the benchmark: every workload end to end at tiny sizes.

    python -m pytest bench/test_bench.py -q

Runs outside the repository's tier-1 suite (pytest collects ``tests/``
only); about a minute on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402
from tracer import parse_importtime  # noqa: E402


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace:
        spans = json.loads((run.RUNS / f"spans-{workload}-seed3-trace1.json").read_text())
        assert spans["spans"] and "cli.main" in spans["totals"]
    else:
        for name in ("setup_s", "fit_rel", "score_rel", "wall_rel", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0


def test_benchmark_json_matches_the_runner():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_refuses_to_run_without_the_program_sources():
    bare = BENCH / ".work" / "bare-copy"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = bench("--workload", "gmm", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare, script=bare / "bench" / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_fixed_work_guard_flags_a_changed_count(monkeypatch):
    runs = BENCH / ".work" / "guard"
    shutil.rmtree(runs, ignore_errors=True)
    runs.mkdir(parents=True)
    monkeypatch.setattr(run, "RUNS", runs)
    tally = run.Tally()
    run.guard_fixed_work("code/gmm/1", {"gmm.em_fit.iters": 240}, tally)
    run.guard_fixed_work("code/gmm/1", {"gmm.em_fit.iters": 240}, tally)
    run.guard_fixed_work("code/gmm/2", {"gmm.em_fit.iters": 236}, tally)
    assert tally.failed == 0
    run.guard_fixed_work("code/gmm/1", {"gmm.em_fit.iters": 236}, tally)
    shutil.rmtree(runs)
    assert tally.failed == 1


def test_importtime_attribution():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |         scipy._lib",
        "import time:       150 |        200 |       scipy",
        "import time:       100 |        300 |     scipy.linalg",
        "import time:        10 |        610 |   luq.linalg",
        "import time:        20 |        630 | luq",
        "import time:         5 |          5 | luq.cli",
    ])
    assert parse_importtime(stderr) == pytest.approx(
        {"numpy": 300e-6, "scipy": 300e-6, "luq": 635e-6})
