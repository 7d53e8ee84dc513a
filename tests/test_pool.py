import os
import subprocess
import sys
from pathlib import Path

import pytest

from luq._pool import POOL_VARS, thread_cap, worker_count, worker_pool


class TestThreadCap:
    def test_unset_or_empty_is_no_cap(self, monkeypatch):
        monkeypatch.delenv("LUQ_THREADS", raising=False)
        assert thread_cap() is None
        monkeypatch.setenv("LUQ_THREADS", "")
        assert thread_cap() is None

    def test_positive_integer(self, monkeypatch):
        monkeypatch.setenv("LUQ_THREADS", "3")
        assert thread_cap() == 3

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
    def test_other_values_raise(self, monkeypatch, value):
        monkeypatch.setenv("LUQ_THREADS", value)
        with pytest.raises(ValueError, match=f"LUQ_THREADS must be a positive integer, got '{value}'"):
            thread_cap()
        with pytest.raises(ValueError, match="LUQ_THREADS"):
            worker_count(2)


@pytest.fixture
def machine(monkeypatch):
    """``machine(cpus, cap=None, **pool_vars)``: that many usable CPUs, that
    ``LUQ_THREADS`` and those BLAS pool variables, the others unset."""

    def make(cpus, cap=None, **pool_vars):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        for var in ("LUQ_THREADS", *POOL_VARS):
            monkeypatch.delenv(var, raising=False)
        if cap is not None:
            monkeypatch.setenv("LUQ_THREADS", str(cap))
        for var, value in pool_vars.items():
            monkeypatch.setenv(var, value)

    return make


class TestWorkerPool:
    @pytest.mark.parametrize("tasks, cpus, cap, blas, expected", [
        (5, 2, None, "1", 2),
        (5, 4, 3, "1", 3),
        (3, 8, None, "1", 3),
        (2, 2, 1, "1", 1),
        (0, 2, None, "1", 1),
        (8, 8, None, "2", 4),
        (4, 2, None, "4", 1),
        (4, 2, None, None, 1),  # no pool variable: BLAS runs on every CPU
    ])
    def test_size(self, machine, tasks, cpus, cap, blas, expected):
        machine(cpus, cap, **({} if blas is None else {"OPENBLAS_NUM_THREADS": blas}))
        assert worker_count(tasks) == expected
        with worker_pool(tasks) as pool:
            assert pool._max_workers == expected

    @pytest.mark.parametrize("pool_vars, expected", [
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
        ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 4),
        ({"NUMEXPR_NUM_THREADS": "1"}, 1),
    ])
    def test_blas_threads_from_the_first_pool_variable_set(self, machine, pool_vars,
                                                          expected):
        machine(4, **pool_vars)
        assert worker_count(8) == expected

    def test_cpu_count_where_affinity_is_unknown(self, machine, monkeypatch):
        machine(1, OMP_NUM_THREADS="1")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert worker_count(8) == 3

    def test_results_in_submission_order(self, workers):
        workers(2)
        with worker_pool(4) as pool:
            futures = [pool.submit(pow, 2, i) for i in range(4)]
        assert [f.result() for f in futures] == [1, 2, 4, 8]


SRC = Path(__file__).resolve().parent.parent / "src"

# the pool variables and the OS threads of a fresh interpreter that imports
# luq.cli and then numpy, as the ``luq`` command does
AFTER_IMPORT = """import os
import luq.cli
import numpy
from luq._pool import POOL_VARS
print(*(os.environ.get(var) for var in POOL_VARS))
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1)
"""


def after_import(**pool_vars) -> tuple[list[str], int]:
    env = {k: v for k, v in os.environ.items() if k not in ("LUQ_THREADS", *POOL_VARS)}
    env.update(pool_vars, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", AFTER_IMPORT], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    return out[0].split(), int(out[1])


class TestDefaultBlasThreads:
    def test_one_thread_when_nothing_is_set(self):
        values, threads = after_import()
        assert values == ["1"] * len(POOL_VARS)
        assert threads == 1  # numpy's BLAS started no thread of its own

    def test_a_pool_variable_that_is_set_wins(self):
        values, _ = after_import(OPENBLAS_NUM_THREADS="2")
        assert dict(zip(POOL_VARS, values)) == {"OMP_NUM_THREADS": "None",
                                                "OPENBLAS_NUM_THREADS": "2",
                                                "MKL_NUM_THREADS": "None",
                                                "NUMEXPR_NUM_THREADS": "None"}
