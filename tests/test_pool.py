import os

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
