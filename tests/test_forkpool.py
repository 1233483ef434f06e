import os
import pickle

import pytest

from lramkit import forkpool
from lramkit.errors import SolverFailureError


def _where(item):
    return os.getpid(), item


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


class TestPool:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_item_i_served_by_process_i_mod_w(self, workers):
        with forkpool.Pool(_where, workers) as pool:
            out = pool.map(range(7))
        assert [item for _, item in out] == list(range(7))
        pids = [pid for pid, _ in out]
        assert pids[0::workers] == [os.getpid()] * len(pids[0::workers])
        assert len(set(pids)) == workers
        assert all(pids[i] == pids[i % workers] for i in range(7))

    def test_children_keep_state_between_rounds(self):
        served = []

        def count(item):
            served.append(item)
            return os.getpid(), len(served)

        with forkpool.Pool(count, 2) as pool:
            first = pool.map(["a", "b", "c", "d"])
            second = pool.map(["e", "f"])
            pid, total = pool.call(1, "g")
        assert [n for _, n in first] == [1, 1, 2, 2]
        assert [n for _, n in second] == [3, 3]
        assert (pid, total) == (first[1][0], 4)
        assert served == ["a", "c", "e"]   # this process's share only

    def test_call_on_this_process_runs_in_process(self):
        with forkpool.Pool(_where, 2) as pool:
            assert pool.call(0, "x") == (os.getpid(), "x")

    def test_child_exception_raised_here_and_pool_closed(self):
        def serve(item):
            if os.getpid() != parent and item == 3:
                raise SolverFailureError(f"item {item} failed")
            return item

        parent = os.getpid()
        pool = forkpool.Pool(serve, 2)
        with pool:
            with pytest.raises(SolverFailureError, match="item 3 failed"):
                pool.map(range(4))
            with pytest.raises(RuntimeError, match="closed"):
                pool.map(range(4))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unpicklable_exception_keeps_its_text(self):
        def serve(item):
            if item == 1:
                raise _Unpicklable("odd")
            return item

        with pytest.raises(TypeError):
            pickle.dumps(_Unpicklable("odd"))
        with forkpool.Pool(serve, 2) as pool:
            with pytest.raises(SolverFailureError, match="_Unpicklable: odd"):
                pool.map([0, 1])

    def test_dead_child_names_its_items(self):
        def serve(item):
            if os.getpid() != parent:
                os._exit(3)
            return item

        parent = os.getpid()
        with forkpool.Pool(serve, 3, describe=lambda items: f"items {items}") as pool:
            with pytest.raises(SolverFailureError,
                               match=r"items \[1, 4\] ended without a result"):
                pool.map(range(6))

    def test_parent_failure_leaves_no_child(self):
        def serve(item):
            if item == 0:
                raise ValueError("parent's share")
            return item

        with pytest.raises(ValueError, match="parent's share"):
            with forkpool.Pool(serve, 2) as pool:
                pool.map(range(4))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_one_process_per_usable_cpu():
    cpus = len(os.sched_getaffinity(0))
    assert forkpool.processes(0) == forkpool.processes(1) == 1
    assert forkpool.processes(100) == cpus
