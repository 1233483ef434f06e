import numpy as np
import pytest

from lramkit import blas, rve, topopt
from lramkit.grid import build_grid


class _FakeSetter:
    """Stands in for one library's openblas_set_num_threads_local."""

    def __init__(self, count):
        self.count = count

    def __call__(self, count):
        previous, self.count = self.count, count
        return previous


def _counts(setters):
    """Current thread count of each library (read by setting it back)."""
    out = []
    for fn in setters:
        count = fn(1)
        fn(count)
        out.append(count)
    return out


class TestSingleThreaded:
    def test_restores_previous_counts_on_exception(self, monkeypatch):
        libs = [_FakeSetter(2), _FakeSetter(4)]
        monkeypatch.setattr(blas, "_thread_setters", lambda: libs)
        with pytest.raises(RuntimeError, match="boom"):
            with blas.single_threaded():
                assert [lib.count for lib in libs] == [1, 1]
                raise RuntimeError("boom")
        assert [lib.count for lib in libs] == [2, 4]

    def test_decorated_call_restores(self, monkeypatch):
        libs = [_FakeSetter(3)]
        monkeypatch.setattr(blas, "_thread_setters", lambda: libs)

        @blas.single_threaded()
        def inside():
            return libs[0].count

        assert inside() == 1
        assert inside() == 1
        assert libs[0].count == 3

    def test_no_openblas_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(blas, "_thread_setters", lambda: [])
        with blas.single_threaded():
            value = float(np.ones(4) @ np.ones(4))
        assert value == 4.0

    def test_finder_sees_nothing_off_linux(self, monkeypatch):
        monkeypatch.setattr(blas.sys, "platform", "darwin")
        assert blas._thread_setters() == []

    def test_loaded_libraries_limited_and_restored(self):
        setters = blas._thread_setters()
        if not setters:
            pytest.skip("no loaded OpenBLAS exports openblas_set_num_threads_local")
        before = _counts(setters)
        with blas.single_threaded():
            assert _counts(setters) == [1] * len(setters)
        assert _counts(setters) == before

    def test_design_analysis_unchanged(self, epoxy, steel, rubber):
        g = build_grid(20, 20, 0.01)
        layout = rve.build_layout(g, 0.05)
        phases = rve.scaled_phases(epoxy, steel, rubber)
        xy = g.coords - g.centroid
        chi = rve.chi_at_gauss(layout, 0.003 - np.hypot(xy[:, 0], xy[:, 1]))
        st = topopt.OptimizerSettings(target_f_hz=1000.0, alpha=0.5)
        ops = topopt.constraint_map(layout)
        outside = topopt.analyze_design(layout, chi, phases, st, ops)
        with blas.single_threaded():
            inside = topopt.analyze_design(layout, chi, phases, st, ops)
        assert inside.cost == outside.cost
        np.testing.assert_array_equal(inside.mode_star, outside.mode_star)
        np.testing.assert_array_equal(inside.mode_free, outside.mode_free)
