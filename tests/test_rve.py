import numpy as np
import pytest

from lramkit import rve
from lramkit.grid import build_grid


@pytest.fixture(scope="module")
def layout60():
    return rve.build_layout(build_grid(60, 60, 0.01))


class TestLayout:
    def test_frame_is_19_percent(self, layout60):
        assert layout60.frame_volume_fraction == pytest.approx(0.19)

    def test_frame_fraction_at_coarse_grid(self):
        layout = rve.build_layout(build_grid(20, 20, 0.01))
        assert layout.frame_volume_fraction == pytest.approx(0.19)

    def test_design_nodes_inside_only(self, layout60):
        g = layout60.grid
        boundary = set(g.left) | set(g.right) | set(g.top) | set(g.bottom)
        assert not (layout60.design_nodes[list(boundary)]).any()

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            rve.build_layout(build_grid(3, 3, 0.01))

    def test_bad_fraction_rejected(self):
        g = build_grid(20, 20, 0.01)
        with pytest.raises(ValueError):
            rve.build_layout(g, frame_fraction=0.6)


class TestChi:
    def test_heaviside_binary(self, layout60):
        rng = np.random.default_rng(2)
        phi = rng.standard_normal(layout60.grid.nnode)
        chi = rve.chi_at_gauss(layout60, phi)
        assert set(np.unique(chi)) <= {0.0, 1.0}

    def test_frame_always_dense(self, layout60):
        phi = np.full(layout60.grid.nnode, -1.0)
        chi = rve.chi_at_gauss(layout60, phi)
        assert np.all(chi[~layout60.design_elements] == 1.0)
        assert np.all(chi[layout60.design_elements] == 0.0)

    def test_positive_phi_fills_domain(self, layout60):
        chi = rve.chi_at_gauss(layout60, np.ones(layout60.grid.nnode))
        assert np.all(chi == 1.0)


class TestFields:
    def test_endpoint_properties(self, layout60, epoxy, steel, rubber):
        phases = rve.PhaseSet(frame=epoxy, dense=steel, soft=rubber.with_viscosity(10.0))
        phi = np.full(layout60.grid.nnode, -1.0)   # all soft inside
        chi = rve.chi_at_gauss(layout60, phi)
        fields = rve.material_fields(layout60, chi, phases)
        for phase, elements in ((epoxy, ~layout60.design_elements),
                                (rubber.with_viscosity(10.0), layout60.design_elements)):
            for name in ("rho", "K", "G", "mu_visc"):
                np.testing.assert_array_equal(getattr(fields, name)[elements],
                                              getattr(phase, name))

    def test_scaled_phases(self, epoxy, steel, rubber):
        phases = rve.scaled_phases(epoxy, steel, rubber, soft_density_scale=1e-10)
        assert phases.frame == epoxy
        assert phases.soft.rho == pytest.approx(1300.0 * 1e-10)
        assert phases.soft.K == pytest.approx(0.63e6)
        assert phases.dense.K == pytest.approx(1.72e11)

    def test_volume_fractions_sum(self, layout60):
        rng = np.random.default_rng(8)
        phi = rng.standard_normal(layout60.grid.nnode)
        chi = rve.chi_at_gauss(layout60, phi)
        frame, dense, soft = rve.volume_fractions(layout60, chi)
        assert frame + dense + soft == pytest.approx(1.0)
        assert frame == pytest.approx(0.19)
