import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lramkit import rve, topopt
from lramkit.grid import build_grid
from lramkit.materials import builtin_materials


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped (running or exited)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)   # reaps an exited child, if any
    except ChildProcessError:   # no child at all
        return
    pytest.fail(f"test left child process {pid or '(still running)'} unreaped")


@pytest.fixture(scope="session")
def materials():
    return builtin_materials()


@pytest.fixture(scope="session")
def epoxy(materials):
    return materials["epoxy"]


@pytest.fixture(scope="session")
def steel(materials):
    return materials["steel"]


@pytest.fixture(scope="session")
def rubber(materials):
    return materials["silicone_rubber"]


@pytest.fixture
def steel_disk(epoxy, steel, rubber):
    """(layout, phases, chi, settings) of the optimizer on a 3 mm steel disk at 20x20."""
    g = build_grid(20, 20, 0.01)
    layout = rve.build_layout(g, 0.05)
    xy = g.coords - g.centroid
    chi = rve.chi_at_gauss(layout, 0.003 - np.hypot(xy[:, 0], xy[:, 1]))
    return (layout, rve.scaled_phases(epoxy, steel, rubber), chi,
            topopt.OptimizerSettings(target_f_hz=1000.0, alpha=0.5))
