"""CLI contract under drawn configurations.

Every run through ``cli.main`` exits 0, 1 or 2: 1 with an ``error``
diagnostic and no output directory, 2 with a ``failure_manifest.json`` that
names the error, 0 with a ``manifest.json``, and never with a traceback.
Values are drawn in and out of range on grids of at most 8x8 with at most
two optimizer iterations, so the whole file runs in seconds.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lramkit import cli, pipeline  # noqa: E402

# section -> key -> (plausible values, values validate must reject); a
# plausible value may still fail inside a stage, which is exit 2
_VALUES = {
    "grid": {
        "nx": (["4", "5", "8"], ["3", "1", "0"]),
        "ny": (["4", "6", "8"], ["2", "-2"]),
        "cell_size": (["0.01", "0.02"], ["0", "-0.01", "nan", "big"]),
    },
    "materials": {
        "frame": (["epoxy", "steel"], ["unobtainium"]),
        "soft_density_scale": (["1e-10", "0", "1"], ["-1"]),
        "interpolation_exponent": (["2", "1"], ["0", "-1"]),
    },
    "optimize": {
        "target_f_hz": (["1000", "3000", "150"], ["50", "0", "-10"]),
        "alpha": (["0", "0.5", "1"], ["1.5", "-0.5"]),
        "dt": (["1e-3", "1"], ["0", "-1e-3"]),
        "c1": (["auto", "1", "0", "-1"], ["fast"]),
        "max_iters": (["0", "1", "2"], ["two"]),
        "stop_tol": (["1e-7", "0", "1", "-1"], ["inf"]),
        "delta_tol": (["1e-3", "0", "0.5"], ["1", "2", "-0.1"]),
        "frame_fraction": (["0.05", "0.2", "0.25"], ["0", "0.5", "-0.1"]),
        "snapshot_every": (["1", "2"], ["0", "-1"]),
    },
    "analysis": {
        "viscosities": (["0, 10", "0", "5", "0, 0"], ["", "-1"]),
        "f_min_hz": (["5", "100"], ["0", "-5", "4000"]),
        "f_max_hz": (["3000", "200"], ["5", "0"]),
        "samples": (["1", "2", "3"], ["0"]),
        "band_top_hz": (["6000", "100"], ["nan", "0", "-1"]),
        "panel_cells": (["1", "2"], ["0"]),
        "macro_nx": (["2", "3"], ["1"]),
        "kappa_samples": (["1", "2"], ["0"]),
        "bloch_branches": (["1", "3"], ["0", "1000"]),
    },
    "output": {
        "stages": (["optimize", "optimize, homogenize", "transmission",
                    "homogenize, dispersion, transmission"],
                   ["optimize, dispersion", "bogus", ""]),
    },
}
_KEYS = [key for keys in _VALUES.values() for key in keys]
# stand-ins for keys the draw leaves out whose defaults are slow (60x60 grid,
# 1000 iterations, 600 samples, 9 wavenumbers)
_SMALL = {"nx": "6", "ny": "6", "max_iters": "2", "samples": "3", "kappa_samples": "2",
          "bloch_branches": "3"}
_VERBS = ["validate", "optimize", "homogenize", "dispersion", "transmission", "pipeline"]
# (name, K, G) of the built-in phases, for drawn material cards
_PHASES = (("epoxy", 5.49e9, 1.59e9), ("steel", 1.72e11, 7.96e10),
           ("silicone_rubber", 0.63e6, 0.04e6))


@st.composite
def _runs(draw):
    """(verb, config text, level-set choice, card densities): plausible
    values for every key but at most one, which gets a value that validate
    must reject, and the built-in materials or a card of drawn densities."""
    bad = draw(st.lists(st.sampled_from(_KEYS), max_size=1))
    lines = []
    for section, keys in _VALUES.items():
        lines.append(f"[{section}]")
        for key, (good, wrong) in keys.items():
            if key in bad:
                value = draw(st.sampled_from(wrong))
            else:
                value = draw(st.none() | st.sampled_from(good)) or _SMALL.get(key)
            if value is not None:
                lines.append(f"{key} = {value}")
    phi = draw(st.sampled_from(["design", "design", None, "wrong_shape", "non_finite",
                                "missing"]))
    rhos = draw(st.none() | st.tuples(*[st.sampled_from(["1180", "7780", "0", "-1"])] * 3))
    return draw(st.sampled_from(_VERBS)), "\n".join(lines) + "\n", phi, rhos


def _level_set(tmp: Path, kind: str, text: str) -> Path:
    """A level-set file for the drawn grid (or one of the wrong shape, or one
    with a nan node)."""
    path = tmp / "phi.txt"
    if kind == "missing":
        return path
    grid = dict(line.split(" = ") for line in text.splitlines() if " = " in line)
    nx = ny = 2
    if kind in ("design", "non_finite"):
        nx, ny = (max(int(grid[k]), 1) for k in ("nx", "ny"))
    xs = np.linspace(-1.0, 1.0, nx + 1)
    ys = np.linspace(-1.0, 1.0, ny + 1)
    xg, yg = np.meshgrid(xs, ys)
    phi = np.where(np.hypot(xg, yg) <= 0.6, 1.0, -1.0)
    if kind == "non_finite":
        phi[ny // 2, nx // 2] = np.nan
    pipeline.write_phi(phi, path)
    return path


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(_runs())
def test_cli_contract(run):
    verb, text, phi, rhos = run
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(scratch)
        out = tmp / "out"
        if phi is not None:
            text += f"level_set_file = {_level_set(tmp, phi, text)}\n"
        if rhos is not None:
            (tmp / "cells.card").write_text("".join(
                f"[{name}]\nrho = {rho}\nK = {K}\nG = {G}\n"
                for (name, K, G), rho in zip(_PHASES, rhos)))
            text = text.replace("[materials]\n", "[materials]\ncard = cells.card\n")
        cfg = tmp / "run.cfg"
        cfg.write_text(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([verb, "--config", str(cfg), "--out", str(out)])
        printed = stdout.getvalue() + stderr.getvalue()

        assert code in (0, 1, 2), printed
        assert "Traceback" not in printed
        if code == 1:
            assert any(line.startswith("error") for line in printed.splitlines()), printed
            assert not out.exists()
        elif verb == "validate":
            assert not any(line.startswith("error") for line in printed.splitlines())
        elif code == 2:
            manifest = json.loads((out / "failure_manifest.json").read_text())
            assert manifest["error"]
        else:
            assert (out / "manifest.json").is_file()
