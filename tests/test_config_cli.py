import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg

import lramkit
from lramkit import cli, dispersion, homogenize, modal, pipeline
from lramkit.config import (
    Diagnostic,
    load_config,
    load_materials,
    parse_config,
    parse_material_card,
    validate,
)
from lramkit.errors import ConfigError, SolverFailureError
from lramkit.grid import build_grid
from lramkit.materials import uniform_fields


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.nx == 60 and cfg.ny == 60
        assert cfg.cell_size == 0.01
        assert cfg.target_f_hz == 1000.0
        assert cfg.alpha == 0.5
        assert cfg.dt == 1e-3
        assert cfg.viscosities == (0.0, 10.0)
        assert cfg.stages == ("optimize", "homogenize", "dispersion", "transmission")

    def test_overrides(self):
        text = """
[grid]
nx = 20
ny = 24
cell_size = 0.02

[optimize]
target_f_hz = 800
alpha = 1.0
c1 = 2.5

[analysis]
viscosities = 0, 1, 10
samples = 100

[output]
dir = /tmp/somewhere
stages = optimize, homogenize
"""
        cfg = parse_config(text)
        assert (cfg.nx, cfg.ny, cfg.cell_size) == (20, 24, 0.02)
        assert cfg.target_f_hz == 800.0 and cfg.alpha == 1.0
        assert cfg.c1 == 2.5
        assert cfg.viscosities == (0.0, 1.0, 10.0)
        assert cfg.samples == 100
        assert cfg.out_dir == "/tmp/somewhere"
        assert cfg.stages == ("optimize", "homogenize")

    def test_c1_auto(self):
        cfg = parse_config("[optimize]\nc1 = auto\n")
        assert cfg.c1 is None

    def test_unknown_key_has_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[grid]\nnx = 10\nbogus = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nonsense]\nx = 1\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("nx = 10\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[grid]\nnx 10\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[grid]\nnx = banana\n")

    @pytest.mark.parametrize("section, key, value", [
        ("grid", "cell_size", "nan"),
        ("optimize", "target_f_hz", "nan"),
        ("optimize", "alpha", "-inf"),
        ("optimize", "dt", "inf"),
        ("optimize", "stop_tol", "nan"),
        ("optimize", "c1", "inf"),
        ("analysis", "viscosities", "0, nan"),
        ("analysis", "band_top_hz", "inf"),
    ])
    def test_non_finite_number_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match="line 3.*finite"):
            parse_config(f"[{section}]\n\n{key} = {value}\n")

    def test_comments_ignored(self):
        cfg = parse_config("# header\n[grid]\nnx = 12  # trailing\n")
        assert cfg.nx == 12

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")


class TestMaterialCard:
    CARD = """
[epoxy]
rho = 1180
K = 5.49e9
G = 1.59e9

[heavy]
rho = 9000
K = 1e11
G = 5e10
mu = 2.5
"""

    def test_parse(self):
        phases = parse_material_card(self.CARD)
        assert phases["epoxy"].rho == 1180.0
        assert phases["heavy"].mu_visc == 2.5

    def test_missing_field(self):
        with pytest.raises(ConfigError, match="missing field"):
            parse_material_card("[x]\nrho = 1\nK = 2\n")

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown material field"):
            parse_material_card("[x]\nrho = 1\nK = 2\nG = 3\nnu = 0.3\n")

    def test_card_loaded_from_config_dir(self, tmp_path):
        card = tmp_path / "mats.card"
        card.write_text(self.CARD)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[materials]\ncard = mats.card\n")
        cfg = load_config(cfg_file)
        registry = load_materials(cfg)
        assert "heavy" in registry

    def test_missing_card_error_names_path(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[materials]\ncard = gone.card\n")
        cfg = load_config(cfg_file)
        with pytest.raises(ConfigError, match="gone.card"):
            load_materials(cfg)

    @pytest.mark.parametrize("field, value", [
        ("rho", "-1"), ("K", "0"), ("G", "-3"), ("mu", "-0.5")])
    def test_invalid_phase_values_name_the_section(self, field, value):
        fields = {"rho": "9000", "K": "1e11", "G": "5e10", "mu": "2.5", field: value}
        card = "[heavy]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())
        with pytest.raises(ConfigError, match=r"material \[heavy\]"):
            parse_material_card(card)

    @pytest.mark.parametrize("which", ["config", "card"])
    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_file_names_path(self, tmp_path, capsys, which, kind):
        cfg_file, card = tmp_path / "run.cfg", tmp_path / "mats.card"
        bad = cfg_file if which == "config" else card
        if which == "card":
            cfg_file.write_text("[materials]\ncard = mats.card\n")
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"[x]\nrho = 1\xff\n")
        with pytest.raises(ConfigError, match=bad.name):
            load_materials(load_config(cfg_file))
        assert cli.main(["validate", "--config", str(cfg_file)]) == 1
        captured = capsys.readouterr()
        assert "error" in captured.out + captured.err
        assert bad.name in captured.out + captured.err
        assert "Traceback" not in captured.out + captured.err


class TestValidate:
    def _errors(self, cfg):
        return [d for d in validate(cfg) if d.severity == "error"]

    def test_clean_default_config(self):
        cfg = parse_config("")
        assert not self._errors(cfg)

    def test_alpha_out_of_range(self):
        cfg = parse_config("[optimize]\nalpha = 1.5\n")
        assert any("alpha" in d.message for d in self._errors(cfg))

    def test_low_target_warns_about_limit(self, tmp_path):
        """An error when the optimizer would raise on it, a warning when
        the design comes from a level-set file."""
        cfg = parse_config("[optimize]\ntarget_f_hz = 50\n")
        assert any("149" in d.message for d in self._errors(cfg))
        phi = tmp_path / "phi.txt"
        _write_phi_design(phi, nx=60, ny=60)   # the default grid
        cfg = parse_config(f"[optimize]\ntarget_f_hz = 50\n[output]\n"
                           f"stages = homogenize\nlevel_set_file = {phi}\n")
        assert not self._errors(cfg)
        warns = [d for d in validate(cfg) if d.severity == "warning"]
        assert any("149" in d.message for d in warns)

    @pytest.mark.parametrize("value", ["0", "-7000"])
    def test_nonpositive_mode_ceiling_rejected(self, value):
        # the inertia shift (2 pi f)^2 would count the modes below |f|
        cfg = parse_config(f"[analysis]\nband_top_hz = {value}\n")
        assert any("band_top_hz" in d.message for d in self._errors(cfg))

    def test_bloch_branches_above_pencil_size_rejected(self):
        # a 4x4 periodic cell has 16 nodes, so its Bloch pencil has 32 dofs
        cfg = parse_config("[grid]\nnx = 4\nny = 4\n[analysis]\nbloch_branches = 33\n")
        assert any("bloch_branches" in d.message and "32" in d.message
                   for d in self._errors(cfg))
        cfg.stages = ("optimize",)   # no Bloch pencil is solved
        assert not self._errors(cfg)

    def test_bloch_branches_at_pencil_size_accepted(self, epoxy):
        cfg = parse_config("[grid]\nnx = 4\nny = 4\n[analysis]\nbloch_branches = 32\n")
        assert not self._errors(cfg)
        g = build_grid(4, 4, 0.01)
        res = dispersion.bloch_oracle(g, uniform_fields(g, epoxy), np.array([0.0]),
                                      n_branches=32)
        assert res.frequencies_hz.shape == (1, 32)

    def test_empty_frequency_sweep_rejected(self):
        cfg = parse_config("[analysis]\nsamples = 0\n")
        assert self._errors(cfg)

    def test_missing_card_is_an_error(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[materials]\ncard = void.card\n")
        cfg = load_config(cfg_file)
        msgs = [d.message for d in self._errors(cfg)]
        assert any("void.card" in m for m in msgs)

    def test_non_contiguous_stages_rejected(self):
        cfg = parse_config("[output]\nstages = optimize, dispersion\n")
        assert any("contiguous" in d.message for d in self._errors(cfg))

    def test_stage_skip_needs_level_set(self):
        cfg = parse_config("[output]\nstages = homogenize\n")
        assert any("level_set_file" in d.message for d in self._errors(cfg))

    def test_stage_skip_with_level_set_ok(self, tmp_path):
        phi = tmp_path / "phi.txt"
        _write_phi_design(phi, nx=60, ny=60)   # the default grid
        cfg = parse_config(f"[output]\nstages = homogenize\nlevel_set_file = {phi}\n")
        assert not self._errors(cfg)

    @pytest.mark.parametrize("text", [
        "[analysis]\nkappa_samples = 0\n",
        "[analysis]\nbloch_branches = 0\n",
        "[analysis]\nmacro_nx = 1\n",
        "[analysis]\npanel_cells = 0\n",
        "[optimize]\nsnapshot_every = 0\n",
        "[grid]\nnx = 3\nny = 3\n",
        "[materials]\ninterpolation_exponent = -1\n",
        "[output]\nstages = homogenize\nlevel_set_file = {tmp}/missing_phi.txt\n",
        "[output]\nstages = homogenize\nlevel_set_file = {tmp}/phi_2x2.txt\n",
        "[output]\nstages =\n",
        "[materials]\nsoft_density_scale = -1e-10\n",
        "[optimize]\ndelta_tol = 1\n",
        "[optimize]\ndelta_tol = -0.001\n",
        "[optimize]\ntarget_f_hz = 149\n",
        "[materials]\ncard = {tmp}/massless.card\nframe = m\ndense = m\nsoft = m\n",
    ])
    def test_configs_that_would_crash_are_rejected(self, tmp_path, text):
        (tmp_path / "phi_2x2.txt").write_text("1 1\n1 1\n")   # wrong shape
        (tmp_path / "massless.card").write_text("[m]\nrho = 0\nK = 1e9\nG = 1e9\n")
        cfg = parse_config(text.format(tmp=tmp_path))
        assert self._errors(cfg)
        cfg.out_dir = str(tmp_path / "never")
        result = pipeline.run(cfg, log=lambda *_: None)
        assert result.exit_code == 1
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("output", "deterministic", "yes"),
        ("optimize", "stagnation_window", "80"),
        ("analysis", "modes", "24"),
        ("analysis", "macro_ny", "4"),
        ("materials", "frame_stiffness_scale", "1e6"),
    ], ids=["deterministic", "stagnation_window", "modes", "macro_ny",
            "frame_stiffness_scale"])
    def test_retired_deterministic_key_still_parses(self, tmp_path, section, key, value):
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text(f"[{section}]\n{key} = {value}\n")
        cfg = load_config(cfg_file)
        assert not self._errors(cfg)
        assert not hasattr(cfg, key)

    def test_diagnostic_str(self):
        d = Diagnostic("error", "boom", line=4)
        assert "line 4" in str(d) and "boom" in str(d)


def _write_phi_design(path, nx=12, ny=12):
    """Centered-square inclusion level set for stage-gated runs."""
    xs = np.linspace(-1.0, 1.0, nx + 1)
    ys = np.linspace(-1.0, 1.0, ny + 1)
    xg, yg = np.meshgrid(xs, ys)
    phi = np.where(np.maximum(np.abs(xg), np.abs(yg)) <= 0.55, 1.0, -1.0)
    pipeline.write_phi(phi, path)


def _gated_config(tmp_path, out_name="out", extra=""):
    phi = tmp_path / "phi.txt"
    _write_phi_design(phi)
    text = f"""
[grid]
nx = 12
ny = 12
cell_size = 0.01

[optimize]
frame_fraction = 0.084

[analysis]
viscosities = 0, 10
samples = 25
kappa_samples = 3
bloch_branches = 3

[output]
dir = {tmp_path / out_name}
stages = homogenize, dispersion, transmission
level_set_file = {phi}
{extra}
"""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text)
    return cfg_file


class TestPipelineRun:
    def test_stage_gated_run_produces_artifacts(self, tmp_path):
        cfg = load_config(_gated_config(tmp_path))
        result = pipeline.run(cfg, log=lambda *_: None)
        assert result.exit_code == 0
        names = {p.name for p in result.artifacts}
        assert "effective_material_mu0.txt" in names
        assert "effective_material_mu10.txt" in names
        assert "dispersion_effective_mu0.csv" in names
        assert "dispersion_bloch.csv" in names
        assert "tl_mu10.csv" in names
        assert "tl_bands_mu0.txt" in names
        assert not any(n.startswith("phi_iter") for n in names)  # optimize skipped

    def test_manifest_lists_every_artifact_with_hash(self, tmp_path):
        cfg = load_config(_gated_config(tmp_path))
        result = pipeline.run(cfg, log=lambda *_: None)
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        listed = {f["path"]: f["sha256"] for f in manifest["files"]}
        assert set(listed) == {p.name for p in result.artifacts}
        for p in result.artifacts:
            assert hashlib.sha256(p.read_bytes()).hexdigest() == listed[p.name]
        assert manifest["config_echo"] == cfg.raw_text

    def test_reruns_bit_identical(self, tmp_path):
        cfg1 = load_config(_gated_config(tmp_path, out_name="out_a"))
        cfg2 = load_config(_gated_config(tmp_path, out_name="out_b"))
        r1 = pipeline.run(cfg1, log=lambda *_: None)
        r2 = pipeline.run(cfg2, log=lambda *_: None)
        for p1 in r1.artifacts:
            p2 = r2.out_dir / p1.name
            assert p1.read_bytes() == p2.read_bytes(), p1.name

    def test_validation_error_blocks_run(self, tmp_path):
        cfg = parse_config("[optimize]\nalpha = 2.0\n")
        cfg.out_dir = str(tmp_path / "never")
        result = pipeline.run(cfg, log=lambda *_: None)
        assert result.exit_code == 1
        assert "alpha must lie in [0, 1], got 2.0" in result.error
        assert not (tmp_path / "never").exists()

    def test_numerical_failure_writes_failure_manifest(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverFailureError("synthetic failure")

        monkeypatch.setattr(homogenize, "effective_material", boom)
        cfg = load_config(_gated_config(tmp_path))
        result = pipeline.run(cfg, log=lambda *_: None)
        assert result.exit_code == 2
        manifest = json.loads((result.out_dir / "failure_manifest.json").read_text())
        assert "synthetic failure" in manifest["error"]
        assert result.error == manifest["error"] == "SolverFailureError: synthetic failure"

    def test_any_stage_exception_exits_two(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic singular matrix")

        monkeypatch.setattr(dispersion, "bloch_oracle", boom)
        cfg_file = _gated_config(tmp_path, out_name="cli_out")
        assert cli.main(["pipeline", "--config", str(cfg_file)]) == 2
        out = tmp_path / "cli_out"
        manifest = json.loads((out / "failure_manifest.json").read_text())
        assert manifest["error"] == "LinAlgError: synthetic singular matrix"
        assert "deterministic" not in manifest
        assert "in boom" in manifest["traceback"]   # recorded, not printed
        assert not (out / "manifest.json").exists()
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "stage failed: LinAlgError" in captured.out

    def test_failed_bloch_cholesky_exits_two(self, tmp_path, monkeypatch, capsys):
        def not_definite(*args, **kwargs):
            raise linalg.LinAlgError("synthetic: not positive definite")

        monkeypatch.setattr(linalg, "cho_factor", not_definite)
        cfg_file = _gated_config(tmp_path, out_name="cli_out")
        assert cli.main(["pipeline", "--config", str(cfg_file)]) == 2
        manifest = json.loads((tmp_path / "cli_out" / "failure_manifest.json").read_text())
        assert manifest["error"].startswith("SolverFailureError: Bloch Schur complement "
                                            "at kappa = 0 rad/m")
        assert "Traceback" not in capsys.readouterr().out

    def test_failed_band_cholesky_exits_two(self, tmp_path, monkeypatch, capsys):
        def not_definite(*args, **kwargs):
            raise linalg.LinAlgError("synthetic: not positive definite")

        monkeypatch.setattr(linalg, "cholesky_banded", not_definite)
        cfg_file = _gated_config(tmp_path, out_name="cli_out")
        assert cli.main(["optimize", "--config", str(cfg_file)]) == 2
        manifest = json.loads((tmp_path / "cli_out" / "failure_manifest.json").read_text())
        assert manifest["error"] == ("SolverFailureError: band factorization failed: "
                                     "synthetic: not positive definite")
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err

    def test_bloch_residual_logged(self, tmp_path):
        lines = []
        cfg = load_config(_gated_config(tmp_path))
        assert pipeline.run(cfg, log=lines.append).exit_code == 0
        (line,) = [ln for ln in lines if ln.startswith("Bloch oracle:")]
        worst = float(line.split("residual ")[1].split()[0])
        assert 0.0 < worst <= 1e-8
        assert line.endswith("over 3 wavenumbers")

    def test_optimizer_counts_logged(self, tmp_path):
        lines = []
        cfg = load_config(_gated_config(tmp_path))
        cfg.stages = ("optimize",)
        cfg.alpha, cfg.max_iters = 1.0, 2
        assert pipeline.run(cfg, log=lines.append).exit_code == 0
        (line,) = [ln for ln in lines if ln.startswith("optimizer:")]
        analyses, solves = (int(line.split(word)[0].split()[-1])
                            for word in (" design analyses", " free-pencil solves"))
        assert 1 <= solves < analyses
        worst = float(line.split("residual ")[1])
        assert 0.0 < worst <= 1e-8

    def test_ceiling_below_first_resonance_keeps_no_mode(self, tmp_path, monkeypatch):
        cfg = load_config(_gated_config(tmp_path))
        cfg.band_top_hz = 1.0    # below every resonance of the cell
        cfg.stages = ("homogenize",)
        solves = []
        solve_smallest = modal.solve_smallest

        def recording(*args, **kwargs):
            solves.append(args[2])
            return solve_smallest(*args, **kwargs)

        monkeypatch.setattr(modal, "solve_smallest", recording)
        result = pipeline.run(cfg, log=lambda *_: None)
        assert result.exit_code == 0
        assert solves == []
        for mu in ("0", "10"):
            report = (result.out_dir / f"effective_material_mu{mu}.txt").read_text()
            assert "n_modes_kept = 0\n" in report
            assert "mode_0 = " not in report

    def test_read_phi_shape_check(self, tmp_path):
        p = tmp_path / "phi.txt"
        _write_phi_design(p, nx=8, ny=8)
        with pytest.raises(ConfigError, match="shape"):
            pipeline.read_phi(p, 12, 12)

    @pytest.mark.parametrize("bad", ["one_nan", "all_inf"])
    def test_read_phi_rejects_non_finite(self, tmp_path, bad):
        """A nan node would read as coating (nan >= 0 is false) and an
        all-inf file as a fully dense cell; both are errors naming the file."""
        p = tmp_path / "phi.txt"
        _write_phi_design(p, nx=4, ny=4)
        phi = np.loadtxt(p)
        if bad == "one_nan":
            phi[2, 2] = np.nan
        else:
            phi[:] = np.inf
        np.savetxt(p, phi)
        with pytest.raises(ConfigError, match="phi.txt.*non-finite"):
            pipeline.read_phi(p, 4, 4)
        cfg = parse_config(f"[grid]\nnx = 4\nny = 4\n[output]\nstages = homogenize\n"
                           f"level_set_file = {p}\ndir = {tmp_path / 'out'}\n")
        assert any("non-finite" in d.message for d in validate(cfg)
                   if d.severity == "error")
        assert pipeline.run(cfg, log=lambda *_: None).exit_code == 1


class TestCLI:
    def test_import_leaves_out_scipy_optimize(self):
        # scipy.optimize pulls in linprog, scipy.fft and numpy.f2py, which
        # every CLI start would pay for; only bandgap_edges uses it
        src = str(Path(lramkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
        code = "import sys, lramkit.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_validate_verb_ok(self, tmp_path, capsys):
        cfg_file = _gated_config(tmp_path)
        assert cli.main(["validate", "--config", str(cfg_file)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_validate_verb_error_exit(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("[optimize]\nalpha = 7\n")
        assert cli.main(["validate", "--config", str(cfg_file)]) == 1

    @pytest.mark.parametrize("verb", ["validate", "optimize"])
    def test_snapshot_flag_below_one_rejected(self, tmp_path, verb):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[grid]\nnx = 8\nny = 8\n")
        code = cli.main([verb, "--config", str(cfg_file), "--snapshot-every", "-3",
                         "--out", str(tmp_path / "never")])
        assert code == 1
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("stages, message", [
        ("", "stages must name at least one"),
        ("optimize, bogus", "unknown stages ['bogus']"),
    ], ids=["empty", "unknown_last"])
    @pytest.mark.parametrize("verb", ["validate", "pipeline"])
    def test_bad_stage_list_rejected(self, tmp_path, capsys, verb, stages, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"[output]\ndir = {tmp_path / 'never'}\nstages = {stages}\n")
        assert cli.main([verb, "--config", str(cfg_file)]) == 1
        captured = capsys.readouterr()
        assert "error: " + message in captured.out
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "never").exists()

    def test_missing_config_exit_one(self, tmp_path, capsys):
        assert cli.main(["validate", "--config", str(tmp_path / "gone.cfg")]) == 1

    def test_homogenize_verb_stage_gated(self, tmp_path):
        cfg_file = _gated_config(tmp_path, out_name="cli_out")
        code = cli.main(["homogenize", "--config", str(cfg_file)])
        assert code == 0
        out = tmp_path / "cli_out"
        assert (out / "effective_material_mu0.txt").exists()
        assert not (out / "tl_mu0.csv").exists()       # later stages not run

    def test_out_override(self, tmp_path):
        cfg_file = _gated_config(tmp_path)
        target = tmp_path / "elsewhere"
        code = cli.main(["homogenize", "--config", str(cfg_file),
                         "--out", str(target)])
        assert code == 0
        assert (target / "effective_material_mu0.txt").exists()

    @pytest.mark.parametrize("where", ["file", "under_file"])
    def test_uncreatable_out_dir_exits_one(self, tmp_path, capsys, where):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        target = blocker if where == "file" else blocker / "sub"
        cfg_file = _gated_config(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["homogenize", "--config", str(cfg_file), "--out", str(target)]) == 1
        captured = capsys.readouterr()
        errors = [line for line in captured.out.splitlines() if line.startswith("error")]
        assert len(errors) == 1 and str(target) in errors[0]
        assert "Traceback" not in captured.out + captured.err
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "not a directory\n"
