import hashlib
import json

import numpy as np
import pytest

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
        ("materials", "frame_stiffness_scale", "inf"),
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


class TestValidate:
    def _errors(self, cfg):
        return [d for d in validate(cfg) if d.severity == "error"]

    def test_clean_default_config(self):
        cfg = parse_config("")
        assert not self._errors(cfg)

    def test_alpha_out_of_range(self):
        cfg = parse_config("[optimize]\nalpha = 1.5\n")
        assert any("alpha" in d.message for d in self._errors(cfg))

    def test_low_target_warns_about_limit(self):
        cfg = parse_config("[optimize]\ntarget_f_hz = 50\n")
        warns = [d for d in validate(cfg) if d.severity == "warning"]
        assert any("149" in d.message for d in warns)

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
        "[analysis]\nmodes = 0\n",
        "[analysis]\nbloch_branches = 0\n",
        "[analysis]\nmacro_nx = 1\n",
        "[analysis]\npanel_cells = 0\n",
        "[optimize]\nsnapshot_every = 0\n",
        "[grid]\nnx = 3\nny = 3\n",
        "[materials]\ninterpolation_exponent = -1\n",
        "[output]\nstages = homogenize\nlevel_set_file = {tmp}/missing_phi.txt\n",
        "[output]\nstages = homogenize\nlevel_set_file = {tmp}/phi_2x2.txt\n",
        "[output]\nstages =\n",
    ])
    def test_configs_that_would_crash_are_rejected(self, tmp_path, text):
        (tmp_path / "phi_2x2.txt").write_text("1 1\n1 1\n")   # wrong shape
        cfg = parse_config(text.format(tmp=tmp_path))
        assert self._errors(cfg)
        cfg.out_dir = str(tmp_path / "never")
        result = pipeline.run(cfg, log=lambda *_: None)
        assert result.exit_code == 1
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("output", "deterministic", "yes"),
        ("optimize", "stagnation_window", "80"),
    ], ids=["deterministic", "stagnation_window"])
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

    def test_uncovered_mode_ceiling_is_logged(self, tmp_path, monkeypatch):
        monkeypatch.setattr(modal, "_COUNT_CAP", 4)
        cfg = load_config(_gated_config(tmp_path))
        cfg.modes = 2
        cfg.band_top_hz = 1e6    # far above the 4 modes the cap allows
        cfg.stages = ("homogenize",)
        lines = []
        result = pipeline.run(cfg, log=lines.append)
        assert result.exit_code == 0
        assert any("mode ceiling" in line for line in lines)

    def test_read_phi_shape_check(self, tmp_path):
        p = tmp_path / "phi.txt"
        _write_phi_design(p, nx=8, ny=8)
        with pytest.raises(ConfigError, match="shape"):
            pipeline.read_phi(p, 12, 12)


class TestCLI:
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
