"""Pipeline orchestration: optimize, homogenize, dispersion, transmission.

Each stage writes its artifacts into the output directory; a manifest
records the configuration echo, library versions, wall time and a content
hash for every emitted file. Reruns with the same configuration produce
byte-identical data files.
"""
from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__, dispersion, homogenize, rve, topopt
from . import panel as panel_mod
from .config import PipelineConfig, load_materials, read_phi, validate
from .errors import ConfigError
from .grid import build_grid
from .topopt import HistoryRow


def write_history_csv(history, path) -> None:
    with open(path, "w") as fh:
        fh.write("iter,Pi,f,g,lambda_star1,lambda1,vol_frac_dense,vol_frac_soft\n")
        for r in history:
            fh.write(f"{r.iteration},{r.Pi:.12g},{r.f:.12g},{r.g:.12g},"
                     f"{r.lambda_star1:.12g},{r.lambda1:.12g},"
                     f"{r.vol_frac_dense:.12g},{r.vol_frac_soft:.12g}\n")


def write_phi(phi_grid: np.ndarray, path) -> None:
    """Row-major plain-text level-set snapshot, one grid row per line."""
    with open(path, "w") as fh:
        for row in phi_grid:
            fh.write(" ".join(f"{v:.12g}" for v in row) + "\n")


def _mu_tag(mu: float) -> str:
    return f"{mu:g}".replace(".", "p")


@dataclass
class RunResult:
    exit_code: int
    out_dir: Path
    artifacts: list[Path] = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    error: str | None = None   # what the run stopped on (exit 1 or 2)


def run(cfg: PipelineConfig, log=print) -> RunResult:
    """Execute the configured stages; returns artifacts and an exit code
    (0 ok, 1 config error, 2 any failure inside a stage)."""
    t_start = time.time()
    out = Path(cfg.out_dir)
    result = RunResult(exit_code=0, out_dir=out)

    diags = validate(cfg)
    result.diagnostics = diags
    for d in diags:
        log(str(d))
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        result.exit_code = 1
        result.error = "; ".join(d.message for d in errors)
        return result

    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        result.error = f"cannot create {out}: {exc}"
        log(f"error: {result.error}")
        result.exit_code = 1
        return result
    artifacts: list[Path] = []

    def emit(path: Path):
        artifacts.append(path)
        log(f"wrote {path}")

    registry = load_materials(cfg)
    grid = build_grid(cfg.nx, cfg.ny, cfg.cell_size)
    layout = rve.build_layout(grid, cfg.frame_fraction)
    frame = registry[cfg.frame]
    dense = registry[cfg.dense]
    soft = registry[cfg.soft]

    stage_traceback: str | None = None
    try:
        # ---- stage: optimize -------------------------------------------
        if "optimize" in cfg.stages:
            phases = rve.scaled_phases(frame, dense, soft, cfg.soft_density_scale,
                                       cfg.interpolation_exponent)
            settings = topopt.OptimizerSettings(
                target_f_hz=cfg.target_f_hz, alpha=cfg.alpha, dt=cfg.dt,
                c1=cfg.c1, max_iters=cfg.max_iters, stop_tol=cfg.stop_tol,
                delta_tol=cfg.delta_tol)

            snap_paths: list[Path] = []

            def observer(iteration, phi, row: HistoryRow):
                if iteration % cfg.snapshot_every == 0:
                    p = out / f"phi_iter_{iteration:06d}.txt"
                    write_phi(phi.reshape(grid.ny + 1, grid.nx + 1), p)
                    snap_paths.append(p)

            res = topopt.optimize(layout, phases, settings, observer=observer)
            log(f"optimizer: {res.analyses} design analyses, {res.free_solves} "
                f"free-pencil solves; worst elastic eigen residual "
                f"{res.analysis.worst_elastic_residual():.3g}")
            last_it = res.history[-1].iteration
            last_snap = out / f"phi_iter_{last_it:06d}.txt"
            if last_snap not in snap_paths:
                write_phi(res.state.snapshot_grid(), last_snap)
                snap_paths.append(last_snap)
            artifacts.extend(snap_paths)
            hist_path = out / "iteration_log.csv"
            write_history_csv(res.history, hist_path)
            emit(hist_path)
            phi_path = out / "phi_final.txt"
            write_phi(res.state.snapshot_grid(), phi_path)
            emit(phi_path)
            if res.instability_warning:
                log("warning: resonance jumps oscillated by more than a decade; "
                    "the design may sit in the physically unstable band")
            if res.stagnated:
                log("warning: optimizer stagnated above stop_tol; no probed step "
                    "lowers the cost of the returned design")
            phi = res.state.phi
        elif cfg.level_set_file is not None:
            phi = read_phi(cfg.level_set_file, cfg.nx, cfg.ny)
        else:
            phi = None

        # ---- stage: homogenize -----------------------------------------
        ems: dict[float, homogenize.EffectiveMaterial] = {}
        if "homogenize" in cfg.stages or "dispersion" in cfg.stages \
                or "transmission" in cfg.stages:
            if phi is None:
                raise ConfigError("homogenization requested without a design")
            chi = rve.chi_at_gauss(layout, phi)
            phases_true = rve.PhaseSet(frame=frame, dense=dense, soft=soft,
                                       exponent=cfg.interpolation_exponent)
            fields = rve.material_fields(layout, chi, phases_true)
            cell = homogenize.cell_modes(grid, fields, delta_tol=cfg.delta_tol,
                                         keep_below_hz=cfg.mode_ceiling_hz)
            for mu in cfg.viscosities:
                phases_mu = replace(phases_true, soft=soft.with_viscosity(mu))
                em = homogenize.effective_material(
                    cell, rve.material_fields(layout, chi, phases_mu))
                ems[mu] = em
                if "homogenize" in cfg.stages:
                    p = out / f"effective_material_mu{_mu_tag(mu)}.txt"
                    homogenize.write_report(em, p)
                    emit(p)
            del cell   # its modal basis is not needed by the later stages

        # ---- stage: dispersion -----------------------------------------
        if "dispersion" in cfg.stages:
            freqs = cfg.frequencies()
            for mu, em in ems.items():
                curve = dispersion.effective_dispersion(em, freqs)
                p = out / f"dispersion_effective_mu{_mu_tag(mu)}.csv"
                curve.to_csv(p)
                emit(p)
            kappas = np.linspace(0.0, np.pi / cfg.cell_size, cfg.kappa_samples)
            bres = dispersion.bloch_oracle(grid, fields, kappas,
                                           n_branches=cfg.bloch_branches)
            log(f"Bloch oracle: worst elastic eigen residual "
                f"{bres.worst_elastic_residual():.3g} over {len(kappas)} wavenumbers")
            p = out / "dispersion_bloch.csv"
            bres.to_csv(p, cfg.cell_size)
            emit(p)

        # ---- stage: transmission ---------------------------------------
        if "transmission" in cfg.stages:
            freqs = cfg.frequencies()
            for mu, em in ems.items():
                pm = panel_mod.PanelModel(em, n_cells=cfg.panel_cells, nx=cfg.macro_nx)
                tl = panel_mod.tl_sweep(pm, freqs)
                p = out / f"tl_mu{_mu_tag(mu)}.csv"
                tl.to_csv(p)
                emit(p)
                p = out / f"tl_bands_mu{_mu_tag(mu)}.txt"
                tl.write_band_report(p)
                emit(p)
                for f_bad, msg in tl.failures:
                    log(f"warning: sample {f_bad:.2f} Hz failed: {msg}")
    except Exception as exc:   # any stage failure is exit 2, never a traceback
        result.error = f"{type(exc).__name__}: {exc}"
        stage_traceback = traceback.format_exc()   # kept in the manifest, not printed
        log(f"stage failed: {result.error}")
        result.exit_code = 2

    result.artifacts = artifacts
    manifest = {
        "package": {"name": "lramkit", "version": __version__},
        "libraries": {"numpy": np.__version__, "scipy": scipy.__version__},
        "config_path": cfg.path,
        "config_echo": cfg.raw_text,
        "stages": list(cfg.stages),
        "wall_time_s": time.time() - t_start,
        "error": result.error,
        "traceback": stage_traceback,
        "files": [
            {"path": p.name,
             "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
            for p in artifacts
        ],
    }
    man_path = out / ("manifest.json" if result.error is None else "failure_manifest.json")
    man_path.write_text(json.dumps(manifest, indent=1) + "\n")
    log(f"wrote {man_path}")
    return result
