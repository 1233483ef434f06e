"""Pipeline configuration: flat key = value text with bracketed sections.

The same parser reads the run configuration and the material card (one
section per phase with rho, K, G, mu fields in SI units). Diagnostics carry
line numbers so a bad config can be fixed without guessing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import build_grid
from .materials import MaterialPhase, builtin_materials
from .rve import build_layout

STAGES = ("optimize", "homogenize", "dispersion", "transmission")


@dataclass(frozen=True)
class Diagnostic:
    severity: str          # "error" | "warning" | "info"
    message: str
    line: int | None = None

    def __str__(self):
        where = f" (line {self.line})" if self.line is not None else ""
        return f"{self.severity}{where}: {self.message}"


def _parse_sections(text: str):
    """-> {section: {key: (value, line)}} with line-numbered errors."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        sections[current][key] = (value, lineno)
    return sections


@dataclass
class PipelineConfig:
    """Everything a pipeline run needs, with reference-setup defaults."""

    # grid
    nx: int = 60
    ny: int = 60
    cell_size: float = 0.01
    # materials
    material_card: str | None = None
    frame: str = "epoxy"
    dense: str = "steel"
    soft: str = "silicone_rubber"
    frame_stiffness_scale: float = 1e6
    soft_density_scale: float = 1e-10
    interpolation_exponent: float = 2.0
    # optimize
    target_f_hz: float = 1000.0
    alpha: float = 0.5
    dt: float = 1e-3
    c1: float | None = None
    max_iters: int = 1000
    stop_tol: float = 1e-7
    delta_tol: float = 1e-3
    frame_fraction: float = 0.05
    snapshot_every: int = 10
    # analysis
    viscosities: tuple[float, ...] = (0.0, 10.0)
    f_min_hz: float = 5.0
    f_max_hz: float = 3000.0
    samples: int = 600
    modes: int = 24
    band_top_hz: float | None = None   # mode-keeping ceiling; default 2 * f_max
    panel_cells: int = 1
    macro_nx: int = 4
    macro_ny: int = 4
    kappa_samples: int = 9
    bloch_branches: int = 8
    # output
    out_dir: str = "out"
    stages: tuple[str, ...] = STAGES
    level_set_file: str | None = None

    raw_text: str = field(default="", repr=False)
    path: str | None = None

    def frequencies(self):
        import numpy as np
        return np.linspace(self.f_min_hz, self.f_max_hz, self.samples)

    @property
    def mode_ceiling_hz(self) -> float:
        """Resonances kept in the reduced system: below twice the band top
        unless overridden."""
        return self.band_top_hz if self.band_top_hz is not None else 2.0 * self.f_max_hz


def _finite(value: str) -> float:
    """float(value), rejecting nan and inf."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


_SCHEMA = {
    "grid": {"nx": int, "ny": int, "cell_size": _finite},
    "materials": {"card": str, "frame": str, "dense": str, "soft": str,
                  "frame_stiffness_scale": _finite, "soft_density_scale": _finite,
                  "interpolation_exponent": _finite},
    "optimize": {"target_f_hz": _finite, "alpha": _finite, "dt": _finite, "c1": str,
                 "max_iters": int, "stop_tol": _finite, "delta_tol": _finite,
                 "frame_fraction": _finite, "snapshot_every": int},
    "analysis": {"viscosities": str, "f_min_hz": _finite, "f_max_hz": _finite,
                 "samples": int, "modes": int, "band_top_hz": _finite,
                 "panel_cells": int, "macro_nx": int, "macro_ny": int,
                 "kappa_samples": int, "bloch_branches": int},
    "output": {"dir": str, "stages": str, "level_set_file": str},
}

# keys of earlier versions that still parse and are ignored
_RETIRED = {("optimize", "stagnation_window"), ("output", "deterministic")}

_FIELD_OF = {
    ("materials", "card"): "material_card",
    ("output", "dir"): "out_dir",
}


def parse_config(text: str, path: str | None = None) -> PipelineConfig:
    """Parse a configuration; raises ConfigError with line numbers."""
    sections = _parse_sections(text)
    cfg = PipelineConfig(raw_text=text, path=path)
    for sec, entries in sections.items():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        for key, (value, lineno) in entries.items():
            if (sec, key) in _RETIRED:
                continue
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"line {lineno}: unknown key '{key}' in [{sec}]")
            attr = _FIELD_OF.get((sec, key), key)
            try:
                if key == "c1":
                    cfg.c1 = None if value.lower() == "auto" else _finite(value)
                elif key == "viscosities":
                    cfg.viscosities = tuple(_finite(v) for v in value.split(",") if v.strip())
                elif key == "stages":
                    cfg.stages = tuple(s.strip() for s in value.split(",") if s.strip())
                elif key == "level_set_file":
                    cfg.level_set_file = value or None
                else:
                    setattr(cfg, attr, _SCHEMA[sec][key](value))
            except ValueError as err:
                raise ConfigError(f"line {lineno}: bad value for {key}: {err}") from err
    return cfg


def load_config(path) -> PipelineConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(), path=str(p))


def parse_material_card(text: str) -> dict[str, MaterialPhase]:
    """Phase registry from card text: [name] sections with rho, K, G, mu."""
    sections = _parse_sections(text)
    phases = {}
    for name, entries in sections.items():
        vals = {}
        for key, (value, lineno) in entries.items():
            if key not in ("rho", "K", "G", "mu"):
                raise ConfigError(f"line {lineno}: unknown material field '{key}'")
            try:
                vals[key] = _finite(value)
            except ValueError as err:
                raise ConfigError(f"line {lineno}: bad number for {key}: {err}") from err
        for req in ("rho", "K", "G"):
            if req not in vals:
                raise ConfigError(f"material [{name}] missing field '{req}'")
        phases[name] = MaterialPhase(name=name, rho=vals["rho"], K=vals["K"],
                                     G=vals["G"], mu_visc=vals.get("mu", 0.0))
    return phases


def load_materials(cfg: PipelineConfig) -> dict[str, MaterialPhase]:
    """Registry from the configured card, or the built-in one."""
    if cfg.material_card is None:
        return builtin_materials()
    p = Path(cfg.material_card)
    if not p.is_absolute() and cfg.path is not None:
        p = Path(cfg.path).parent / p
    if not p.exists():
        raise ConfigError(f"material card not found: {p}")
    return parse_material_card(p.read_text())


def read_phi(path, nx: int, ny: int) -> np.ndarray:
    """Nodal level set from a row-major (ny + 1, nx + 1) plain-text file."""
    try:
        data = np.loadtxt(path)
    except ValueError as err:
        raise ConfigError(f"level-set file {path} is not a numeric table: {err}") from err
    if data.shape != (ny + 1, nx + 1):
        raise ConfigError(f"level-set file {path} has shape {data.shape}, "
                          f"expected {(ny + 1, nx + 1)}")
    return data.ravel()


def validate(cfg: PipelineConfig) -> list[Diagnostic]:
    """Diagnostics only; an empty error list means the pipeline may run."""
    from .topopt import feasibility_lower_limit

    out: list[Diagnostic] = []
    err = lambda m: out.append(Diagnostic("error", m))
    warn = lambda m: out.append(Diagnostic("warning", m))
    info = lambda m: out.append(Diagnostic("info", m))

    if cfg.nx < 2 or cfg.ny < 2:
        err(f"grid must be at least 2x2, got {cfg.nx}x{cfg.ny}")
    else:   # the frame rule depends on the element counts only
        try:
            build_layout(build_grid(cfg.nx, cfg.ny, 1.0), cfg.frame_fraction)
        except ValueError as exc:
            err(str(exc))
    if cfg.cell_size <= 0:
        err(f"cell_size must be positive, got {cfg.cell_size}")
    if not 0.0 <= cfg.alpha <= 1.0:
        err(f"alpha must lie in [0, 1], got {cfg.alpha}")
    if cfg.target_f_hz <= 0:
        err(f"target_f_hz must be positive, got {cfg.target_f_hz}")
    if cfg.dt <= 0:
        err(f"dt must be positive, got {cfg.dt}")
    if cfg.interpolation_exponent <= 0:
        err(f"interpolation_exponent must be positive, got {cfg.interpolation_exponent}")
    if cfg.samples < 1 or len(tuple(cfg.viscosities)) == 0:
        err("frequency sweep needs at least one sample and one viscosity")
    if cfg.f_min_hz <= 0 or cfg.f_max_hz <= cfg.f_min_hz:
        err(f"need 0 < f_min < f_max, got [{cfg.f_min_hz}, {cfg.f_max_hz}]")
    if any(v < 0 for v in cfg.viscosities):
        err(f"viscosities must be >= 0, got {cfg.viscosities}")
    for name in ("modes", "bloch_branches", "kappa_samples", "panel_cells",
                 "snapshot_every"):
        if getattr(cfg, name) < 1:
            err(f"{name} must be at least 1, got {getattr(cfg, name)}")
    if cfg.macro_nx < 2 or cfg.macro_ny < 2:
        err(f"panel grid must be at least 2x2, got {cfg.macro_nx}x{cfg.macro_ny}")

    unknown = [s for s in cfg.stages if s not in STAGES]
    if not cfg.stages:
        err(f"stages must name at least one of {list(STAGES)}")
    elif unknown:
        err(f"unknown stages {unknown}; valid: {list(STAGES)}")
    else:
        idx = sorted(STAGES.index(s) for s in cfg.stages)
        if idx != list(range(idx[0], idx[0] + len(idx))):
            err(f"stages must be contiguous in pipeline order, got {cfg.stages}")
        elif idx and idx[0] > 0 and cfg.level_set_file is None:
            err("stages skip 'optimize' but no level_set_file is provided")
        elif idx and idx[0] > 0 and not Path(cfg.level_set_file).is_file():
            err(f"level_set_file not found: {cfg.level_set_file}")
        elif idx and idx[0] > 0:
            try:
                read_phi(cfg.level_set_file, cfg.nx, cfg.ny)
            except ConfigError as exc:
                err(str(exc))

    try:
        registry = load_materials(cfg)
    except ConfigError as exc:
        err(str(exc))
        registry = None
    if registry is not None:
        missing = [r for r in (cfg.frame, cfg.dense, cfg.soft) if r not in registry]
        if missing:
            err(f"materials {missing} not in registry {sorted(registry)}")
        elif cfg.cell_size > 0:
            phases = [registry[cfg.frame], registry[cfg.dense], registry[cfg.soft]]
            w_min = feasibility_lower_limit(phases, cfg.cell_size)
            f_min = w_min / (2.0 * math.pi)
            if cfg.target_f_hz <= f_min:
                warn(f"target {cfg.target_f_hz:.1f} Hz is below the feasibility "
                     f"lower limit {f_min:.1f} Hz for a {cfg.cell_size} m cell")
            else:
                info(f"feasibility lower limit {f_min:.1f} Hz; targets near it can "
                     "sit in a numerically unstable band, which the optimizer "
                     "detects at runtime and reports as an instability warning")
    return out
