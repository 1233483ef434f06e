"""One ``pipeline.run`` call in a fresh interpreter, as a CLI call makes it.

    python3 lrambench/worker.py --config CFG --out DIR [--spans FILE]

Run from the checkout root; lramkit is imported from ``src/``. Prints one
JSON object: wall time and peak RSS of the call, the artifact hashes from
``manifest.json``, deterministic work counters, the operations the
correctness checks attempted and failed, and, with ``--spans``, the
per-layer metrics of the traced call (spans are written to FILE).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import lramkit  # noqa: E402
from lramkit import config, homogenize, pipeline  # noqa: E402
from tracer import Recorder  # noqa: E402

ENERGY_TOL = 1e-8     # lossless |R|^2 + |T|^2 - 1, as in the acceptance tests
RESONANCE_TOL = 0.02  # acceptance criterion 1: restricted resonance vs target


def _read_csv(path: Path) -> list[dict[str, float]]:
    with open(path) as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


class Checks:
    """Operations that pass or fail; each named failure is kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.add(name, 1, 0 if ok else 1, detail)

    def add(self, name: str, attempted: int, failed: int, detail: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{name}: {failed}/{attempted} failed {detail}".rstrip())


def design_checks(cfg, out: Path, checks: Checks, counters: dict) -> dict:
    """Checks on the optimizer's documented iteration log."""
    rows = _read_csv(out / "iteration_log.csv")
    best = min(range(len(rows)), key=lambda i: rows[i]["Pi"])   # the returned design
    final, initial = rows[best], rows[0]
    counters["topopt.iterations"] = len(rows) - 1
    new_bests, low = 0, math.inf
    for r in rows:
        if r["Pi"] < low:
            new_bests, low = new_bests + 1, r["Pi"]
    counters["topopt.new_bests"] = new_bests
    counters["final_cost"] = final["Pi"]
    f_star = math.sqrt(final["lambda_star1"]) / (2.0 * math.pi)
    if cfg.alpha == 1.0:
        err = abs(f_star - cfg.target_f_hz) / cfg.target_f_hz
        checks.check("restricted resonance within 2% of target", err <= RESONANCE_TOL,
                     f"(f*={f_star:.1f} Hz, target {cfg.target_f_hz:.1f} Hz)")
    checks.check("lambda*_1 < lambda_1", final["lambda_star1"] < final["lambda1"])
    checks.check("final Pi <= initial Pi", final["Pi"] <= initial["Pi"],
                 f"({final['Pi']:.6g} vs {initial['Pi']:.6g})")
    return {"final_cost": final["Pi"], "initial_cost": initial["Pi"],
            "f_star_hz": f_star}


def predict_checks(cfg, out: Path, checks: Checks, rec: Recorder) -> None:
    """Lossless energy identity, passivity, and per-sample TL/Bloch operations."""
    ems = rec.returns["homogenize.effective_material"]
    for mu, em in zip(cfg.viscosities, ems):
        rows = _read_csv(out / f"tl_mu{pipeline._mu_tag(mu)}.csv")
        bad = sum(1 for r in rows if not math.isfinite(r["TL_dB"]))
        checks.add(f"TL samples mu={mu:g}", len(rows), bad)
        if mu == 0.0:
            dev = max(abs(r["Re_R"] ** 2 + r["Im_R"] ** 2 + r["Re_T"] ** 2
                          + r["Im_T"] ** 2 - 1.0)
                      for r in rows if math.isfinite(r["TL_dB"]))
            checks.check("lossless |R|^2+|T|^2-1 <= 1e-8", dev <= ENERGY_TOL,
                         f"(max {dev:.2e})")
        else:
            im = min(homogenize.effective_density(em, 2.0 * math.pi * f)[0, 0].imag
                     for f in cfg.frequencies())
            checks.check(f"Im rho_eff >= 0 at mu={mu:g}", im >= 0.0, f"(min {im:.3e})")
    bloch = _read_csv(out / "dispersion_bloch.csv")
    bad = sum(1 for r in bloch if not all(math.isfinite(v) for v in r.values()))
    checks.add("Bloch solves", cfg.kappa_samples, bad + cfg.kappa_samples - len(bloch))


def layer_metrics(rec: Recorder, counters: dict, bytes_written: int) -> dict:
    """Per-layer metrics of a traced call, named ``<module>.<function>.<quantity>``."""
    self_s = rec.self_times()
    calls = rec.calls
    m: dict[str, float] = {}

    def per_call(name, scale, unit):
        n = calls[name]
        m[f"{name}.calls"] = n
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
        m[f"{name}.{unit}"] = scale * self_s.get(name, 0.0) / n if n else 0.0

    per_call("modal.solve_smallest", 1e3, "ms_per_call")
    per_call("modal.solve_smallest_hermitian", 1e3, "ms_per_call")
    per_call("fem.assemble", 1e3, "ms_per_call")
    per_call("panel.solve_RT", 1e6, "us_per_call")
    for key in ("modal.solve_smallest.dense_calls", "modal.solve_smallest.arpack_calls",
                "modal.solve_smallest.modes_requested"):
        m[key] = counters.get(key, 0)
    for name in ("topopt.analyze_design", "rve.chi_at_gauss",
                 "homogenize.reduced_inertial_system"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["topopt.hj_step.calls"] = calls["topopt.hj_step"]
    for name in ("topopt.optimize", "topopt.sensitivity_field", "rve.material_fields",
                 "homogenize.quasi_static", "dispersion.bloch_oracle",
                 "dispersion.bloch_transform", "dispersion.effective_dispersion",
                 "panel.tl_sweep", "pipeline.run"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["topopt.optimize.iterations"] = counters.get("topopt.iterations", 0)
    opt_end = rec.last_end("topopt.optimize")
    m["topopt.optimize.tail_s"] = (opt_end - rec.best_times[-1]
                                   if opt_end is not None and rec.best_times else 0.0)
    bests = counters.get("topopt.new_bests", 0)
    m["topopt.analyses_per_best"] = calls["topopt.analyze_design"] / bests if bests else 0.0
    reductions = calls["homogenize.reduced_inertial_system"]
    m["homogenize.eigensolves_per_reduction"] = (
        counters.get("homogenize.eigensolves", 0) / reductions if reductions else 0.0)
    requested = counters.get("homogenize.modes_requested", 0)
    m["homogenize.modes_kept_ratio"] = (
        counters.get("homogenize.modes_kept", 0) / requested if requested else 0.0)
    m["pipeline.bytes_written"] = bytes_written
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True, help="output directory of the call")
    ap.add_argument("--spans", help="trace the call and write its spans here")
    args = ap.parse_args(argv)

    rec = Recorder(spans=args.spans is not None)
    rec.install(lramkit)
    cfg = replace(config.load_config(args.config), out_dir=args.out)
    log: list[str] = []
    t0 = time.perf_counter()
    try:
        exit_code = pipeline.run(cfg, log=log.append).exit_code
    except Exception:   # an escaped traceback is a failed operation too
        exit_code, log = -1, log + [traceback.format_exc()]
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = Path(cfg.out_dir)
    checks = Checks()
    checks.check("pipeline exit code 0", exit_code == 0, f"(got {exit_code}: {log[-1:]})")
    counters = {f"{name}.calls": n for name, n in sorted(rec.calls.items())}
    counters.update(rec.counters)
    record = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "exit_code": exit_code,
              "files": {}, "bytes_written": 0}
    if exit_code == 0:
        manifest = json.loads((out / "manifest.json").read_text())
        record["files"] = {f["path"]: f["sha256"] for f in manifest["files"]}
        record["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
        if "optimize" in cfg.stages:
            record.update(design_checks(cfg, out, checks, counters))
            counters["phi_final.sha256"] = hashlib.sha256(
                (out / "phi_final.txt").read_bytes()).hexdigest()
        if "transmission" in cfg.stages:
            predict_checks(cfg, out, checks, rec)
            kept = sum(em.n_modes for em in rec.returns["homogenize.effective_material"])
            counters["homogenize.modes_kept"] = kept
    record.update(counters=counters, attempted=checks.attempted, failed=checks.failed,
                  failures=checks.failures)
    if args.spans:
        rec.write_spans(args.spans)
        record["layers"] = layer_metrics(rec, counters, record["bytes_written"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
