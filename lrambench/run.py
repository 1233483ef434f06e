"""lramkit benchmark: seeded workloads through the public ``pipeline.run``.

    python3 lrambench/run.py --workload design-fit --seed 0 --seconds 35 --trace 0

Run from the root of a checkout. Every repetition is one ``pipeline.run``
call in a fresh worker interpreter (``worker.py``), back to back: a closed
loop with one client and one worker process at a time. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced call with ``--trace 1``. The full record
(inputs, environment, every repetition) goes to
``.bench_work/<workload>-seed<n>-trace<t>/result.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_REPS = 2        # artifact hashes and counters are compared between repetitions
SETUP_REPS = 3      # fresh interpreters timed for setup_s; the median is reported
DEADLINE_S = 170.0  # a run, set-up included, must end within 180 s

WORKLOADS = ("design-fit", "design-gap", "predict")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "modal.solve_smallest.calls": "count",
    "modal.solve_smallest.self_s": "s",
    "modal.solve_smallest.ms_per_call": "ms",
    "modal.solve_smallest.dense_calls": "count",
    "modal.solve_smallest.arpack_calls": "count",
    "modal.solve_smallest.modes_requested": "count",
    "fem.assemble.calls": "count",
    "fem.assemble.self_s": "s",
    "fem.assemble.ms_per_call": "ms",
    "topopt.analyze_design.calls": "count",
    "topopt.analyze_design.self_s": "s",
    "topopt.optimize.iterations": "count",
    "topopt.optimize.self_s": "s",
    "topopt.optimize.tail_s": "s",
    "topopt.analyses_per_best": "ratio",
    "topopt.hj_step.calls": "count",
    "topopt.sensitivity_field.self_s": "s",
    "rve.chi_at_gauss.calls": "count",
    "rve.chi_at_gauss.self_s": "s",
    "rve.material_fields.self_s": "s",
    "homogenize.reduced_inertial_system.calls": "count",
    "homogenize.reduced_inertial_system.self_s": "s",
    "homogenize.eigensolves_per_reduction": "ratio",
    "homogenize.modes_kept_ratio": "ratio",
    "homogenize.quasi_static.self_s": "s",
    "dispersion.bloch_oracle.self_s": "s",
    "dispersion.bloch_transform.self_s": "s",
    "modal.solve_smallest_hermitian.calls": "count",
    "modal.solve_smallest_hermitian.self_s": "s",
    "modal.solve_smallest_hermitian.ms_per_call": "ms",
    "dispersion.effective_dispersion.self_s": "s",
    "panel.tl_sweep.self_s": "s",
    "panel.solve_RT.calls": "count",
    "panel.solve_RT.us_per_call": "us",
    "pipeline.run.self_s": "s",
    "pipeline.bytes_written": "bytes",
    "trace.overhead_s": "s",
}

# importing cli loads every stage module, as the ``lramkit`` entry point does
SETUP_SNIPPET = (
    "import sys\n"
    "from lramkit import cli, config\n"
    "cfg = config.load_config(sys.argv[1])\n"
    "sys.exit(any(d.severity == 'error' for d in config.validate(cfg)))\n"
)


def derive_inputs(workload: str, seed: int) -> dict:
    """The input a seed stands for; seed 0 is the reference input.

    design-fit keeps its 1000 Hz target for every seed: its iteration count,
    and with it the work, jumps with the target (5 to 8 iterations between
    960 and 1020 Hz), so seeds vary only the snapshot cadence.
    design-gap draws the target from 900-1100 Hz, where the 20x20 run
    follows one trajectory; predict draws the disk radius from 2.5-3.5 mm.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "design-fit":
        return {"nx": 60, "alpha": 1.0, "target_f_hz": 1000.0,
                "snapshot_every": 10 if seed == 0 else rng.randint(2, 10)}
    if workload == "design-gap":
        target = 1000.0 if seed == 0 else round(rng.uniform(900.0, 1100.0), 1)
        return {"nx": 20, "alpha": 0.5, "target_f_hz": target, "snapshot_every": 10}
    radius = 3.0 if seed == 0 else round(rng.uniform(2.5, 3.5), 3)
    return {"nx": 60, "disk_radius_mm": radius}


def write_inputs(inputs: dict, work: Path) -> Path:
    """The generated config (and level-set file) the program receives."""
    n = inputs["nx"]
    lines = [f"[grid]\nnx = {n}\nny = {n}\n"]
    if "disk_radius_mm" in inputs:
        phi_path = work / "phi_disk.txt"
        h = 0.01 / n                          # default 1 cm cell
        r = inputs["disk_radius_mm"] * 1e-3
        with open(phi_path, "w") as fh:
            for j in range(n + 1):
                row = ((r - ((i * h - 0.005) ** 2 + (j * h - 0.005) ** 2) ** 0.5) / h
                       for i in range(n + 1))
                fh.write(" ".join(f"{v:.12g}" for v in row) + "\n")
        lines.append(f"[output]\nstages = homogenize, dispersion, transmission\n"
                     f"level_set_file = {phi_path}\n")
    else:
        lines.append(f"[optimize]\ntarget_f_hz = {inputs['target_f_hz']}\n"
                     f"alpha = {inputs['alpha']}\nsnapshot_every = {inputs['snapshot_every']}\n"
                     f"[output]\nstages = optimize\n")
    cfg = work / "run.cfg"
    cfg.write_text("".join(lines))
    return cfg


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def _timeout(deadline: float) -> float:
    return max(deadline - time.perf_counter(), 1.0)


def measure_setup(cfg: Path, deadline: float) -> list[float]:
    """Fresh-interpreter cost of ``import lramkit.cli`` plus load and validate."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(cfg)], env=_child_env(),
                       check=True, timeout=_timeout(deadline), stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_worker(cfg: Path, out: Path, spans: Path | None, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(cfg), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                          timeout=_timeout(deadline))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        src.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "git_commit": commit, "src_sha256": src.hexdigest()}


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def compare(reps: list[dict], key: str) -> list[str]:
    """Entries of ``rep[key]`` that differ between repetitions."""
    names = sorted(set().union(*(r[key] for r in reps)))
    return [n for n in names if len({json.dumps(r[key].get(n)) for r in reps}) > 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.perf_counter() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "lramkit" / "pipeline.py").is_file():
        print("error: run from the root of an lramkit checkout (src/lramkit missing)",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    inputs = derive_inputs(args.workload, args.seed)
    cfg = write_inputs(inputs, work)
    setup = measure_setup(cfg, deadline)

    # traced runs alternate untraced and traced calls, so trace.overhead_s
    # compares calls made under the same machine conditions
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        spans = work / f"spans{len(reps)}.json" if traced else None
        rep = run_worker(cfg, work / f"rep{len(reps)}", spans, deadline)
        rep["traced"] = traced
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > args.seconds:
            break

    attempted = sum(r["attempted"] for r in reps) + 2
    failed = sum(r["failed"] for r in reps)
    failures = [f"rep{i} {msg}" for i, r in enumerate(reps) for msg in r["failures"]]
    differ = compare(reps, "files")
    if differ:
        failed += 1
        failures.append(f"artifact sha256 differs between repetitions: {differ}")
    differ = compare(reps, "counters")
    if differ:
        failed += 1
        failures.append(f"work counters differ between repetitions: {differ}")

    plain = [r for r in reps if not r["traced"]]
    e2e = {"wall_s": statistics.median(r["wall_s"] for r in plain),
           "setup_s": statistics.median(setup),
           "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    layers: dict[str, float] = {}
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        for name in PER_LAYER:
            if name != "trace.overhead_s":
                layers[name] = statistics.median(r["layers"][name] for r in traced)
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - e2e["wall_s"])

    final_cost = reps[0].get("final_cost")
    fail_ratio = failed / attempted
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs": inputs, "environment": environment(root),
              "end_to_end": e2e, "per_layer": layers, "final_cost": final_cost,
              "fail_ratio": fail_ratio, "attempted": attempted, "failed": failed,
              "failures": failures, "setup_runs_s": setup, "repetitions": reps}
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"inputs {json.dumps(inputs)}")
    print(f"environment {json.dumps(result['environment'])}")
    print(f"repetitions {len(reps)}: wall_s "
          + " ".join(f"{r['wall_s']:.3f}{'T' if r['traced'] else ''}" for r in reps))
    for name, unit in END_TO_END.items():
        print(f"{name} = {e2e[name]:.6g} {unit}")
    print("final_cost = " + ("n/a (no optimize stage)" if final_cost is None
                             else f"{final_cost:.12g} (Pi, dimensionless)"))
    print(f"fail_ratio = {fail_ratio:.6g} ({failed}/{attempted} operations)")
    for name, value in layers.items():
        print(f"{name} = {value:.6g} {PER_LAYER[name]}")
    for msg in failures:
        print(f"FAILED {msg}")

    shown = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in shown.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
