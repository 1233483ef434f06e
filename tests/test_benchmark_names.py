"""The library names that the benchmark in ``lrambench/`` reaches exist.

``lrambench/worker.py`` calls a few library functions directly, and its
``predict`` checks read the results that the tracer keeps from
``tracer.KEEP_RETURN``. The tracer skips a function it cannot find without a
word, so a rename would empty those results and skip the checks silently,
and would zero the per-layer metrics of every function in ``tracer.WRAPPED``.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "lrambench"


def _library_function(module: str, name: str):
    return getattr(importlib.import_module(f"lramkit.{module}"), name, None)


def _worker_names() -> set[tuple[str, str]]:
    """(module, attribute) of every attribute worker.py reads off a module it
    imports from lramkit."""
    tree = ast.parse((BENCH / "worker.py").read_text())
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "lramkit"
               for alias in node.names}
    return {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_worker_calls_exist():
    names = _worker_names()
    assert names >= {("config", "load_config"), ("pipeline", "run"),
                     ("pipeline", "_mu_tag"), ("homogenize", "effective_density")}
    missing = [f"{m}.{n}" for m, n in sorted(names) if not callable(_library_function(m, n))]
    assert not missing


def _tracer():
    spec = importlib.util.spec_from_file_location("lrambench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_wrapped_names_exist():
    """Every function the tracer wraps exists, except the two that were
    folded into their callers; the benchmark still lists their metrics."""
    folded = {("modal", "solve_smallest_hermitian"), ("dispersion", "bloch_transform")}
    wrapped = set(_tracer().WRAPPED)
    assert wrapped >= {("rve", "material_fields"), ("fem", "assemble")}
    assert {name for name in wrapped if not callable(_library_function(*name))} == folded


def test_kept_returns_exist():
    tracer = _tracer()
    assert "homogenize.effective_material" in tracer.KEEP_RETURN
    missing = [name for name in sorted(tracer.KEEP_RETURN)
               if not callable(_library_function(*name.split(".")))]
    assert not missing
