"""The names the benchmark's tracer wraps, and the package's public names, all resolve.

``benchmarks/tracer.py`` looks its targets up by module and attribute
path when a traced run starts; a name that vanishes from ``src/`` would
otherwise fail only there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import memlogic

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("memlogic_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, path", [(module, path) for module, path, _ in load_tracer().LEVELS["fine"]])
def test_every_name_the_tracer_wraps_resolves(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_public_names_resolve_and_are_listed_once():
    assert len(memlogic.__all__) == len(set(memlogic.__all__))
    assert [name for name in memlogic.__all__ if not hasattr(memlogic, name)] == []


def test_every_import_kept_only_for_the_tracer_is_one_it_wraps():
    """An import marked ``# noqa: F401`` is unused in its module; it is there only for the tracer to wrap."""
    kept = []
    for source in sorted((ROOT / "src" / "memlogic").glob("*.py")):
        text = source.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in "\n".join(lines[node.lineno - 1:node.end_lineno]):
                kept += [(f"memlogic.{source.stem}", alias.asname or alias.name) for alias in node.names]
    wrapped = {(module, path) for module, path, _ in load_tracer().LEVELS["fine"]}
    assert [hook for hook in kept if hook not in wrapped] == []
    assert sorted(kept) == [("memlogic.cli", "simulate"), ("memlogic.engine", "model_current")]
