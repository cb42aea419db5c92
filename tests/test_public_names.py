"""The names the benchmark's tracer wraps, and the package's public names, all resolve.

``benchmarks/tracer.py`` looks its targets up by module and attribute
path when a traced run starts; a name that vanishes from ``src/`` would
otherwise fail only there.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import memlogic

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


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
