"""The benchmark's tracer wraps library names by path (`zdbench/tracing.py`,
whose `Tracer.install` raises AttributeError on a missing one): each must
exist, so deleting or renaming one fails here first."""

import importlib
import pathlib
import types

import pytest

TRACING = pathlib.Path(__file__).parents[1] / "zdbench" / "tracing.py"


def _targets():
    # run from its source text, not imported: no bytecode is written beside it
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return [target[:2] for target in module.TARGETS]


@pytest.mark.parametrize("module_name, path", _targets())
def test_tracer_target_exists(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
