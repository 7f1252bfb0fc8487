"""The layers the benchmark's tracer wraps still exist in the package.

``perfbench/tracing.py`` replaces each label in its ``LAYERS`` with a
timing wrapper: a function through its module attribute, a class through
the ``__init__`` in the class's own ``__dict__``.  A refactor that renames
such a function, or drops a class's own ``__init__``, breaks the traced
benchmark run; this test catches it first.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = load_tracing()
    names = {label.split(".", 1)[0] for label in tracing.LAYERS}
    modules = SimpleNamespace(
        **{name: importlib.import_module(f"dsmcf.{name}") for name in names}
    )
    missing = []
    for label in tracing.LAYERS:
        owner, attr = tracing._resolve(modules, label)
        if attr not in owner.__dict__ or not callable(owner.__dict__[attr]):
            missing.append(label)
    assert not missing, f"the tracer cannot wrap {missing}"
