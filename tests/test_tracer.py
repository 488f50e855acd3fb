"""The benchmark's tracer finds every name it wraps and puts each one back.

``perfbench/tracer.py`` replaces package functions by name in the modules
that call them.  A moved or renamed function makes ``install`` fail with
AttributeError, so this check runs with the unit tests on every Python.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name():
    tracer = _load_tracer()
    rec = tracer.Recorder("t", trace=True)
    try:
        tracer.install(rec)
        patched = list(rec._patched)
        # a name wrapped twice records the first wrapper as its second inner
        originals = {}
        for module, attr, inner in patched:
            originals.setdefault((module, attr), inner)
        wrapped = [getattr(module, attr) is not inner for (module, attr), inner in originals.items()]
    finally:
        rec.restore()
    assert patched and all(wrapped)
    stale = [
        f"{module.__name__}.{attr}"
        for (module, attr), inner in originals.items()
        if getattr(module, attr) is not inner
    ]
    assert stale == []
