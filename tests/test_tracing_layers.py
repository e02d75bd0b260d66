"""The benchmark's tracer (bench/tracing.py) rebinds package functions by
module and name, so a rename in the package must fail here rather than in a
traced benchmark run."""

import importlib
import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_layer_resolves():
    layers = load_tracing().LAYERS
    assert layers
    missing = [f"{layer.module}.{layer.attr}" for layer in layers
               if not callable(getattr(importlib.import_module(layer.module), layer.attr, None))]
    assert missing == []
