"""The benchmark tracer wraps krc functions by name; every name must resolve."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_name_resolves():
    # run_path compiles the file without writing a bytecode cache beside it.
    layers = runpy.run_path(str(TRACING))["LAYER_FUNCTIONS"]
    assert layers
    for prefix, module_name, attr in layers:
        assert module_name == "krc" or module_name.startswith("krc."), prefix
        module = importlib.import_module(module_name)
        if "." in attr:  # a class member, which the tracer reads from __dict__
            cls_name, member = attr.split(".")
            owner = getattr(module, cls_name, None)
            assert owner is not None and member in vars(owner), prefix
        else:
            assert callable(getattr(module, attr, None)), prefix
