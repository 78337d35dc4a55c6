"""The traced benchmark run wraps the otlab functions named in the SPANS table
of benchmark/tracer.py.  A name missing from the package crashes that run, so
every entry must resolve once the console script's modules are loaded.  The
names are only resolved here: installing the tracer would patch otlab for
every later test in the same process."""

import importlib.util
import sys
from pathlib import Path

import otlab.cli  # noqa: F401  (loads every module the console script uses)

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for module_name, attr, _ in load_tracer().SPANS:
        owner = sys.modules.get(module_name)
        *classes, name = attr.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name, None)
        # Tracer.install reads methods from the class's own __dict__
        found = name in vars(owner) if classes and owner is not None else hasattr(owner, name)
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
