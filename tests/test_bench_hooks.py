"""The benchmark's tracer binds package attributes by name; each one must
exist, or a traced benchmark run fails at start-up.

The targets are read from ``bench/spans.py`` without calling its
``install``, which would rebind the package attributes for the rest of
the test session.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)

TARGETS = list(spans.SPAN_TARGETS) + [t[:2] for t in spans.COUNT_TARGETS]


@pytest.mark.parametrize("module,attr", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_attribute_exists(module, attr):
    target = getattr(importlib.import_module(f"perturbsde.{module}"), attr)
    assert callable(target)
