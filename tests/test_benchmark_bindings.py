"""The bindings that the benchmark's tracer reads still exist in the package.

``perfbench/run.py --trace 1`` wraps every ``(layer, func)`` of
``perfbench/tracer.py``'s ``TRACED`` on ``grdcalc.<layer>``, wraps
``FunctionOracle.evaluate``, and reads ``probes._membership.cache_info()``
for its membership counts.  The benchmark's own tests are not part of this
suite, so a package change that renames or drops one of these would break a
traced run without a failing test here.  The tracer is loaded by path and
used as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from grdcalc import probes

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _tracer().TRACED


@pytest.mark.parametrize("layer, func", [(layer, func) for layer, func, _ in TRACED])
def test_every_traced_binding_is_a_callable_of_its_layer(layer, func):
    assert callable(getattr(importlib.import_module(f"grdcalc.{layer}"), func, None))


def test_the_oracle_span_and_the_membership_counts_can_be_read():
    assert callable(probes.FunctionOracle.evaluate)
    info = probes._membership.cache_info()
    assert info.maxsize == 0 and info.hits == 0
