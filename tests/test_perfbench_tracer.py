"""The benchmark's layer tracer and warm operations still bind the package.

``perfbench/tracer.py`` wraps every function in each module's ``__all__``
and counts quadrature nodes through the cell builders of
``fracext.weighted``, both bound by name.  A rename in the package would
silently zero the traced per-layer metrics; this test notices it.
``perfbench/ops.py`` calls the public API with fixed signatures, so an API
change that breaks a benchmark operation fails here first.
"""

import sys
from pathlib import Path

import pytest

import fracext
import fracext.weighted
from fracext.suite import run_checks

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # no bytecode written into the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, name, raising=False)
    return __import__(name)


@pytest.fixture
def tracer_module(monkeypatch):
    return _import_perfbench(monkeypatch, "tracer")


@pytest.fixture
def ops_module(monkeypatch):
    return _import_perfbench(monkeypatch, "ops")


def test_tracer_counts_quadrature_nodes_and_profile_points(tracer_module):
    original = fracext.weighted._cells_geometric
    # an integral cached by an earlier test would reach neither counter
    fracext.weighted._profile_l2_sq.cache_clear()
    tracer = tracer_module.Tracer()
    reports, seconds = tracer.run_op(0, run_checks, ["energy"])
    assert reports and all(r.passed for r in reports)
    assert seconds > 0.0
    counts = tracer.counters()
    assert counts["weighted.quad_nodes"] > 0
    assert counts["special.psi.points"] > 0
    assert fracext.weighted._cells_geometric is original


@pytest.mark.parametrize("workload, indices", [
    ("curve_batch", (0, 1, 2)),  # Dirichlet, Neumann, explicit
    ("fe_batch", (0, 1)),  # Dirichlet, explicit
])
def test_warm_operations_violate_no_property(ops_module, workload, indices):
    make_input, op, check, _ = ops_module.WARM[workload]
    for index in indices:
        inp = make_input(0, index)
        assert check(inp, op(fracext, inp)) == []
