"""What perfbench/tracing.py reads of the program, checked without changing
it: every traced name resolves, and the ideal build keeps the attributes the
tracer's saturation count walks."""

import importlib
import inspect
import os

import pytest

from auslab.cli import build_group
from auslab.smash import IdealTruncation, auslander_verdict

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def test_every_traced_name_resolves(tracing):
    for _, module_name, path, kind in tracing.TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(module, cls_name)), path
        else:
            assert callable(getattr(module, path)), path
        assert kind in (tracing.SPAN, tracing.COUNT)


def test_ideal_build_keeps_what_the_tracer_reads():
    params = list(inspect.signature(IdealTruncation.extend).parameters.values())
    assert [p.name for p in params] == ["self", "D"] and params[1].kind is params[1].POSITIONAL_OR_KEYWORD
    for n in (6, 7):
        group, _ = build_group("rot(1),refl(0)", n)
        trunc = IdealTruncation(group)
        assert trunc.built_through() == -1
        trunc.extend(9)
        assert trunc.built_through() == 9
        for d in range(10):
            layer = trunc._layers[d]
            assert isinstance(layer, dict) and layer
            for (i, j), block in layer.items():
                assert 0 <= i < n and 0 <= j < n and isinstance(block.full, bool)


def test_a_traced_verdict_counts_saturated_blocks(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        group, _ = build_group("rot(1)", 6)     # saturates at degree 0
        auslander_verdict(6, group, 12)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["smash.extend.calls"] >= 1 and metrics["smash.blocks_saturated"] > 0
