"""The benchmark's tracer binds its hooks by name.

``perfbench/tracing.py`` wraps engine, wire and serving functions by
attribute name, so renaming or deleting one under ``src/`` breaks every
traced benchmark run with an ``AttributeError``.  This installs the three
in-process hook sets on a fresh tracer and checks that uninstalling puts
every original back.  ``install_worker_dumps`` is left out: it replaces
the farm's worker body with no undo.
"""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def test_hooks_install_and_uninstall(tracing):
    tracer = tracing.Tracer()
    try:
        tracing.install_engine(tracer)
        tracing.install_wire(tracer)
        tracing.install_serving(tracer)
        wrapped = list(tracer._undo)
        assert wrapped
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, (owner, attr)
