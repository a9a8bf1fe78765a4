"""The traced benchmark's hooks resolve against this checkout.

``perfbench/layers.py`` wraps named functions and methods of the
library, and ``install()`` raises on a name that no longer exists, so
renaming or deleting a hooked name would break the traced benchmark
run.  These tests install the hooks, check that each one replaced a
real attribute and sits on the service's call path, and check that
``uninstall()`` puts every original back.
"""

import importlib
import os

import pytest

from repro.service import SolveJob, SolverService

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    module = importlib.import_module("layers")
    assert os.path.dirname(os.path.abspath(module.__file__)) == PERFBENCH
    return module


def test_every_hook_resolves_and_is_restored(layers):
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    assert tracer._undo == []
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def test_service_spans_cover_plan_cache_and_pool(layers, tmp_path):
    jobs = [
        SolveJob(nu=6, p=0.02, landscape="random", seed=s, method="power", tol=1e-10)
        for s in (1, 2)
    ] + [SolveJob(nu=6, p=0.01)]
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        service = SolverService(kind="serial", cache_dir=str(tmp_path))
        report, root = tracer.root("op", service.submit, jobs)
    finally:
        tracer.uninstall()
    assert report.passed and report.n_batched == 2
    names = {span.name for span in root.spans}
    for name in ("build", "scheduler.plan", "cache.lookup", "cache.store", "pool.run",
                 "pool.job", "power.loop", "reduced"):
        assert name in names
