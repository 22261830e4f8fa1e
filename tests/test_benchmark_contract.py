"""The entry points the benchmark in perfbench/ spans must exist in inflap.

The traced benchmark run drops the metrics of an entry point it cannot
find and marks a run incorrect when a workload's listed entry point is
never called, so a renamed or deleted entry point changes what the run
reports.  These tests read the benchmark's own tables and resolve every
name against this version of the package.
"""

import importlib.util
import inspect
import os

import pytest

import inflap

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(BENCH, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def _resolves(name):
    layer, *rest = name.split(".")
    mod = getattr(inflap, layer, None)
    if len(rest) == 1:
        fn = getattr(mod, rest[0], None)
        return inspect.isfunction(fn) and fn.__module__ == mod.__name__
    cls = getattr(mod, rest[0], None)
    return cls is not None and rest[1] in vars(cls)


def test_workload_entry_points_resolve():
    workloads = _load("workloads")
    names = {n for wl in workloads.WORKLOADS.values()
             for n in wl.ENTRY_POINTS}
    assert names
    assert sorted(n for n in names if not _resolves(n)) == []


def test_traced_methods_resolve(tracing):
    for (layer, cls, meth), name in tracing.METHODS.items():
        assert name == "%s.%s.%s" % (layer, cls, meth)
        assert _resolves(name), name


def test_no_traced_metric_absent(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        absent = tracing.absent_metrics(tracer)
    finally:
        tracer.uninstall()
    assert absent == []
