"""The benchmark in perfbench/ reaches the library by name: every name it
looks up must exist.  This reads perfbench/ and changes nothing in it;
run.py is not imported, since it sets thread variables on import."""

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("spans"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_layer_resolves(bench):
    spans, _ = bench
    for name in spans.LAYERS:
        # as Recorder.install does: a module, then attributes down the path
        module, *path = name.split(".")
        owner = importlib.import_module(f"chevtwist.{module}")
        for attr in path:
            assert hasattr(owner, attr), name
            owner = getattr(owner, attr)


def test_caches_the_benchmark_clears_exist(bench):
    from chevtwist import groups, polyring

    assert hasattr(groups.enumerate_group, "cache_clear")
    assert hasattr(groups.enumerate_group, "cache_info")
    assert hasattr(polyring.monic_irreducibles, "cache_clear")
