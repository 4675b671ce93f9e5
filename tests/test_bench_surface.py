"""The library names the benchmark harness under perfbench/ wraps or imports.

perfbench/ is loaded from outside the package, so a rename under src/ would
only show when the benchmark runs; this test makes it show in the suite.
"""

import sys
from pathlib import Path

import pytest

from vdcembed.scheduler import PolicyConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
        import workloads

        yield tracer, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_target_resolves(perfbench_modules):
    tracer, _ = perfbench_modules
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracer.TARGETS
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_sweep_policy_builds(perfbench_modules):
    _, workloads = perfbench_modules
    assert isinstance(workloads.SWEEP_POLICY, PolicyConfig)
