"""The library names the benchmark harness under perfbench/ wraps or imports.

perfbench/ is loaded from outside the package, so a rename under src/ would
only show when the benchmark runs; this test makes it show in the suite.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from vdcembed.metrics import resequence, serialize_trace
from vdcembed.paths import PathTable, enumerate_paths
from vdcembed.scheduler import PolicyConfig, run_simulation
from vdcembed.topology import build_fat_tree

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# sha256 of the trace of each workload's first simulation at seed 1; a change
# that alters decisions on purpose updates these and says so in CHANGES.md
FIRST_TRACE_SHA256 = {
    "batch-k4": "18fbf3b2570abba489bacbe29f821c8a00c7e427f400461c21f036407e491cbf",
    "online-k8": "e7626e2813449005d42bbdf90e6f407c46571b2d32dae951afdce1382682e53b",
}


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


def test_path_table_pairs_resolves():
    # perfbench/run.py counts path records through it, outside the traced targets
    assert "pairs" in PathTable.__dict__


@pytest.mark.parametrize("name", sorted(FIRST_TRACE_SHA256))
def test_first_simulation_trace_unchanged(perfbench_modules, name):
    _, workloads = perfbench_modules
    wl = workloads.WORKLOADS[name]
    net = build_fat_tree(wl.k)
    seed = workloads.sub_seeds(1, wl)[0]
    records = run_simulation(
        net,
        wl.config,
        workloads.SWEEP_POLICY,
        run_mode=wl.run_mode,
        lam=0.0,
        seed=seed,
        table=enumerate_paths(net),
        extra_events=workloads.simulation_events(wl, seed),
        audit_every=wl.audit_every,
    )
    text = serialize_trace(resequence(records))
    assert hashlib.sha256(text.encode()).hexdigest() == FIRST_TRACE_SHA256[name]
