"""The benchmark's workloads and the inputs each derives from a seed.

A pass of a workload replays a fixed list of short, independent simulations.
Each simulation has its own sub-seed (`seed * 1000 + i`) and a pre-generated
event stream: a fixed number of arrivals spread over the horizon like a
Poisson process conditioned on its count.
Many short simulations with a fixed arrival count keep the run-to-run spread
across seeds low: the cost of one long stream depends strongly on whether it
happens to saturate the substrate early, and a random arrival count adds
spread of its own. The program only ever sees the generated inputs: the
workload config, the policy and the events.

A third workload, `churn-k4` (online-only with failures, scale-ups, swap
repair and an audit after every event), is held back: with the policy's
default swap ceiling, `Simulation._apply_online` can apply the incumbent
updates of a multi-swap embedding out of move order and raise
CommitRejectedError, so the workload cannot run without failures until that
is fixed. `hybrid-k4` was
dropped because its event cost is bimodal (see README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from vdcembed.scheduler import PolicyConfig, SimEvent
from vdcembed.topology import WorkloadConfig, generate_vdc_request

# the acceptance sweep's policy (tests/test_acceptance.py), used by every workload
SWEEP_POLICY = PolicyConfig(batch_width=3, solver_node_limit=500, remap_limit=4)


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    run_mode: str
    config: WorkloadConfig  # request size ranges, arrival rate and horizon
    simulations: int  # independent simulations per pass
    audit_every: int = 0

    @property
    def arrivals(self) -> int:
        """Arrivals per simulation: the expected count at the configured rate."""
        return round(self.config.arrival_rate * self.config.horizon / 100)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="batch-k4",  # build_mip and branch-and-bound; online never runs
            k=4,
            run_mode="batch-only",
            # tenants outlive the simulation, so after four arrivals every batch
            # pass re-places remap_limit=4 actives, which is where no-solution
            # results start (a quarter to a third of all solves); the audit after every
            # event is the workload's share of state.audit (a few percent)
            config=WorkloadConfig(
                vm_count=(4, 10),
                vswitch_count=(2, 4),
                duration=(100, 300),
                arrival_rate=10,
                horizon=100,
            ),
            # a simulation's cost varies more with its inputs here than on
            # online-k8 (coefficient of variation 0.26 against 0.12), so a pass
            # holds about as many simulations as one 45 s run completes
            simulations=32,
            audit_every=1,
        ),
        Workload(
            name="online-k8",  # greedy mapping at paper scale; the path table in set-up
            k=8,
            run_mode="online-only",
            # 15 arrivals leave the 128 servers unsaturated: a stream long enough to
            # fill them costs ~12 s and its cost varies too much between seeds
            config=WorkloadConfig(
                vm_count=(10, 30),
                vswitch_count=(3, 8),
                duration=(200, 600),
                arrival_rate=10,
                horizon=150,
            ),
            simulations=34,  # about 15 s a pass
        ),
    )
}


def sub_seeds(seed: int, wl: Workload) -> list[int]:
    return [seed * 1000 + i for i in range(wl.simulations)]


def _stratified(rng: random.Random, bounds: tuple[int, int], n: int) -> list[int]:
    """n integers from the inclusive range `bounds`, one from each of n equal
    slices of it, in random order: each value is as likely as under uniform
    draws, but their sum hardly varies."""
    lo, hi = bounds
    span = hi - lo + 1
    values = [lo + int((j + rng.random()) * span / n) for j in range(n)]
    rng.shuffle(values)
    return values


def simulation_events(wl: Workload, seed: int) -> tuple[SimEvent, ...]:
    """The arrivals of one simulation, in time order.

    Requests are drawn as run_simulation draws them (`generate_vdc_request`
    with a per-request stream, ids `r<i>`), except that each simulation's VM
    and vSwitch counts are stratified over their ranges instead of drawn
    independently. The vSwitch count sets much of a batch solve's cost, so
    stratifying removes part of the cost's spread between seeds without
    changing how often each request size occurs.
    """
    rng = random.Random(f"perfbench/{seed}")
    cfg = wl.config
    times = sorted(rng.uniform(0.0, cfg.horizon) for _ in range(wl.arrivals))
    vms = _stratified(rng, cfg.vm_count, wl.arrivals)
    vswitches = _stratified(rng, cfg.vswitch_count, wl.arrivals)
    return tuple(
        SimEvent(
            time=t,
            seq=i,
            kind="arrival",
            request=replace(
                generate_vdc_request(
                    replace(cfg, vm_count=(vms[i],) * 2, vswitch_count=(vswitches[i],) * 2),
                    t,
                    f"{seed}/req/{i}",
                ),
                id=f"r{i}",
            ),
        )
        for i, t in enumerate(times)
    )
