"""vdcembed benchmark: one workload per invocation, closed loop, single process.

    python3 perfbench/run.py --workload batch-k4 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

A run replays a fixed, seed-derived list of simulations through
`run_simulation` (the `vdcembed run` path) as fast as it can, each followed
by the same reporting step as `vdcembed run` (`resequence`, `aggregate`,
`write_csv`, `serialize_trace`). It goes through the list in order, round
after round, until every simulation has run once and `--seconds` have
passed. Each simulation runs with a probe of the machine's speed
(`speed.py`) before each event it processes, and its times are scaled to
the reference speed; a simulation counts with the median of its runs. The set-up is repeated between the
simulations of the first round, so its median samples the machine over the
run. With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it makes traced passes, reports per-layer metrics from spans
recorded around the library's public functions, and then times the first
simulations untraced and traced in turn for the tracing overhead.

Every run verifies its outputs: each simulation must aggregate with
accepted <= arrivals, every repeated simulation must reproduce its first
trace byte for byte, and the first simulation, run once more with a periodic
audit before timing starts, must raise no AuditError and produce the same
trace. Failures count against `attempted`, make `correct` false and the exit
code 1. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")

DEFAULT_SEED = 1
HELD_OUT_SEED = 424242  # for confirming a claim; never used while tuning
SETUP_MIN_REPS = 7  # set-ups per run; more (up to one per simulation) while
SETUP_MIN_S = 2.0  # they add up to under this many seconds
VERIFY_AUDIT_EVERY = 5
OVERHEAD_SIMS = 2  # simulations timed untraced and traced in turn ...
OVERHEAD_ROUNDS = 3  # ... this many times, for trace.overhead_s


def _load_library():
    """Import vdcembed from this checkout's src/ and nowhere else."""
    if not (SRC / "vdcembed" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no vdcembed sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vdcembed

    if Path(vdcembed.__file__).resolve().parent != SRC / "vdcembed":
        raise SystemExit(f"perfbench: imported vdcembed from {vdcembed.__file__}")


# -- quality block, folded from each simulation's trace ------------------------------


class TraceSummary:
    """Decision counts read from trace records; deterministic for a seed."""

    def __init__(self):
        self.records = 0
        self.status = Counter()  # batch solves: optimal | incumbent | no-solution
        self.decisions = Counter()  # by mode: batch | online | defer
        self.accepts = Counter()  # by the mode that admitted
        self.online = Counter()  # online decisions by outcome
        self.requeued = 0
        self.waits: list[float] = []  # simulated time from arrival to first accept

    def add(self, records):
        self.records += len(records)
        arrived = {}
        for rec in records:
            kind = rec.kind
            if kind == "arrival":
                arrived[rec.get("request")] = rec.time
            elif kind == "accept":
                self.accepts[rec.get("via")] += 1
                self.waits.append(rec.time - arrived[rec.get("request")])
            elif kind == "decision":
                mode = rec.get("mode")
                self.decisions[mode] += 1
                outcome = rec.get("outcome")
                if mode == "batch":
                    if outcome == "no-solution":
                        self.status["no-solution"] += 1
                    else:
                        self.status["optimal" if rec.get("optimal") == "true" else "incumbent"] += 1
                elif mode == "online":
                    self.online[outcome] += 1
            elif kind == "unembedded" or (kind == "displaced" and rec.get("outcome") == "requeued"):
                self.requeued += 1

    @property
    def batch_admission_share(self) -> float:
        total = sum(self.accepts.values())
        return self.accepts["batch"] / total if total else 0.0

    @property
    def online_accept_share(self) -> float:
        total = sum(self.online.values())
        return self.online["accept"] / total if total else 0.0

    def line(self) -> str:
        return (
            f"quality: batch_status optimal={self.status['optimal']} "
            f"incumbent={self.status['incumbent']} no-solution={self.status['no-solution']}; "
            f"scheduler.batch_admission_share={self.batch_admission_share:.4f}; "
            f"online_search.accept_share={self.online_accept_share:.4f}"
        )


# -- timed simulations ---------------------------------------------------------------


class Sample:
    """One timed simulation. `sim_s` and `latencies` (its Simulation.process
    calls) are seconds at the reference speed; `raw_s` is the wall time."""

    def __init__(self, sim_s, raw_s, latencies, row, digest):
        self.sim_s = sim_s
        self.raw_s = raw_s
        self.latencies = latencies
        self.row = row
        self.digest = digest


def simulate(wl, net, table, seed, events, audit_every):
    """One simulation through run_simulation: (records, wall seconds)."""
    from vdcembed import scheduler
    from workloads import SWEEP_POLICY

    start = time.perf_counter()
    records = scheduler.run_simulation(
        net,
        wl.config,
        SWEEP_POLICY,
        run_mode=wl.run_mode,
        lam=0.0,  # arrivals come pre-generated in `events`
        seed=seed,
        table=table,
        extra_events=events,
        audit_every=audit_every,
    )
    return records, time.perf_counter() - start


def report_step(records, out_dir):
    """The reporting step of `vdcembed run`: (records, report, trace sha256)."""
    from vdcembed import metrics

    records = metrics.resequence(records)
    report = metrics.aggregate(records)
    metrics.write_csv(report, str(out_dir))
    text = metrics.serialize_trace(records)
    (out_dir / "trace.log").write_text(text)
    return records, report, hashlib.sha256(text.encode()).hexdigest()


class Runs:
    """Every timed simulation of a run, grouped by simulation; the quality
    block and the report rows come from each simulation's first run."""

    def __init__(self, wl, net, table, inputs, out_dir):
        self.wl, self.net, self.table, self.inputs, self.out_dir = wl, net, table, inputs, out_dir
        self.samples: list[list[Sample]] = [[] for _ in inputs]
        self.summary = TraceSummary()
        self.attempted = 0
        self.failed = 0

    def run(self, i) -> Sample | None:
        """Simulation i with its Simulation.process calls timed and the
        machine's speed probed before each; None when it raised or failed
        its checks."""
        from speed import EventClock
        from vdcembed.scheduler import Simulation

        seed, events = self.inputs[i]
        self.attempted += 1
        try:
            with EventClock(Simulation, "process") as clock:
                records, wall_s = simulate(
                    self.wl, self.net, self.table, seed, events, self.wl.audit_every
                )
            records, report, digest = report_step(records, self.out_dir)
            (row,) = report.rows
            if row.accepted > row.arrivals:
                raise AssertionError(f"accepted {row.accepted} > arrivals {row.arrivals}")
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        raw_s = wall_s - clock.probe_s
        latencies = [d * scale for d, scale in zip(clock.calls, clock.scales())]
        # run_simulation's time outside the process calls, at the simulation's mean speed
        sim_s = sum(latencies) + (raw_s - sum(clock.calls)) * clock.scale()
        sample = Sample(sim_s, raw_s, latencies, row, digest)
        if not self.samples[i]:
            self.summary.add(records)
        self.samples[i].append(sample)
        return sample

    def first(self) -> list[Sample]:
        return [s[0] for s in self.samples if s]

    @property
    def digest(self) -> str:
        """sha256 over the traces of every simulation's first run."""
        return hashlib.sha256("".join(s.digest for s in self.first()).encode()).hexdigest()

    def totals(self):
        """(arrivals, acceptance rate, VM migration share) of the first runs."""
        rows = [s.row for s in self.first()]
        arrivals = sum(r.arrivals for r in rows)
        placed = sum(r.placed_vms for r in rows)
        return (
            arrivals,
            sum(r.accepted for r in rows) / arrivals if arrivals else 0.0,
            sum(r.vm_migrations for r in rows) / placed if placed else 0.0,
        )


def median_total(groups, attr="sim_s") -> float:
    """The sum over simulations of the median of their runs' `attr`."""
    return sum(statistics.median(getattr(x, attr) for x in g) for g in groups if g)


def setup(wl, seed):
    """Substrate, path table and every simulation's events; timed as setup_s."""
    from vdcembed import paths, topology
    from workloads import simulation_events, sub_seeds

    net = topology.build_fat_tree(wl.k)
    table = paths.enumerate_paths(net)
    inputs = [(s, simulation_events(wl, s)) for s in sub_seeds(seed, wl)]
    return net, table, inputs


class SetUps:
    """Times set-ups: one before the run, more spread over the first round.

    The repetitions run between simulations rather than all at the start, so
    their median is not taken from the process's first second alone. Each
    starts from a freshly collected heap and runs between two speed probes.
    """

    def __init__(self, wl, seed):
        self.wl, self.seed = wl, seed
        self.times: list[float] = []  # at the reference speed
        self.raw: list[float] = []
        self.slots: set[int] = set()

    def once(self):
        from speed import timed

        gc.collect()
        built, raw_s, scale = timed(setup, self.wl, self.seed)
        self.raw.append(raw_s)
        self.times.append(raw_s * scale)
        return built

    def first(self):
        """The set-up the run uses; plans the repetitions from its time."""
        built = self.once()
        sims = len(built[2])
        reps = min(sims, max(SETUP_MIN_REPS - 1, math.ceil(SETUP_MIN_S / self.raw[0])))
        self.slots = {j * sims // reps for j in range(reps)}
        return built

    def between(self, i):
        if i in self.slots:
            self.slots.discard(i)
            self.once()


# -- the two kinds of run -------------------------------------------------------------


def end_to_end(runs, seconds, setups):
    """Untraced simulations, in order and round after round, until every one
    has run and `seconds` have passed; returns (metrics, lines to print).

    Each simulation counts with the median of its runs, and each event with
    the median of its Simulation.process calls, all at the reference speed.
    """
    start = time.perf_counter()
    n = 0
    sims = len(runs.inputs)
    while n < sims or time.perf_counter() - start < seconds:
        setups.between(n)
        runs.run(n % sims)
        n += 1
    done = [s for s in runs.samples if s]
    sim_s = median_total(done)
    raw_s = median_total(done, "raw_s")
    latencies = [
        statistics.median(calls) for s in done for calls in zip(*(x.latencies for x in s))
    ]
    arrivals, acceptance, migration = runs.totals()
    out = {
        "setup_s": (statistics.median(setups.times), "s"),
        "arrivals_per_s": (arrivals / sim_s if sim_s else 0.0, "1/s"),
        "event_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "event_ms_p90": (
            1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "ms",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "acceptance_rate": (acceptance, "ratio"),
    }
    counts = [len(s) for s in runs.samples]
    notes = [
        f"setups={len(setups.times)} simulations={sims} runs={n} "
        f"(each simulation {min(counts)}-{max(counts)} times) arrivals={arrivals} "
        f"event_samples={len(latencies)}",
        f"wall clock, unscaled: arrivals_per_s={arrivals / raw_s if raw_s else 0.0:.6g} 1/s "
        f"setup_s={statistics.median(setups.raw):.6g} s; speed scale median "
        f"{statistics.median(x.sim_s / x.raw_s for s in done for x in s):.4g}",
        f"vm_migration_pct={migration:.6g} ratio (reported, not gated: it can be 0)",
    ]
    return out, notes


def per_layer(runs, seconds, tracer, setups, out_dir):
    """Traced passes over every simulation while the next one still fits in
    `seconds` (at least one), then the overhead slice; returns (metrics,
    lines to print).

    The slice is the first OVERHEAD_SIMS simulations, run untraced and traced
    in turn OVERHEAD_ROUNDS times under a tracer of their own;
    trace.overhead_s is the traced minus the untraced run_simulation seconds,
    each simulation taken at the median of its rounds, at the reference speed.
    """
    from tracer import Tracer

    start = time.perf_counter()
    passes = 0
    with tracer.active():
        while True:
            lap = time.perf_counter()
            for i in range(len(runs.inputs)):
                if passes == 0:
                    setups.between(i)
                runs.run(i)
            passes += 1
            now = time.perf_counter()
            if now - start + (now - lap) > seconds:
                break
    out = layer_metrics(tracer, runs, passes, len(setups.times))
    tracer.dump(out_dir / "spans.jsonl")

    head = range(min(OVERHEAD_SIMS, len(runs.inputs)))
    untraced, traced = ([[] for _ in head] for _ in range(2))
    for _ in range(OVERHEAD_ROUNDS):
        for i in head:
            untraced[i].append(runs.run(i))
        with Tracer().active():
            for i in head:
                traced[i].append(runs.run(i))
    untraced_s, traced_s = (
        median_total([[x for x in s if x] for s in side]) for side in (untraced, traced)
    )
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    notes = [
        f"setups={len(setups.times)} traced_passes={passes} spans={len(tracer.spans)} "
        f"-> {out_dir / 'spans.jsonl'}",
        f"trace.overhead_s over the first {len(head)} simulations "
        f"(untraced {untraced_s:.4g} s, traced {traced_s:.4g} s)",
    ]
    return out, notes


def layer_metrics(tracer, runs, n, setups):
    """Per-layer metrics: `_s` is self seconds per traced pass (per set-up for the
    set-up layers), wall clock; counts are per traced pass."""
    self_s = tracer.self_times()
    calls = tracer.counts
    summary = runs.summary
    table = runs.table

    def per_pass(name):
        return self_s.get(name, 0.0) / n

    def per_setup(name):
        return self_s.get(name, 0.0) / setups

    def count(name):
        return calls[name] / n

    def share(num, den):
        return num / den if den else 0.0

    vars_ = tracer.samples.get("vars", [0])
    rows = tracer.samples.get("rows", [0])
    solves = calls["batch_solver.solve_exact.calls"]
    solved = calls["solve.status.optimal"] + calls["solve.status.incumbent"]
    return {
        "batch_solver.build_mip_s": (per_pass("batch_solver.build_mip"), "s"),
        "batch_solver.build_mip_calls": (count("batch_solver.build_mip.calls"), "count"),
        "batch_solver.vars_mean": (statistics.mean(vars_), "count"),
        "batch_solver.rows_mean": (statistics.mean(rows), "count"),
        "batch_solver.solve_exact_s": (per_pass("batch_solver.solve_exact"), "s"),
        "batch_solver.nodes": (count("solve.nodes"), "count"),
        "batch_solver.nodes_per_s": (
            share(calls["solve.nodes"], self_s.get("batch_solver.solve_exact", 0.0)),
            "1/s",
        ),
        "batch_solver.extract_s": (per_pass("batch_solver.extract"), "s"),
        "batch_solver.status_optimal": (count("solve.status.optimal"), "count"),
        "batch_solver.status_incumbent": (count("solve.status.incumbent"), "count"),
        "batch_solver.status_no_solution": (count("solve.status.no-solution"), "count"),
        "batch_solver.solved_share": (share(solved, solves), "ratio"),
        "online_search.try_online_embed_s": (per_pass("online_search.try_online_embed"), "s"),
        "online_search.calls": (count("online_search.try_online_embed.calls"), "count"),
        "online_search.accept_share": (summary.online_accept_share, "ratio"),
        "online_search.greedy_temp_map_s": (per_pass("online_search.greedy_temp_map"), "s"),
        "online_search.greedy_calls": (count("online_search.greedy_temp_map.calls"), "count"),
        "online_search.swap_repair_s": (per_pass("online_search.swap_repair"), "s"),
        "online_search.swap_repair_calls": (count("online_search.swap_repair.calls"), "count"),
        "online_search.swaps": (count("online.swaps"), "count"),
        "online_search.compute_fragments_s": (per_pass("online_search.compute_fragments"), "s"),
        "state.commit_s": (per_pass("state.commit"), "s"),
        "state.commit_calls": (count("state.commit.calls"), "count"),
        "state.commit_rejected": (count("state.commit_rejected"), "count"),
        "state.release_s": (per_pass("state.release"), "s"),
        "state.check_assignment_s": (per_pass("state.check_assignment"), "s"),
        "state.check_assignment_calls": (count("state.check_assignment.calls"), "count"),
        "state.audit_s": (per_pass("state.audit"), "s"),
        "state.audit_incl_s": (sum(tracer.durations("state.audit")) / n, "s"),
        "state.audit_calls": (count("state.audit.calls"), "count"),
        "state.residual_vectors_s": (per_pass("state.residual_vectors"), "s"),
        "paths.enumerate_s": (per_setup("paths.enumerate"), "s"),
        "paths.records": (sum(len(table.get(a, b)) for a, b in table.pairs()), "count"),
        "topology.build_fat_tree_s": (per_setup("topology.build_fat_tree"), "s"),
        "topology.generate_request_s": (per_setup("topology.generate_request"), "s"),
        "topology.requests_generated": (calls["topology.requests"] / setups, "count"),
        "scheduler.process_self_s": (per_pass("scheduler.process"), "s"),
        "scheduler.events": (count("scheduler.process.calls"), "count"),
        "scheduler.decisions_batch": (summary.decisions["batch"], "count"),
        "scheduler.decisions_online": (summary.decisions["online"], "count"),
        "scheduler.decisions_defer": (summary.decisions["defer"], "count"),
        "scheduler.requeued": (summary.requeued, "count"),
        "scheduler.batch_admission_share": (summary.batch_admission_share, "ratio"),
        "scheduler.admit_wait_sim_p50": (
            statistics.median(summary.waits) if summary.waits else 0.0,
            "sim",
        ),
        "metrics.aggregate_s": (per_pass("metrics.aggregate"), "s"),
        "metrics.serialize_trace_s": (per_pass("metrics.serialize_trace"), "s"),
        "metrics.write_csv_s": (per_pass("metrics.write_csv"), "s"),
        "metrics.trace_records": (summary.records, "count"),
        "metrics.vm_migration_pct": (runs.totals()[2], "ratio"),
    }


# -- verification ---------------------------------------------------------------------


def audited_run(wl, net, table, inputs, out_dir) -> str | None:
    """The first simulation with a periodic audit: its trace sha256, or None
    when it raised. It runs before timing starts, so it also warms up."""
    seed, events = inputs[0]
    try:
        records, _ = simulate(wl, net, table, seed, events, VERIFY_AUDIT_EVERY)
        return report_step(records, out_dir)[2]
    except Exception:
        traceback.print_exc()
        return None


def verify(runs, audited: str | None) -> tuple[int, list[str]]:
    """Failed checks: every repeated simulation reproduces its first trace,
    and the audited run passed with the first simulation's trace."""
    repeats = [x.digest == s[0].digest for s in runs.samples for x in s[1:]]
    failed = repeats.count(False)
    notes = []
    if failed:
        notes.append(f"FAIL {failed} of {len(repeats)} repeated simulations changed their trace")
    elif repeats:
        notes.append(f"{len(repeats)} repeated simulations: traces identical")
    first = runs.samples[0][0].digest if runs.samples[0] else None
    if audited is None:
        failed += 1
        notes.append("FAIL the audited run raised")
    elif audited != first:
        failed += 1
        notes.append("FAIL the audited run's trace differs from the timed run's")
    else:
        notes.append(f"audited run (audit_every={VERIFY_AUDIT_EVERY}): trace identical")
    return failed, notes


# -- entry points -----------------------------------------------------------------------


def run_workload(name, seed, seconds, trace) -> int:
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    print(
        f"workload={wl.name} seed={seed} mode={wl.run_mode} k={wl.k} "
        f"simulations={wl.simulations} arrivals_each={wl.arrivals} "
        f"horizon={wl.config.horizon:g} trace={trace}"
    )
    setups = SetUps(wl, seed)
    if trace:
        tracer = Tracer()
        with tracer.active():
            net, table, inputs = setups.first()
    else:
        net, table, inputs = setups.first()
    audited = audited_run(wl, net, table, inputs, out_dir)
    runs = Runs(wl, net, table, inputs, out_dir)
    if trace:
        metrics_out, notes = per_layer(runs, seconds, tracer, setups, out_dir)
    else:
        metrics_out, notes = end_to_end(runs, seconds, setups)
    v_failed, v_notes = verify(runs, audited)
    attempted = runs.attempted + 1
    failed = runs.failed + v_failed

    for line in notes + v_notes:
        print(line)
    print(runs.summary.line())
    print(f"trace_sha256={runs.digest}")
    for key, (value, unit) in metrics_out.items():
        print(f"{key}={value:.6g} {unit}")
    print(f"error_share={failed / attempted:.4f} ({failed} of {attempted} runs)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_out.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


def run_subprocess(workload, seed, seconds, trace) -> tuple[dict | None, str]:
    """One workload in a fresh process: its result line (None when it printed
    none) and its whole standard output."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout
    except (IndexError, ValueError):
        return None, proc.stdout


def run_all(seed, seconds, trace) -> int:
    """Every workload, one process after the other; ends with the total error_share."""
    from workloads import WORKLOADS

    attempted = failed = 0
    for name in WORKLOADS:
        result, stdout = run_subprocess(name, seed, seconds, trace)
        print(stdout.strip() + "\n")
        if result is None:
            # the workload died before its result line: one failed run
            attempted += 1
            failed += 1
        else:
            attempted += result["attempted"]
            failed += result["failed"]
    print(f"error_share={failed / attempted:.4f} ({failed} of {attempted} runs, all workloads)")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
