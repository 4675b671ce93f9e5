"""Command-line interface: generate inputs, run simulations, solve, validate.

Exit codes are a stable scripting contract: 0 success or valid negative
answer, 1 usage/input error, 2 validation failure, 3 budget-exhausted
incumbent (a solution was found but optimality was not proven).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from fractions import Fraction

from . import metrics as metrics_mod
from .batch_solver import SolveBudget, build_mip, solve_exact
from .errors import ConfigError, FormatError, UnknownElementError, VdcembedError
from .paths import enumerate_paths
from .scheduler import RUN_MODES, PolicyConfig, parse_policy_config, run_simulation
from .state import Assignment, EmbeddingState
from .topology import (
    ResourceVector,
    build_fat_tree,
    check_rate,
    dump_requests,
    dump_substrate,
    load_requests,
    load_substrate,
    parse_workload_config,
    poisson_arrivals,
    validate_request,
    validate_substrate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_INCUMBENT = 3

OUT_DIR_ENV = "VDCEMBED_OUT"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    try:
        with open(path) as fp:
            return fp.read()
    except OSError as err:
        raise VdcembedError(f"cannot read {path}: {err}") from err


def _write(path: str, text: str):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fp:
        fp.write(text)


def cmd_gen_topology(args) -> int:
    net = build_fat_tree(
        args.k,
        server_capacity=ResourceVector(cpu_cores=args.cpu_cores, memory_mb=args.memory_mb),
        switch_memory=args.switch_memory,
        bandwidth_profile=(args.bw_core_agg, args.bw_agg_edge, args.bw_edge_server),
        delay_profile=(args.delay_core_agg, args.delay_agg_edge, args.delay_edge_server),
    )
    findings = validate_substrate(net)
    if findings:
        raise ConfigError("; ".join(str(f) for f in findings))
    _write(args.out, dump_substrate(net))
    print(f"wrote {args.out}: {len(net.servers)} servers, {len(net.switches)} switches")
    return EXIT_OK


def cmd_gen_workload(args) -> int:
    cfg = parse_workload_config(_read(args.config))
    seed = args.seed if args.seed is not None else cfg.seed
    requests = poisson_arrivals(cfg, cfg.arrival_rate, seed)
    _write(args.out, dump_requests(requests))
    print(f"wrote {args.out}: {len(requests)} requests over horizon {cfg.horizon:g}")
    return EXIT_OK


def _parse_lambdas(text: str) -> list[float]:
    try:
        if ":" in text:
            lo, hi = text.split(":")
            lambdas = [float(v) for v in range(int(lo), int(hi) + 1)]
        else:
            lambdas = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ConfigError(f"--lambdas: expected 'low:high' or 'a,b,...', got {text!r}") from None
    if not lambdas:
        raise ConfigError(f"--lambdas: {text!r} names no rate")
    return [check_rate("--lambdas", lam) for lam in lambdas]


def _nonnegative(args, *names):
    """ConfigError when a numeric command-line option is below zero."""
    for name in names:
        if getattr(args, name) < 0:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag}: must be >= 0, got {getattr(args, name)}")


def cmd_run(args) -> int:
    _nonnegative(args, "audit_every")
    # parse every referenced file before any work starts
    net = load_substrate(_read(args.substrate))
    workload = parse_workload_config(_read(args.workload))
    policy = parse_policy_config(_read(args.policy)) if args.policy else PolicyConfig()
    out_dir = os.environ.get(OUT_DIR_ENV, args.out)
    seed = args.seed if args.seed is not None else workload.seed
    lambdas = [workload.arrival_rate] if args.lambdas is None else _parse_lambdas(args.lambdas)
    findings = validate_substrate(net)
    if findings:
        return _report_findings(findings)

    table = enumerate_paths(net)
    records = []
    for lam in lambdas:
        records.extend(
            run_simulation(
                net,
                workload,
                policy,
                run_mode=args.mode,
                lam=lam,
                seed=seed,
                table=table,
                audit_every=args.audit_every,
            )
        )
    records = metrics_mod.resequence(records)
    report = metrics_mod.aggregate(records)
    paths = metrics_mod.write_csv(report, out_dir)
    _write(os.path.join(out_dir, "trace.log"), metrics_mod.serialize_trace(records))
    for row in report.rows:
        rate = "n/a" if row.rate is None else f"{row.rate:.4f}"
        print(f"lambda={row.lam:g} arrivals={row.arrivals} accepted={row.accepted} rate={rate}")
    print(f"wrote {', '.join(paths)} and trace.log under {out_dir}")
    return EXIT_OK


def cmd_solve(args) -> int:
    _nonnegative(args, "node_limit", "wall_ms")
    try:
        f = Fraction(args.f)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"--f: expected a rational number, got {args.f!r}") from None
    net = load_substrate(_read(args.substrate))
    requests = load_requests(_read(args.requests))
    findings = validate_substrate(net) + [f for req in requests for f in validate_request(req, net)]
    if findings:
        return _report_findings(findings)
    if not requests:
        print("0 embedded (empty request set)")
        return EXIT_OK
    state = EmbeddingState(net, enumerate_paths(net))
    model = build_mip(state, requests, switch_penalty_divisor=f)
    sol = solve_exact(model, SolveBudget(args.node_limit, args.wall_ms))
    if args.verbose:
        for line in sol.stats_lines():
            print(line, file=sys.stderr)
    if sol.status == "no-solution":
        print("no solution found within budget")
        return EXIT_INCUMBENT
    embedded = [rid for rid, a in sol.embedded.items() if a is not None]
    print(f"objective {float(sol.objective):.4f}")
    print(f"{len(embedded)} embedded of {len(requests)}")
    if args.out:
        _write(args.out, _format_assignment_file(requests, sol.embedded))
        print(f"wrote {args.out}")
    return EXIT_OK if sol.optimal else EXIT_INCUMBENT


# the assignment file: a header, one `embedded <request> 0|1` line per request,
# then `assign vm|vswitch <request> <element> <host>` and
# `assign vlink <request> <vlink> <node a> <node b> <path index>` records
_ASSIGN_FIELDS = {"vm": 5, "vswitch": 5, "vlink": 7}


def _format_assignment_file(requests, embedded: dict) -> str:
    lines = ["assignments 1"]
    for req in requests:
        lines.append(f"embedded {req.id} {1 if embedded.get(req.id) is not None else 0}")
    for req in requests:
        a = embedded.get(req.id)
        if a is None:
            continue
        for vm_id, pm in a.vm_map.items():
            lines.append(f"assign vm {req.id} {vm_id} {pm}")
        for vs_id, ps in a.vswitch_map.items():
            lines.append(f"assign vswitch {req.id} {vs_id} {ps}")
        for vl_id, (pa, pb, n) in a.vlink_map.items():
            lines.append(f"assign vlink {req.id} {vl_id} {pa} {pb} {n}")
    return "\n".join(lines) + "\n"


def _parse_assignment_file(text: str):
    """(embedded flags, assignments by request id); FormatError on any bad line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["assignments", "1"]:
        raise FormatError("bad assignment file header")
    embedded: dict[str, bool] = {}
    slots: dict[str, dict] = {}
    for raw in lines[1:]:
        parts = raw.split()
        kind = parts[1] if len(parts) > 1 else ""
        if parts[0] == "embedded" and len(parts) == 3 and parts[2] in ("0", "1"):
            if parts[1] in embedded:
                raise FormatError(f"repeated embedded line in assignment file: {raw!r}")
            embedded[parts[1]] = parts[2] == "1"
        elif parts[0] == "assign" and len(parts) == _ASSIGN_FIELDS.get(kind):
            slot = slots.setdefault(parts[2], {"vm": {}, "vswitch": {}, "vlink": {}})
            # a request's VMs, vSwitches and vlinks share one id space
            if any(parts[3] in placed for placed in slot.values()):
                raise FormatError(f"repeated assign record in assignment file: {raw!r}")
            if kind == "vlink":
                try:
                    slot[kind][parts[3]] = (parts[4], parts[5], int(parts[6]))
                except ValueError:
                    raise FormatError(f"bad path index in {raw!r}") from None
            else:
                slot[kind][parts[3]] = parts[4]
        else:
            raise FormatError(f"bad assignment line: {raw!r}")
    return embedded, {
        rid: Assignment(rid, s["vm"], s["vswitch"], s["vlink"]) for rid, s in slots.items()
    }


def cmd_validate(args) -> int:
    net = load_substrate(_read(args.substrate))
    findings = validate_substrate(net)
    requests = []
    if args.requests:
        requests = load_requests(_read(args.requests))
        for req in requests:
            findings.extend(validate_request(req, net))
    problems = [str(f) for f in findings]

    if args.assignment:
        if not args.requests:
            print("--assignment requires --requests", file=sys.stderr)
            return EXIT_USAGE
        embedded, assignments = _parse_assignment_file(_read(args.assignment))
        table = enumerate_paths(net)
        state = EmbeddingState(net, table)
        by_id = {req.id: req for req in requests}
        # the requests flagged 1 are exactly those with assign records
        for rid in dict.fromkeys([*embedded, *assignments]):
            if rid not in by_id:
                problems.append(f"[unknown-request] {rid}")
            elif embedded.get(rid, False) != (rid in assignments):
                why = "not flagged 1 but has" if rid in assignments else "flagged 1 but has no"
                problems.append(f"{rid}: [embedded-flag] {why} assign records")
        for rid, a in assignments.items():
            if rid not in by_id:
                continue
            try:
                violations = state.check_assignment(by_id[rid], a)
            except UnknownElementError as err:
                problems.append(f"{rid}: [unknown-element] {err}")
                continue
            if violations:
                problems.extend(f"{rid}: {v}" for v in violations)
            else:
                state.commit(by_id[rid], a)

    if problems:
        return _report_findings(problems)
    print("ok")
    return EXIT_OK


def _report_findings(findings) -> int:
    """Print each finding and their count to stderr; the validation exit code."""
    for finding in findings:
        print(finding, file=sys.stderr)
    print(f"{len(findings)} finding(s)", file=sys.stderr)
    return EXIT_INVALID


def build_parser() -> _Parser:
    parser = _Parser(prog="vdcembed", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true", help="debug traces to stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-topology", help="write a fat-tree substrate file", parents=[common])
    p.add_argument("--k", type=int, required=True, help="fat-tree arity (even)")
    p.add_argument("--out", required=True)
    p.add_argument("--cpu-cores", type=int, default=8)
    p.add_argument("--memory-mb", type=int, default=16384)
    p.add_argument("--switch-memory", type=int, default=100)
    p.add_argument("--bw-core-agg", type=int, default=10000)
    p.add_argument("--bw-agg-edge", type=int, default=1000)
    p.add_argument("--bw-edge-server", type=int, default=1000)
    p.add_argument("--delay-core-agg", type=int, default=1)
    p.add_argument("--delay-agg-edge", type=int, default=1)
    p.add_argument("--delay-edge-server", type=int, default=1)
    p.set_defaults(func=cmd_gen_topology)

    p = sub.add_parser("gen-workload", help="draw a request set from a workload config", parents=[common])
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen_workload)

    p = sub.add_parser("run", help="simulate arrivals/departures and write metrics CSVs", parents=[common])
    p.add_argument("--substrate", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--policy", default=None)
    p.add_argument("--mode", choices=RUN_MODES, default="hybrid")
    p.add_argument("--out", required=True, help=f"output dir (env {OUT_DIR_ENV} overrides)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lambdas", default=None, help="sweep: '1:10' or '1,2.5,7'")
    p.add_argument("--audit-every", type=int, default=0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("solve", help="one-shot batch embedding of a request file", parents=[common])
    p.add_argument("--substrate", required=True)
    p.add_argument("--requests", required=True)
    p.add_argument("--f", default="2", help="switch-move penalty divisor (rational)")
    p.add_argument("--node-limit", type=int, default=200000)
    p.add_argument("--wall-ms", type=int, default=0)
    p.add_argument("--out", default=None, help="assignment file to write")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="check substrate/request/assignment files", parents=[common])
    p.add_argument("--substrate", required=True)
    p.add_argument("--requests", default=None)
    p.add_argument("--assignment", default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except VdcembedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
