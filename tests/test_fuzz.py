"""The file and config parsers, fed mutated valid files, either load them or
raise their typed error (FormatError for files, ConfigError for configs);
the command line, fed mutated argv, exits with a documented code."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdcembed.cli import OUT_DIR_ENV, _parse_assignment_file, main
from vdcembed.errors import ConfigError, FormatError
from vdcembed.scheduler import parse_policy_config
from vdcembed.topology import (
    build_fat_tree,
    dump_substrate,
    load_requests,
    load_substrate,
    parse_workload_config,
)

REQUESTS = """\
requests 1
request r0
vm vm0 1 256
vm vm1 2 512
vswitch vs0 edge 10
vswitch vs1 internal 12
vlink vl0 vs0 vm0 5
vlink vl1 vs0 vm1 5
vlink vl2 vs0 vs1 20
meta 0.0 10.0 3 vm0=s0,s1 vm1=s1
request r1
vm vm0 1 256
vswitch vs0 edge 10
vlink vl0 vs0 vm0 5
meta 1.5 20.0 -
"""

POLICY = """\
f=3/2
swap_ceiling=8
batch_width=3
patience=50.0
batch_min_pending=2
solver_node_limit=400
solver_wall_ms=0
remap_limit=3
vm_move_weighting=false
"""

WORKLOAD = """\
# a small workload
vm_count=2:6
vm_cores=1:2
vm_memory_mb=256
vswitch_count=2:3
vswitch_memory=10:25
vlink_bandwidth=5:200
duration=10:90
arrival_rate=4
horizon=150
seed=12
"""

ASSIGNMENT = """\
assignments 1
embedded r0 1
embedded r1 0
assign vm r0 vm0 s0
assign vm r0 vm1 s1
assign vswitch r0 vs0 e0_0
assign vswitch r0 vs1 a0_0
assign vlink r0 vl0 e0_0 s0 0
assign vlink r0 vl1 e0_0 s1 0
assign vlink r0 vl2 e0_0 a0_0 0
"""

# values that tend to break number parsing, id lookups and range checks
TOKENS = st.sampled_from(
    ["", "0", "1", "-1", "2", "1.5", "3/2", "0/0", "nan", "inf", "-inf", "1e309",
     "99999999999999999999", "0x10", "1_000", "x", "-", ":", "=", ",", "#", "1:2:3",
     "3:1", "edge", "internal", "true", "s0", "vm0", "vs0", "e0_0", "r0", "é", "\x00"]
) | st.text(max_size=6)

SEPARATORS = re.compile(r"([ =:,/])")


@st.composite
def mutated(draw, text):
    """text with one to four edits: a token replaced, a line dropped,
    repeated, swapped with the next, inserted, or the file cut short."""
    lines = [SEPARATORS.split(line) for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["token", "token", "drop", "repeat", "swap", "insert", "cut"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert" or not lines:
            lines.insert(i, [" ".join(draw(st.lists(TOKENS, max_size=6)))])
        elif op == "token":
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i][j] = draw(TOKENS)
        elif op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, list(lines[i]))
        elif op == "swap":
            lines[i : i + 2] = lines[i : i + 2][::-1]
        else:
            del lines[i:]
    return "\n".join("".join(parts) for parts in lines) + "\n"


PARSERS = [
    (load_substrate, dump_substrate(build_fat_tree(2)), FormatError),
    (load_requests, REQUESTS, FormatError),
    (_parse_assignment_file, ASSIGNMENT, FormatError),
    (parse_policy_config, POLICY, ConfigError),
    (parse_workload_config, WORKLOAD, ConfigError),
]


@pytest.mark.parametrize(
    "parse, text, error", PARSERS, ids=[parse.__name__ for parse, _, _ in PARSERS]
)
def test_parser_loads_or_raises_its_error(parse, text, error):
    parse(text)  # the unmutated file loads

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(mutated(text))
    def check(fuzzed):
        try:
            parse(fuzzed)
        except error:
            pass

    check()


# cli.main, fed mutated argv over small files, returns or exits with a
# documented code; values are drawn per option from short lists, so no argv
# asks for a large tree, a long sweep or a long horizon
CLI_FILES = {
    "sub.txt": dump_substrate(build_fat_tree(2)),
    "req.txt": REQUESTS,
    # what `vdcembed solve` writes for REQUESTS on the k=2 tree
    "asg.txt": """\
assignments 1
embedded r0 1
embedded r1 1
assign vm r0 vm1 s1
assign vm r0 vm0 s1
assign vswitch r0 vs0 e1_0
assign vswitch r0 vs1 a1_0
assign vlink r0 vl0 e1_0 s1 0
assign vlink r0 vl1 e1_0 s1 0
assign vlink r0 vl2 e1_0 a1_0 0
assign vm r1 vm0 s0
assign vswitch r1 vs0 e0_0
assign vlink r1 vl0 e0_0 s0 0
""",
    "pol.cfg": POLICY,
    "wl.cfg": WORKLOAD,
}

FILES = ["sub.txt", "req.txt", "asg.txt", "pol.cfg", "wl.cfg", "missing.txt", ".", "out", ""]
NUMBERS = ["0", "1", "-1", "2", "x", "1.5", ""]
CLI_VALUES = {
    "--k": ["2", "0", "3", "-2", "4", "x"],
    "--lambdas": ["1", "0", "-1", "1:2", "2:1", "1,2.5", ",", "nan", "x", ""],
    "--mode": ["hybrid", "batch-only", "online-only", "batch"],
    "--f": ["2", "3/2", "0", "-1", "0/0", "nan", "inf", "x"],
    "--seed": ["1", "-1", "99999999999999999999", "x"],
    "--node-limit": ["0", "1", "200", "-1", "x"],
    **{opt: NUMBERS for opt in (
        "--audit-every", "--wall-ms", "--cpu-cores", "--memory-mb", "--switch-memory",
        "--bw-core-agg", "--bw-agg-edge", "--bw-edge-server", "--delay-core-agg",
        "--delay-agg-edge", "--delay-edge-server",
    )},
    **{opt: FILES for opt in (
        "--out", "--config", "--substrate", "--workload", "--policy", "--requests",
        "--assignment",
    )},
}
CLI_TOKENS = st.sampled_from(
    sorted(CLI_VALUES) + FILES + NUMBERS + ["--verbose", "--help", "--", "-", "run", "é"]
)

# each command's argv that runs, and the options it takes
CLI_COMMANDS = {
    "gen-topology": (
        ["--k", "2", "--out", "out/sub.txt"],
        ["--k", "--out", "--cpu-cores", "--memory-mb", "--switch-memory", "--bw-core-agg",
         "--bw-agg-edge", "--bw-edge-server", "--delay-core-agg", "--delay-agg-edge",
         "--delay-edge-server"],
    ),
    "gen-workload": (["--config", "wl.cfg", "--out", "out/req.txt"], ["--config", "--out", "--seed"]),
    "run": (
        ["--substrate", "sub.txt", "--workload", "wl.cfg", "--policy", "pol.cfg", "--out", "out",
         "--lambdas", "1", "--audit-every", "1"],
        ["--substrate", "--workload", "--policy", "--mode", "--out", "--seed", "--lambdas",
         "--audit-every"],
    ),
    "solve": (
        ["--substrate", "sub.txt", "--requests", "req.txt", "--out", "out/asg.txt"],
        ["--substrate", "--requests", "--f", "--node-limit", "--wall-ms", "--out"],
    ),
    "validate": (
        ["--substrate", "sub.txt", "--requests", "req.txt", "--assignment", "asg.txt"],
        ["--substrate", "--requests", "--assignment"],
    ),
}


@st.composite
def mutated_argv(draw):
    """A command's argv that runs with one to three edits: most often a
    value redrawn from its option's list or an option of the command
    appended with a value, else a token dropped or replaced by any token."""
    command = draw(st.sampled_from(sorted(CLI_COMMANDS)))
    flags, options = CLI_COMMANDS[command]
    argv = [command, *flags]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["value"] * 4 + ["option"] * 2 + ["drop", "token"]))
        values = [i for i in range(1, len(argv)) if argv[i - 1] in CLI_VALUES]
        if op == "value" and values:
            i = draw(st.sampled_from(values))
            argv[i] = draw(st.sampled_from(CLI_VALUES[argv[i - 1]]))
        elif op == "option":
            option = draw(st.sampled_from(options))
            argv += [option, draw(st.sampled_from(CLI_VALUES[option]))]
        elif op in ("drop", "token") and argv:
            i = draw(st.integers(0, len(argv) - 1))
            argv[i : i + 1] = [] if op == "drop" else [draw(CLI_TOKENS)]
    return argv


def test_cli_argv_exits_with_a_documented_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)

    def write_files():  # an argv may overwrite them
        for name, text in CLI_FILES.items():
            (tmp_path / name).write_text(text)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(mutated_argv())
    def check(argv):
        write_files()
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        assert code in (0, 1, 2, 3), argv

    for command, (flags, _) in CLI_COMMANDS.items():
        write_files()
        assert main([command, *flags]) == 0, command  # the unmutated argv runs
    check()
