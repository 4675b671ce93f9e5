"""The file and config parsers, fed mutated valid files, either load them or
raise their typed error (FormatError for files, ConfigError for configs)."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdcembed.cli import _parse_assignment_file
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
