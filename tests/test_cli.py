"""CLI subcommands, exit codes, and file outputs."""

import os

import pytest

from conftest import read_csv
from vdcembed.cli import main
from vdcembed.metrics import ACCEPTANCE_HEADER
from vdcembed.topology import load_requests, load_substrate


WORKLOAD = """\
vm_count=2:6
vswitch_count=2:3
arrival_rate=4
horizon=120
seed=9
"""

REQUEST = """\
requests 1
request r0
vm vm0 1 256
vswitch vs0 edge 10
vlink vl0 vs0 vm0 5
meta 0.0 10.0 -
"""

POLICY = """\
f=2
batch_width=3
solver_node_limit=400
remap_limit=3
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "workload.cfg").write_text(WORKLOAD)
    (tmp_path / "policy.cfg").write_text(POLICY)
    return tmp_path


class TestGenTopology:
    def test_k4(self, workdir, capsys):
        assert main(["gen-topology", "--k", "4", "--out", "dc.txt"]) == 0
        net = load_substrate((workdir / "dc.txt").read_text())
        assert len(net.servers) == 16
        assert len(net.switches) == 20

    def test_odd_k_exits_one(self, workdir, capsys):
        assert main(["gen-topology", "--k", "3", "--out", "dc.txt"]) == 1
        assert "even" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, rules",
        [
            (["--cpu-cores", "-1"], ["server-capacity-positive"]),
            (["--memory-mb", "0"], ["server-capacity-positive"]),
            (["--switch-memory", "0"], ["switch-capacity-positive"]),
            (
                ["--bw-edge-server", "0", "--delay-core-agg", "-3"],
                ["link-bandwidth-positive", "link-delay-negative"],
            ),
        ],
    )
    def test_bad_capacity_flags_exit_one(self, workdir, capsys, flags, rules):
        assert main(["gen-topology", "--k", "2", "--out", "dc.txt", *flags]) == 1
        err = capsys.readouterr().err
        assert all(rule in err for rule in rules)
        assert not (workdir / "dc.txt").exists()

    def test_rerun_identical(self, workdir, capsys):
        assert main(["gen-topology", "--k", "6", "--out", "dc.txt"]) == 0
        first = (workdir / "dc.txt").read_text()
        main(["gen-topology", "--k", "6", "--out", "dc.txt"])
        assert (workdir / "dc.txt").read_text() == first


class TestGenWorkload:
    def test_deterministic(self, workdir):
        assert main(["gen-workload", "--config", "workload.cfg", "--out", "a.req"]) == 0
        assert main(["gen-workload", "--config", "workload.cfg", "--out", "b.req"]) == 0
        assert (workdir / "a.req").read_text() == (workdir / "b.req").read_text()
        reqs = load_requests((workdir / "a.req").read_text())
        assert reqs
        assert all(r.arrival_time <= 120 for r in reqs)

    def test_zero_horizon_empty(self, workdir):
        (workdir / "zero.cfg").write_text("horizon=0\nseed=1\n")
        assert main(["gen-workload", "--config", "zero.cfg", "--out", "z.req"]) == 0
        assert load_requests((workdir / "z.req").read_text()) == []

    @pytest.mark.parametrize("horizon", ["inf", "nan", "-1"])
    def test_unbounded_horizon_exits_one_before_drawing(
        self, workdir, capsys, monkeypatch, horizon
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("arrival stream started")

        monkeypatch.setattr("vdcembed.cli.poisson_arrivals", no_draw)
        (workdir / "endless.cfg").write_text(f"horizon={horizon}\narrival_rate=5\n")
        assert main(["gen-workload", "--config", "endless.cfg", "--out", "e.req"]) == 1
        assert capsys.readouterr().err.startswith("error: horizon must be finite")
        assert not (workdir / "e.req").exists()

    def test_missing_config(self, workdir, capsys):
        assert main(["gen-workload", "--config", "nope.cfg", "--out", "x.req"]) == 1
        assert "nope.cfg" in capsys.readouterr().err


class TestRun:
    def test_run_and_determinism(self, workdir):
        main(["gen-topology", "--k", "4", "--out", "dc.txt"])
        args = [
            "run",
            "--substrate", "dc.txt",
            "--workload", "workload.cfg",
            "--policy", "policy.cfg",
            "--mode", "hybrid",
            "--seed", "3",
            "--out", "out1",
        ]
        assert main(args) == 0
        args[-1] = "out2"
        assert main(args) == 0
        for name in ("acceptance.csv", "migrations.csv", "utilization.csv", "trace.log"):
            a = (workdir / "out1" / name).read_bytes()
            b = (workdir / "out2" / name).read_bytes()
            assert a == b, name

    def test_lambda_sweep_rows(self, workdir):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        (workdir / "tiny.cfg").write_text(
            "vm_count=1:2\nvswitch_count=1:1\nhorizon=60\nseed=2\narrival_rate=2\n"
        )
        code = main(
            [
                "run",
                "--substrate", "dc2.txt",
                "--workload", "tiny.cfg",
                "--mode", "online-only",
                "--lambdas", "1:10",
                "--out", "sweep",
            ]
        )
        assert code == 0
        rows = read_csv((workdir / "sweep" / "acceptance.csv").read_text(), ACCEPTANCE_HEADER)
        assert [float(r[0]) for r in rows] == [float(v) for v in range(1, 11)]

    def test_baseline_modes(self, workdir):
        main(["gen-topology", "--k", "4", "--out", "dc.txt"])
        for mode in ("batch-only", "online-only"):
            code = main(
                [
                    "run",
                    "--substrate", "dc.txt",
                    "--workload", "workload.cfg",
                    "--policy", "policy.cfg",
                    "--mode", mode,
                    "--seed", "5",
                    "--out", f"out_{mode}",
                ]
            )
            assert code == 0
            assert (workdir / f"out_{mode}" / "acceptance.csv").exists()

    @pytest.mark.parametrize("lambdas", ["1.5:2", "a,b", "1:2:3", "3:1", ",", ""])
    def test_bad_lambdas_exit_one(self, workdir, capsys, lambdas):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        code = main(
            [
                "run",
                "--substrate", "dc2.txt",
                "--workload", "workload.cfg",
                "--lambdas", lambdas,
                "--out", "res",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "--lambdas" in err and "Traceback" not in err

    @pytest.mark.parametrize("lambdas", ["inf", "nan", "1,-2", "1:100"])
    def test_out_of_range_lambdas_exit_one_before_running(
        self, workdir, capsys, monkeypatch, lambdas
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr("vdcembed.cli.run_simulation", no_run)
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        args = ["run", "--substrate", "dc2.txt", "--workload", "workload.cfg", "--out", "res"]
        assert main(args + ["--lambdas", lambdas]) == 1
        assert capsys.readouterr().err.startswith("error: --lambdas out of range [0, 10]")

    def test_negative_audit_every_exits_one(self, workdir, capsys):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        args = ["run", "--substrate", "dc2.txt", "--workload", "workload.cfg", "--out", "res"]
        assert main(args + ["--audit-every", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: --audit-every: ")
        assert not (workdir / "res").exists()

    def test_env_override_for_out(self, workdir, monkeypatch):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        (workdir / "tiny.cfg").write_text(
            "vm_count=1:1\nvswitch_count=1:1\nhorizon=30\nseed=2\narrival_rate=2\n"
        )
        monkeypatch.setenv("VDCEMBED_OUT", str(workdir / "env_out"))
        main(
            [
                "run",
                "--substrate", "dc2.txt",
                "--workload", "tiny.cfg",
                "--mode", "online-only",
                "--out", "ignored",
            ]
        )
        assert (workdir / "env_out" / "acceptance.csv").exists()
        assert not (workdir / "ignored").exists()


class TestSolve:
    def write_requests(self, workdir, text):
        (workdir / "reqs.txt").write_text(text)

    def test_trivial_fit(self, workdir, capsys):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        self.write_requests(
            workdir,
            "requests 1\n"
            "request r0\n"
            "vm vm0 1 256\n"
            "vswitch vs0 edge 10\n"
            "vlink vl0 vs0 vm0 5\n"
            "meta 0.0 10.0 -\n",
        )
        code = main(
            ["solve", "--substrate", "dc2.txt", "--requests", "reqs.txt", "--out", "sol.txt"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "objective 1.0000" in out
        assert "1 embedded of 1" in out
        sol_text = (workdir / "sol.txt").read_text()
        assert "embedded r0 1" in sol_text
        # the written file is read back by validate with the same codec
        args = ["--substrate", "dc2.txt", "--requests", "reqs.txt", "--assignment", "sol.txt"]
        assert main(["validate"] + args) == 0

    def test_invalid_request_exits_two_before_solving(self, workdir, capsys):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        # vm0 hangs off the internal vSwitch vs1
        self.write_requests(
            workdir,
            "requests 1\n"
            "request r0\n"
            "vm vm0 1 256\n"
            "vm vm1 1 256\n"
            "vswitch vs0 edge 10\n"
            "vswitch vs1 internal 10\n"
            "vswitch vs2 edge 10\n"
            "vlink vl0 vs0 vs1 5\n"
            "vlink vl1 vs1 vs2 5\n"
            "vlink vl2 vs1 vm0 5\n"
            "vlink vl3 vs2 vm1 5\n"
            "meta 0.0 10.0 -\n",
        )
        code = main(["solve", "--substrate", "dc2.txt", "--requests", "reqs.txt", "--out", "s.txt"])
        captured = capsys.readouterr()
        assert code == 2
        assert "[vm-parent-edge] vm0: vs1" in captured.err
        assert "embedded" not in captured.out
        assert not (workdir / "s.txt").exists()
        # validate flags the same file alike
        assert main(["validate", "--substrate", "dc2.txt", "--requests", "reqs.txt"]) == 2

    def test_infeasible_is_valid_answer(self, workdir, capsys):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        self.write_requests(
            workdir,
            "requests 1\n"
            "request r0\n"
            "vm vm0 99 256\n"
            "vswitch vs0 edge 10\n"
            "vlink vl0 vs0 vm0 5\n"
            "meta 0.0 10.0 -\n",
        )
        code = main(["solve", "--substrate", "dc2.txt", "--requests", "reqs.txt"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 embedded of 1" in out

    def test_budget_exhausted_exit_code(self, workdir, capsys):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        self.write_requests(
            workdir,
            "requests 1\n"
            "request r0\n"
            "vm vm0 1 256\n"
            "vswitch vs0 edge 10\n"
            "vlink vl0 vs0 vm0 5\n"
            "meta 0.0 10.0 -\n",
        )
        code = main(
            [
                "solve",
                "--substrate", "dc2.txt",
                "--requests", "reqs.txt",
                "--node-limit", "0",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("f", ["abc", "1/0"])
    def test_bad_divisor_exits_one(self, workdir, capsys, f):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        self.write_requests(workdir, REQUEST)
        args = ["solve", "--substrate", "dc2.txt", "--requests", "reqs.txt", "--f", f]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: --f: ")

    @pytest.mark.parametrize("flag", ["--node-limit", "--wall-ms"])
    def test_negative_budget_exits_one(self, workdir, capsys, flag):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        self.write_requests(workdir, REQUEST)
        args = ["solve", "--substrate", "dc2.txt", "--requests", "reqs.txt", flag, "-1"]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")


class TestFlaggedSubstrate:
    """run and solve refuse a substrate that validate flags, before any work."""

    @pytest.fixture
    def islanded(self, workdir, capsys):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        with open(workdir / "dc2.txt", "a") as fp:
            fp.write("switch x0 edge 100\nserver x1 8 16384\nlink lx x0 x1 1000 1\n")
        (workdir / "reqs.txt").write_text(REQUEST)
        assert main(["validate", "--substrate", "dc2.txt"]) == 2
        findings = capsys.readouterr().err
        assert "[connectivity]" in findings
        return findings

    def test_run_exits_two(self, workdir, capsys, islanded):
        args = ["run", "--substrate", "dc2.txt", "--workload", "workload.cfg", "--out", "res"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == islanded and captured.out == ""
        assert not (workdir / "res").exists()

    def test_solve_exits_two(self, workdir, capsys, islanded):
        args = ["solve", "--substrate", "dc2.txt", "--requests", "reqs.txt", "--out", "s.txt"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == islanded and captured.out == ""
        assert not (workdir / "s.txt").exists()


class TestValidate:
    def test_valid_inputs(self, workdir, capsys):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        assert main(["validate", "--substrate", "dc2.txt"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_capacity_violation_listed(self, workdir, capsys):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        (workdir / "reqs.txt").write_text(
            "requests 1\n"
            "request r0\n"
            "vm vm0 9 256\n"
            "vswitch vs0 edge 10\n"
            "vlink vl0 vs0 vm0 5\n"
            "meta 0.0 10.0 -\n"
        )
        (workdir / "asg.txt").write_text(
            "assignments 1\n"
            "embedded r0 1\n"
            "assign vm r0 vm0 s0\n"
            "assign vswitch r0 vs0 e0_0\n"
            "assign vlink r0 vl0 e0_0 s0 0\n"
        )
        code = main(
            [
                "validate",
                "--substrate", "dc2.txt",
                "--requests", "reqs.txt",
                "--assignment", "asg.txt",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "server-capacity" in err and "s0" in err

    def test_missing_file(self, workdir, capsys):
        assert main(["validate", "--substrate", "ghost.txt"]) == 1
        assert "ghost.txt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "assign vm r1",
            "assign vm r0 vm0",
            "assign vlink r0 vl0 e0_0 s0",
            "assign vlink r0 vl0 e0_0 s0 x",
            "assign vm r0 vm0 s0 extra",
            "assign disk r0 d0 s0",
            "embedded r0",
            "embedded r0 yes",
            "assign",
            # a repeated record, even an identical one, is a format error
            "embedded r0 0",
            "embedded r0 1",
            "assign vm r0 vm0 s0\nassign vm r0 vm0 s1",
            "assign vm r0 vm0 s0\nassign vm r0 vm0 s0",
            "assign vswitch r0 vs0 e0_0\nassign vm r0 vs0 s0",
        ],
    )
    def test_malformed_assignment_line_exits_one(self, workdir, capsys, line):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        (workdir / "reqs.txt").write_text(REQUEST)
        (workdir / "asg.txt").write_text(f"assignments 1\nembedded r0 1\n{line}\n")
        args = ["--substrate", "dc2.txt", "--requests", "reqs.txt", "--assignment", "asg.txt"]
        assert main(["validate"] + args) == 1
        err = capsys.readouterr().err
        assert "assignment" in err or "path index" in err

    def test_unknown_element_is_a_finding(self, workdir, capsys):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        (workdir / "reqs.txt").write_text(REQUEST)
        (workdir / "asg.txt").write_text("assignments 1\nembedded r0 1\nassign vm r0 vmX s0\n")
        args = ["--substrate", "dc2.txt", "--requests", "reqs.txt", "--assignment", "asg.txt"]
        assert main(["validate"] + args) == 2
        assert "r0: [unknown-element] vm vmX not in request r0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines, finding",
        [
            ("embedded r0 1\n", "r0: [embedded-flag] flagged 1 but has no assign records"),
            (
                "embedded r0 0\nassign vm r0 vm0 s0\nassign vswitch r0 vs0 e0_0\n"
                "assign vlink r0 vl0 e0_0 s0 0\n",
                "r0: [embedded-flag] not flagged 1 but has assign records",
            ),
            ("embedded r0 0\nembedded r9 1\n", "[unknown-request] r9"),
        ],
        ids=["flag-without-records", "records-without-flag", "unknown-request"],
    )
    def test_embedded_flags_match_records(self, workdir, capsys, lines, finding):
        main(["gen-topology", "--k", "2", "--out", "dc2.txt"])
        (workdir / "reqs.txt").write_text(REQUEST)
        (workdir / "asg.txt").write_text("assignments 1\n" + lines)
        args = ["--substrate", "dc2.txt", "--requests", "reqs.txt", "--assignment", "asg.txt"]
        assert main(["validate"] + args) == 2
        err = capsys.readouterr().err
        assert finding in err and "1 finding(s)" in err

    @pytest.mark.parametrize(
        "substrate, requests",
        [
            ("substrate 1 0\nswitch e0 edge 100\nlink l0 e0 sX 1000 1\n", None),
            ("substrate x 0\n", None),
            ("substrate 1 x\n", None),
            ("substrate 1 0\nswitch e0 edge 100\n", "requests x\n"),
            ("substrate 1 0\nserver s0 8 1024\nserver s0 8 1024\n", None),
            ("substrate 1 0\nswitch s0 edge 100\nserver s0 8 1024\n", None),
            (
                "substrate 1 0\nswitch e0 edge 100\nserver s0 8 1024\n"
                "link l0 e0 s0 1000 1\nlink l0 e0 s0 1000 1\n",
                None,
            ),
            (
                "substrate 1 0\nswitch e0 edge 100\nserver s0 8 1024\nserver s1 8 1024\n"
                "link s1 e0 s0 1000 1\n",
                None,
            ),
            (
                "substrate 1 0\nswitch e0 edge 100\n",
                "requests 1\nvm vm0 1 256\nrequest r0\nvswitch vs0 edge 10\n"
                "vlink vl0 vs0 vm0 5\nmeta 0 10 -\n",
            ),
            ("substrate 1 0\nswitch e0 edge 100\n", REQUEST + REQUEST.split("\n", 1)[1]),
            (
                "substrate 1 0\nswitch e0 edge 100\n",
                "requests 1\nrequest r0\nvm vm0 1 256\nvm vm0 2 256\nvswitch vs0 edge 10\n"
                "vlink vl0 vs0 vm0 5\nmeta 0 10 -\n",
            ),
            (
                "substrate 1 0\nswitch e0 edge 100\n",
                "requests 1\nrequest r0\nvm vm0 1 256\nvswitch vs0 edge 10\n"
                "vlink vm0 vs0 vm0 5\nmeta 0 10 -\n",
            ),
            ("substrate 1 0\nswitch e0 edge 100\n", REQUEST.replace("meta 0.0 ", "meta nan ")),
            ("substrate 1 0\nswitch e0 edge 100\n", REQUEST.replace(" 10.0 -", " nan -")),
            ("substrate 1 0\nswitch e0 edge 100\n", REQUEST.replace("256", "256 junk")),
            ("substrate 1 0\nswitch e0 edge 100\n", REQUEST.replace("vm0 5", "vm0 5 9")),
            ("substrate 1 0\nswitch e0 edge 100\n", REQUEST.replace("r0", "r0 x")),
            ("substrate 1 0\nswitch e0 edge 100\n", REQUEST.replace("edge 10", "edgy 10")),
            ("substrate 1 0\nswitch e0 edge 100\n", REQUEST.replace("10.0 -", "10.0 - junk")),
            ("substrate 1 0\nswitch e0 edge 100\n", REQUEST.replace("10.0 -", "10.0 - vm0=")),
            ("substrate 1 0\nswitch e0 edge 100\n", REQUEST.replace("10.0 -", "10.0 - =s0")),
            (
                "substrate 1 0\nswitch e0 edge 100\n",
                REQUEST.replace("10.0 -", "10.0 - vm0=s0 vm0=s1"),
            ),
            ("substrate 1 0\nswitch e0 edge 100\n", REQUEST.replace("10.0 -", "10.0 -3")),
        ],
        ids=[
            "undeclared-link-end", "bad-version", "bad-arity", "bad-requests-version",
            "duplicate-server", "server-reuses-switch-id", "duplicate-link",
            "link-reuses-server-id", "vm-before-request", "duplicate-request", "duplicate-vm",
            "vlink-reuses-vm-id", "nan-arrival", "nan-duration", "vm-extra-field",
            "vlink-extra-field", "request-extra-field", "vswitch-unknown-kind",
            "locality-no-equals", "locality-no-server", "locality-no-vm", "locality-vm-twice",
            "negative-latency-bound",
        ],
    )
    def test_malformed_file_exits_one(self, workdir, capsys, substrate, requests):
        (workdir / "dc.txt").write_text(substrate)
        args = ["validate", "--substrate", "dc.txt"]
        if requests is not None:
            (workdir / "reqs.txt").write_text(requests)
            args += ["--requests", "reqs.txt"]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: ")
