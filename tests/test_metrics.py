"""Trace aggregation and CSV round trips."""

import random

import pytest

from conftest import read_csv
from vdcembed.errors import IncompleteTraceError
from vdcembed.metrics import (
    ACCEPTANCE_HEADER,
    MIGRATIONS_HEADER,
    MetricsReport,
    RateRow,
    TraceRecord,
    aggregate,
    resequence,
    serialize_trace,
    write_csv,
)


def parse_trace(text):
    """Records read back from serialize_trace's lines: time, seq, kind, key=value fields."""
    records = []
    for line in text.splitlines():
        time, seq, kind, *fields = line.split()
        pairs = tuple(tuple(field.split("=", 1)) for field in fields)
        records.append(TraceRecord(float(time), int(seq), kind, pairs))
    return records


def rec(time, seq, kind, /, **fields):
    return TraceRecord(time, seq, kind, tuple((k, str(v)) for k, v in fields.items()))


def toy_trace():
    out = [rec(0.0, 0, "run_start", lam="2", seed=1, k=4, policy="abc", mode="hybrid")]
    seq = 1
    for i in range(10):
        out.append(rec(float(i), seq, "arrival", request=f"r{i}", vms=4))
        seq += 1
        if i < 7:
            out.append(rec(float(i), seq, "accept", request=f"r{i}", vms=4, via="online"))
            seq += 1
    out.append(rec(5.0, seq, "migration", kind="vm", request="r1", element="vm0", old="s0", new="s1"))
    seq += 1
    out.append(rec(5.0, seq, "migration", kind="vlink", request="r1", element="vl0", old="-", new="-"))
    seq += 1
    out.append(rec(6.0, seq, "util", cpu="0.25", switch="0.1", bw="0.05"))
    seq += 1
    out.append(rec(10.0, seq, "run_end", events=12))
    return out


class TestAggregate:
    def test_rates(self):
        report = aggregate(toy_trace())
        row = report.rows[0]
        assert row.lam == 2.0
        assert row.arrivals == 10
        assert row.accepted == 7
        assert row.rate == 0.7
        assert row.vm_migrations == 1  # the vlink record does not count
        assert row.placed_vms == 28
        assert report.utilization == [(2.0, 6.0, 0.25, 0.1, 0.05)]

    def test_zero_migrations_pct(self):
        row = RateRow(lam=1.0, arrivals=5, accepted=5, vm_migrations=0, placed_vms=20)
        assert row.migration_pct == 0.0

    def test_shuffle_then_resort_identical(self):
        records = toy_trace()
        shuffled = records[:]
        random.Random(5).shuffle(shuffled)
        a = aggregate(records)
        b = aggregate(shuffled)
        assert a.rows[0].__dict__ == b.rows[0].__dict__
        assert a.utilization == b.utilization

    def test_truncated_trace_rejected(self):
        records = toy_trace()[:-1]  # drop run_end
        with pytest.raises(IncompleteTraceError):
            aggregate(records)

    def test_nested_run_start_rejected(self):
        records = toy_trace()
        records.insert(3, rec(1.0, 2, "run_start", lam="3", seed=2, k=4, policy="abc", mode="hybrid"))
        with pytest.raises(IncompleteTraceError, match="nested run_start"):
            aggregate(resequence(records))

    def test_run_end_without_run_start_rejected(self):
        records = toy_trace() + [rec(11.0, 99, "run_end", events=0)]
        with pytest.raises(IncompleteTraceError, match="run_end without run_start"):
            aggregate(records)

    def test_deterministic(self):
        assert aggregate(toy_trace()).rows[0].__dict__ == aggregate(toy_trace()).rows[0].__dict__


class TestTraceRecord:
    def test_get_gives_a_fields_value_or_the_default(self):
        r = rec(1.0, 0, "arrive", req="r0")
        assert r.get("req") == "r0"
        assert r.get("mode") is None
        assert r.get("mode", "-") == "-"


class TestSerialization:
    def test_trace_round_trip(self):
        records = toy_trace()
        text = serialize_trace(records)
        assert parse_trace(text) == records

    def test_csv_round_trip(self, tmp_path):
        report = aggregate(toy_trace())
        write_csv(report, str(tmp_path))
        acc = read_csv((tmp_path / "acceptance.csv").read_text(), ACCEPTANCE_HEADER)
        assert acc == [["2", "10", "7", "0.7000"]]
        mig = read_csv((tmp_path / "migrations.csv").read_text(), MIGRATIONS_HEADER)
        assert mig == [["2", "1", "28", f"{1 / 28:.4f}"]]
        util_lines = (tmp_path / "utilization.csv").read_text().strip().splitlines()
        assert util_lines[0] == "lambda,time,cpu_util,switch_util,bw_util"
        assert util_lines[1] == "2,6.000000,0.2500,0.1000,0.0500"

    def test_utilization_rows_keep_their_rate(self, tmp_path):
        # a sweep's runs share one utilization.csv; each row names its rate
        runs = []
        for lam, t in (("4", 95.5), ("8", 4.6)):
            runs += [
                rec(0.0, 0, "run_start", lam=lam),
                rec(t, 1, "util", cpu="0.5", switch="0.25", bw="0.125"),
                rec(100.0, 2, "run_end", events=1),
            ]
        write_csv(aggregate(resequence(runs)), str(tmp_path))
        util_lines = (tmp_path / "utilization.csv").read_text().strip().splitlines()
        assert util_lines[1:] == [
            "4,95.500000,0.5000,0.2500,0.1250",
            "8,4.600000,0.5000,0.2500,0.1250",
        ]

    def test_empty_report_headers_only(self, tmp_path):
        write_csv(MetricsReport(), str(tmp_path))
        assert (tmp_path / "acceptance.csv").read_text() == ACCEPTANCE_HEADER + "\n"

    def test_zero_arrival_row_has_empty_rate(self, tmp_path):
        report = MetricsReport(rows=[RateRow(lam=3.0)])
        write_csv(report, str(tmp_path))
        rows = read_csv((tmp_path / "acceptance.csv").read_text(), ACCEPTANCE_HEADER)
        assert rows == [["3", "0", "0", ""]]

    def test_unwritable_destination(self):
        report = MetricsReport()
        with pytest.raises(OSError) as err:
            write_csv(report, "/proc/definitely/not/writable")
        assert "/proc/definitely/not/writable" in str(err.value)
