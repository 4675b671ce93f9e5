"""Run traces and their aggregation into acceptance/migration/utilization reports."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import IncompleteTraceError


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace line; values are kept in canonical string form so
    a serialized line reads back exactly."""

    time: float
    seq: int
    kind: str
    fields: tuple[tuple[str, str], ...] = ()

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def line(self) -> str:
        parts = [repr(self.time), str(self.seq), self.kind]
        parts.extend(f"{k}={v}" for k, v in self.fields)
        return " ".join(parts)


def serialize_trace(records) -> str:
    return "\n".join(r.line() for r in records) + "\n"


def resequence(records) -> list[TraceRecord]:
    """Renumber seq globally; needed when several runs' traces are concatenated."""
    return [
        TraceRecord(r.time, i, r.kind, r.fields) for i, r in enumerate(records)
    ]


@dataclass
class RateRow:
    """Per-arrival-rate aggregate counters."""

    lam: float
    arrivals: int = 0
    accepted: int = 0
    vm_migrations: int = 0
    placed_vms: int = 0

    @property
    def rate(self) -> float | None:
        return self.accepted / self.arrivals if self.arrivals else None

    @property
    def migration_pct(self) -> float | None:
        return self.vm_migrations / self.placed_vms if self.placed_vms else None


@dataclass
class MetricsReport:
    meta: dict[str, str] = field(default_factory=dict)
    rows: list[RateRow] = field(default_factory=list)
    utilization: list[tuple[float, float, float, float, float]] = field(default_factory=list)
    # utilization rows are (lam, time, cpu, switch-memory, bandwidth fractions)


def aggregate(records) -> MetricsReport:
    """Fold a (possibly re-sorted) trace into per-arrival-rate aggregates.

    The trace must contain a run_end record for every run_start; anything
    else means a truncated run and aggregates would silently lie.
    """
    ordered = sorted(records, key=lambda r: (r.seq,))
    report = MetricsReport()
    rows: dict[float, RateRow] = {}
    open_runs = 0
    lam = None
    for rec in ordered:
        if rec.kind == "run_start":
            if open_runs:
                raise IncompleteTraceError("nested run_start without run_end")
            open_runs += 1
            lam = float(rec.get("lam"))
            rows.setdefault(lam, RateRow(lam))
            for key in ("seed", "k", "policy", "mode"):
                val = rec.get(key)
                if val is not None and report.meta.setdefault(key, val) != val:
                    report.meta[key] = "mixed"
        elif rec.kind == "run_end":
            if not open_runs:
                raise IncompleteTraceError("run_end without run_start")
            open_runs -= 1
        elif open_runs:
            row = rows[lam]
            if rec.kind == "arrival":
                row.arrivals += 1
            elif rec.kind == "accept":
                row.accepted += 1
                row.placed_vms += int(rec.get("vms", "0"))
            elif rec.kind == "migration" and rec.get("kind") == "vm":
                row.vm_migrations += 1
            elif rec.kind == "util":
                report.utilization.append(
                    (
                        lam,
                        rec.time,
                        float(rec.get("cpu")),
                        float(rec.get("switch")),
                        float(rec.get("bw")),
                    )
                )
    if open_runs:
        raise IncompleteTraceError("trace ended inside a run")
    report.rows = [rows[k] for k in sorted(rows)]
    return report


ACCEPTANCE_HEADER = "lambda,arrivals,accepted,rate"
MIGRATIONS_HEADER = "lambda,migrations,placed_vms,pct"
UTILIZATION_HEADER = "time,cpu_util,switch_util,bw_util"


def _fmt_rate(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def _fmt_lam(lam: float) -> str:
    return f"{lam:g}"


def write_csv(report: MetricsReport, destination: str) -> list[str]:
    """Write acceptance.csv, migrations.csv, utilization.csv under destination."""
    try:
        os.makedirs(destination, exist_ok=True)
        paths = []
        path = os.path.join(destination, "acceptance.csv")
        with open(path, "w") as fp:
            fp.write(ACCEPTANCE_HEADER + "\n")
            for row in report.rows:
                fp.write(
                    f"{_fmt_lam(row.lam)},{row.arrivals},{row.accepted},{_fmt_rate(row.rate)}\n"
                )
        paths.append(path)
        path = os.path.join(destination, "migrations.csv")
        with open(path, "w") as fp:
            fp.write(MIGRATIONS_HEADER + "\n")
            for row in report.rows:
                fp.write(
                    f"{_fmt_lam(row.lam)},{row.vm_migrations},{row.placed_vms},"
                    f"{_fmt_rate(row.migration_pct)}\n"
                )
        paths.append(path)
        path = os.path.join(destination, "utilization.csv")
        with open(path, "w") as fp:
            fp.write(UTILIZATION_HEADER + "\n")
            for _, t, cpu, sw, bw in report.utilization:
                fp.write(f"{t:.6f},{cpu:.4f},{sw:.4f},{bw:.4f}\n")
        paths.append(path)
        return paths
    except OSError as err:
        raise OSError(f"cannot write metrics under {destination!r}: {err}") from err
