"""Check records, verification reports, and plain/csv/json rendering."""

from __future__ import annotations

import io
from enum import Enum
from typing import NamedTuple


class Status(Enum):
    PASS = "pass"
    FAIL = "fail"
    # a formula as printed disagrees with enumeration while the fitted form agrees
    PAPER_DISCREPANCY = "paper_discrepancy"
    SKIPPED = "skipped"


_STATUS_LABELS = {
    Status.PASS: "PASS",
    Status.FAIL: "FAIL",
    Status.PAPER_DISCREPANCY: "PAPER-DISCREPANCY",
    Status.SKIPPED: "SKIPPED",
}


class CheckRecord(NamedTuple):
    """One reconciliation check: a named comparison at concrete parameters."""

    check: str
    params: str
    expected: str
    actual: str
    status: Status
    note: str = ""

    def as_dict(self) -> dict:
        out = {
            "check": self.check,
            "params": self.params,
            "expected": self.expected,
            "actual": self.actual,
            "status": self.status.value,
        }
        if self.note:
            out["note"] = self.note
        return out


class VerifyReport(NamedTuple):
    records: tuple[CheckRecord, ...]

    def count(self, status: Status) -> int:
        return sum(1 for r in self.records if r.status is status)

    def summary(self) -> dict[str, int]:
        out = {"total": len(self.records)}
        for status in Status:
            out[status.value] = self.count(status)
        return out

    @property
    def exit_status(self) -> int:
        """0 unless some check failed outright; discrepancies do not fail."""
        return 1 if self.count(Status.FAIL) else 0


VERIFY_COLUMNS = ("check", "params", "expected", "actual", "status", "note")


def render_csv(columns, rows) -> str:
    """Rows are dicts; missing keys render empty."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row.get(c) is None else row.get(c, "") for c in columns])
    return buf.getvalue()


def render_json(payload) -> str:
    """Canonical form: parse and re-dump reproduces the bytes exactly."""
    import json

    return json.dumps(payload, indent=2) + "\n"


def verify_plain_lines(report: VerifyReport) -> list[str]:
    lines = []
    for rec in report.records:
        line = "{:<17} {:<24} {}".format(
            _STATUS_LABELS[rec.status], rec.check, rec.params
        )
        if rec.expected or rec.actual:
            line += f"  expected={rec.expected} actual={rec.actual}"
        if rec.note:
            line += f"  [{rec.note}]"
        lines.append(line)
    s = report.summary()
    lines.append(
        "checks: {total} total, {p} pass, {f} fail, "
        "{d} paper-discrepancy, {s} skipped".format(
            total=s["total"],
            p=s[Status.PASS.value],
            f=s[Status.FAIL.value],
            d=s[Status.PAPER_DISCREPANCY.value],
            s=s[Status.SKIPPED.value],
        )
    )
    return lines


def _verify_payload(report: VerifyReport) -> dict:
    """The json payload of a verify run, without its command; its "checks"
    are the csv rows."""
    return {"summary": report.summary(), "checks": [rec.as_dict() for rec in report.records]}


def verify_csv(report: VerifyReport) -> str:
    return render_csv(VERIFY_COLUMNS, _verify_payload(report)["checks"])


def verify_json(report: VerifyReport) -> str:
    return render_json({"command": "verify", **_verify_payload(report)})
