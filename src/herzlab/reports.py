"""Verification report records and emission helpers."""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

from .jsonout import dumps, json_ready


def digest(obj: Any) -> str:
    """Short stable digest of check inputs for provenance."""
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class VerificationReport:
    """One quantitative check: what was measured against which bound.

    ``reference`` states the mathematical claim in plain words;
    ``asserted`` distinguishes hard contracts from recorded-only
    diagnostics (whose ``passed`` is None).
    """

    check: str
    reference: str
    inputs: str
    measured: Any
    bound: Optional[float]
    passed: Optional[bool]
    runtime_s: float = 0.0
    asserted: bool = True
    note: str = ""
    seed: Optional[int] = None

    def ok(self) -> bool:
        return (not self.asserted) or bool(self.passed)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "reference": self.reference,
            "inputs": self.inputs,
            "seed": self.seed,
            "measured": json_ready(self.measured),
            "bound": json_ready(self.bound),
            "passed": self.passed,
            "asserted": self.asserted,
            "runtime_s": round(self.runtime_s, 6),
            "note": self.note,
        }


def write_json(reports: list[VerificationReport], path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps([r.to_json_dict() for r in reports], indent=2) + "\n")


def write_csv_summary(reports: list[VerificationReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "passed", "asserted", "bound",
                         "runtime_s", "seed", "inputs", "note"])
        for r in sorted(reports, key=lambda r: r.check):
            writer.writerow([
                r.check,
                "" if r.passed is None else int(r.passed),
                int(r.asserted),
                "" if r.bound is None else r.bound,
                round(r.runtime_s, 6),
                "" if r.seed is None else r.seed,
                r.inputs,
                r.note,
            ])


def all_passed(reports: list[VerificationReport]) -> bool:
    return all(r.ok() for r in reports)
