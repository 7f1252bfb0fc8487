"""Run reports: one JSON document plus plottable CSV series.

A report collects the echoed config, every check outcome, the experiment
result tables, and wall-clock numbers.  ``emit_report`` writes the JSON
and one CSV per recorded series; single series use the header ``s,value``
and the recentring table uses ``lambda,sup_u_err,sup_v_err``.

Runs with a slicing boundary carry a note that the boundary motion is a
modeling stand-in: the slab's edge follows the flat slices rather than
any behavior derived from the interior equation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import IoError

SLICING_NOTE = (
    "slicing boundary: edge heights follow the flat slices; "
    "this boundary motion is a stand-in, not part of the modeled dynamics"
)
NO_CHECKS_MARKER = "no checks enabled"


@dataclass
class Report:
    """Everything one run produced, ready to serialize."""

    config: dict
    checks: list = field(default_factory=list)
    experiments: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    wall_seconds: float = 0.0
    steps: int = 0
    failure: str | None = None

    def add_check(self, report) -> None:
        """Record one ResidualReport or InequalityReport outcome."""
        if any(entry["name"] == report.name for entry in self.checks):
            raise ValueError(f"check {report.name!r} reported twice")
        entry = report.as_dict()
        entry["summary"] = report.summary()
        self.checks.append(entry)

    def add_experiment(self, name: str, result) -> None:
        if name in self.experiments:
            raise ValueError(f"experiment {name!r} reported twice")
        self.experiments[name] = result.as_dict()

    def add_series(self, name: str, header: tuple, columns) -> None:
        """Record a CSV-bound table: header names and equal-length columns."""
        lengths = {len(c) for c in columns}
        if len(columns) != len(header) or len(lengths) > 1:
            raise ValueError(f"series {name!r}: ragged columns")
        self.series[name] = (tuple(header), [list(c) for c in columns])

    def record_failure(self, message: str) -> None:
        """Mark the run failed; ``message`` becomes a note."""
        self.failure = message
        self.notes.append(message)

    def all_passed(self) -> bool:
        """The one verdict: no run failure, failed check or failed experiment."""
        return (
            self.failure is None
            and all(e["passed"] is not False for e in self.checks)
            and all(res["passed"] for res in self.experiments.values())
        )

    def as_dict(self) -> dict:
        doc = {
            "config": self.config,
            "checks": self.checks,
            "experiments": self.experiments,
            "notes": list(self.notes),
            "wall_seconds": self.wall_seconds,
            "steps": self.steps,
            "summary": {
                "checks": len(self.checks),
                "experiments": len(self.experiments),
                "all_passed": self.all_passed(),
            },
        }
        if not self.checks and self.failure is None:
            doc["summary"]["marker"] = NO_CHECKS_MARKER
        return doc


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def output_dir(out_dir) -> Path:
    """Create ``out_dir`` (and its parents) if needed and return it as a Path."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from exc
    return out


def emit_report(report: Report, out_dir) -> list:
    """Write ``report.json`` and one CSV per series into ``out_dir``; return the paths."""
    out = output_dir(out_dir)
    written = []
    try:
        path = out / "report.json"
        path.write_text(json.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8")
        written.append(path)
        for name, (header, columns) in report.series.items():
            path = out / f"{name}.csv"
            rows = [",".join(header)]
            for k in range(len(columns[0]) if columns else 0):
                rows.append(",".join(_csv_cell(col[k]) for col in columns))
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            written.append(path)
    except OSError as exc:
        raise IoError(f"cannot write report into {out}: {exc}") from exc
    return written
