"""Experiment result records and serialization.

Every experiment produces an :class:`ExperimentResult`: a named table
(list of uniform row dicts) plus free-form notes.  Results render as
ASCII (for the console / EXPERIMENTS.md) and serialise to CSV and JSON
(for downstream plotting).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.analysis.tables import render_table
from repro.util.validation import require

__all__ = ["ExperimentResult", "rows_to_csv", "rows_to_json", "rows_from_json"]

#: The reserved spellings ``_jsonable`` emits for non-finite floats.
#: String cells with exactly these values decode back into floats, so
#: they are part of the serialisation contract, not available as data.
_NONFINITE_SPELLINGS = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars / infinities into JSON-safe values."""
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # "inf" / "nan" — JSON has no literal for these
    return value


def _jsonable_row(row: Mapping[str, Any]) -> dict[str, Any]:
    """One row with every cell passed through :func:`_jsonable`."""
    return {k: _jsonable(v) for k, v in row.items()}


def _from_jsonable(value: Any) -> Any:
    """Inverse of :func:`_jsonable`: decode the non-finite spellings."""
    if isinstance(value, str) and value in _NONFINITE_SPELLINGS:
        return _NONFINITE_SPELLINGS[value]
    return value


def rows_to_csv(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render uniform row dicts as CSV text (header from the first row)."""
    require(len(rows) > 0, "rows must be non-empty")
    columns = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _jsonable(row.get(k)) for k in columns})
    return buf.getvalue()


def rows_to_json(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render row dicts as a JSON array."""
    return json.dumps([_jsonable_row(row) for row in rows], indent=2)


def rows_from_json(text: str) -> list[dict[str, Any]]:
    """Parse :func:`rows_to_json` output back into row dicts.

    The ``"inf"`` / ``"-inf"`` / ``"nan"`` string spellings decode back
    into the non-finite floats they stand for, so a dump/load round trip
    is lossless (``nan`` cells compare equal by spelling, as usual).
    """
    payload = json.loads(text)
    require(isinstance(payload, list), "rows JSON must be an array")
    return [{k: _from_jsonable(v) for k, v in row.items()} for row in payload]


@dataclass
class ExperimentResult:
    """A completed experiment: identifier, one table, and notes.

    Attributes
    ----------
    experiment_id:
        Short identifier (``"E4"``).
    title:
        Human-readable one-line description.
    rows:
        Uniform list of row dicts (the regenerated "table" of the paper).
    notes:
        Free-form lines: fit results, pass/fail verdicts, caveats.
    verdict:
        Overall shape verdict: ``"consistent"`` when the measured shape
        matches the paper's prediction, ``"inconsistent"`` otherwise,
        ``"informational"`` for experiments without a sharp criterion.
    """

    experiment_id: str
    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    verdict: str = "informational"

    def add_row(self, **kwargs: Any) -> None:
        """Append a row (keyword arguments become columns)."""
        self.rows.append(dict(kwargs))

    def add_note(self, note: str) -> None:
        """Append a free-form note line."""
        self.notes.append(note)

    def to_text(self) -> str:
        """ASCII rendering: header, table, notes."""
        parts = [f"== {self.experiment_id}: {self.title} ==", ""]
        if self.rows:
            parts.append(render_table(self.rows))
        for note in self.notes:
            parts.append(f"  * {note}")
        parts.append(f"  verdict: {self.verdict}")
        return "\n".join(parts)

    def to_csv(self) -> str:
        """The table as CSV."""
        return rows_to_csv(self.rows)

    def to_dict(self) -> dict[str, Any]:
        """Everything as the JSON-safe object :meth:`to_json` encodes."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "verdict": self.verdict,
            "notes": self.notes,
            "rows": [_jsonable_row(row) for row in self.rows],
        }

    def to_json(self) -> str:
        """Everything as JSON."""
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Reconstruct a result from :meth:`to_json` output.

        Round-trips losslessly (modulo ``nan`` identity): row cells that
        were coerced to the ``"inf"``/``"-inf"``/``"nan"`` spellings by
        serialisation come back as the non-finite floats they encode.
        """
        payload = json.loads(text)
        require(isinstance(payload, dict), "result JSON must be an object")
        for key in ("experiment_id", "title", "verdict", "notes", "rows"):
            require(key in payload, f"result JSON missing {key!r}")
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            rows=[{k: _from_jsonable(v) for k, v in row.items()}
                  for row in payload["rows"]],
            notes=list(payload["notes"]),
            verdict=payload["verdict"],
        )

    def save(self, directory: str | Path) -> Path:
        """Write ``<id>.txt/.csv/.json`` into *directory*; returns the txt path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        stem = self.experiment_id.lower()
        (directory / f"{stem}.json").write_text(self.to_json())
        if self.rows:
            (directory / f"{stem}.csv").write_text(self.to_csv())
        txt = directory / f"{stem}.txt"
        txt.write_text(self.to_text() + "\n")
        return txt
