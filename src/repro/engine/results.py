"""Aggregate results of a batch of flooding trials.

A :class:`TrialEnsemble` is the engine's native result type: the same
information as a list of :class:`~repro.core.flooding.FloodingResult`
records, but held column-wise (one array per field across trials) so
summary statistics, tables, and record export are single vectorised
operations instead of per-trial attribute walks.

Conversion is loss-free in both directions: ``to_results()`` gives the
per-trial lists that :func:`~repro.core.flooding.flooding_trials` and
:func:`~repro.protocols.runner.spreading_trials` return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import starmap
from typing import Any, Iterable, Sequence

import numpy as np

from repro.analysis.stats import TrialSummary, summarize
from repro.core.flooding import FloodingResult
from repro.util.validation import require

__all__ = ["TrialEnsemble"]


@dataclass(frozen=True)
class TrialEnsemble:
    """Column-wise outcome of ``B`` independent flooding trials.

    Attributes
    ----------
    num_nodes:
        Number of nodes ``n`` of the simulated model.
    sources:
        Per-trial initiator tuples (length ``B``).
    times:
        ``T(s)`` per trial when completed, else the number of steps run.
    completed:
        Per-trial completion flags.
    histories:
        Per-trial informed-count trajectories ``m_0 .. m_T`` (ragged —
        one ``int64`` array of length ``times[i] + 1`` per trial); empty
        tuple when history recording was disabled in the plan.
    informed:
        Final informed masks as a ``(B, n)`` boolean matrix, or ``None``
        when mask recording was disabled.
    """

    num_nodes: int
    sources: tuple[tuple[int, ...], ...]
    times: np.ndarray
    completed: np.ndarray
    histories: tuple[np.ndarray, ...] = ()
    informed: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        b = len(self.sources)
        require(self.times.shape == (b,), "times must have one entry per trial")
        require(self.completed.shape == (b,), "completed must have one entry per trial")
        require(not self.histories or len(self.histories) == b,
                "histories must be empty or have one entry per trial")
        require(self.informed is None or self.informed.shape == (b, self.num_nodes),
                "informed must be (trials, n)")

    # -- basic views --------------------------------------------------------

    @property
    def num_trials(self) -> int:
        """Number of trials ``B``."""
        return len(self.sources)

    @property
    def failures(self) -> int:
        """Number of truncated (incomplete) trials."""
        return int((~self.completed).sum())

    def completion_rate(self) -> float:
        """Fraction of trials that informed every node within budget."""
        return float(self.completed.mean())

    def completed_times(self) -> np.ndarray:
        """Flooding times of the completed trials only (float array)."""
        return self.times[self.completed].astype(float)

    # -- statistics ---------------------------------------------------------

    def summary(self) -> TrialSummary:
        """Summary statistics of the completed trials.

        Truncated trials are excluded from the statistics and counted in
        ``failures``, matching how the experiments treat them.

        Raises
        ------
        ValueError
            If every trial was truncated (there is nothing to summarise).
        """
        return summarize(self.completed_times(), failures=self.failures)

    def to_rows(self, **extra: Any) -> list[dict[str, Any]]:
        """One dict per trial, for :mod:`repro.analysis.records` tables.

        Keyword arguments are prepended to every row (e.g. the sweep
        coordinates of the configuration that produced this ensemble).
        """
        rows = []
        for i in range(self.num_trials):
            row = dict(extra)
            row.update(
                trial=i,
                source=self.sources[i][0] if len(self.sources[i]) == 1
                else str(self.sources[i]),
                time=int(self.times[i]),
                completed=bool(self.completed[i]),
            )
            rows.append(row)
        return rows

    # -- conversions --------------------------------------------------------

    def to_results(self) -> list[FloodingResult]:
        """Expand into per-trial :class:`FloodingResult` records.

        Histories and informed masks are synthesised as empty arrays
        when recording was disabled (legacy callers that need them
        should keep recording enabled, the default).
        """
        b = self.num_trials
        histories = self.histories or [np.empty(0, dtype=np.int64)] * b
        informed = (self.informed if self.informed is not None
                    else [np.empty(0, dtype=bool)] * b)
        return list(starmap(FloodingResult, zip(
            self.sources, self.times.tolist(), self.completed.tolist(),
            histories, informed)))

    @classmethod
    def from_results(cls, results: Sequence[FloodingResult],
                     num_nodes: int | None = None) -> "TrialEnsemble":
        """Assemble an ensemble from per-trial records."""
        require(len(results) > 0, "at least one result is required")
        n = results[0].num_nodes if num_nodes is None else num_nodes
        return cls(
            num_nodes=n,
            sources=tuple(r.source for r in results),
            times=np.asarray([r.time for r in results], dtype=np.int64),
            completed=np.asarray([r.completed for r in results], dtype=bool),
            histories=tuple(r.informed_history for r in results),
            informed=np.stack([r.informed for r in results])
            if all(r.informed.size == n for r in results) else None,
        )

    @classmethod
    def concatenate(cls, parts: Iterable["TrialEnsemble"]) -> "TrialEnsemble":
        """Merge chunk ensembles (in the given order) into one."""
        parts = list(parts)
        require(len(parts) > 0, "at least one chunk is required")
        if len(parts) == 1:
            return parts[0]
        n = parts[0].num_nodes
        require(all(p.num_nodes == n for p in parts),
                "all chunks must simulate the same model size")
        with_masks = all(p.informed is not None for p in parts)
        with_history = all(bool(p.histories) for p in parts)
        return cls(
            num_nodes=n,
            sources=tuple(s for p in parts for s in p.sources),
            times=np.concatenate([p.times for p in parts]),
            completed=np.concatenate([p.completed for p in parts]),
            histories=tuple(h for p in parts for h in p.histories)
            if with_history else (),
            informed=np.concatenate([p.informed for p in parts])
            if with_masks else None,
        )
