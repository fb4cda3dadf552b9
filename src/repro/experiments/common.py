"""Shared experiment configuration and helpers.

Every experiment module exposes::

    EXPERIMENT_ID: str
    TITLE: str
    def run(config: ExperimentConfig) -> ExperimentResult

The :class:`ExperimentConfig` carries the master seed and a *scale*
knob; ``"quick"`` keeps every experiment under a few seconds (used by
the benchmark harness and CI), ``"standard"`` is the default console
scale, and ``"full"`` is what EXPERIMENTS.md records.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence, TypeVar

from repro.util.validation import require

__all__ = ["ExperimentConfig", "DEFAULT_SEED", "BACKEND_CHOICES",
           "add_run_arguments", "expand_ids", "positive_int"]

#: Default master seed (IPDPS 2009 started 2009-05-25).
DEFAULT_SEED = 20090525

_SCALES = ("quick", "standard", "full")

#: CLI-facing backend names.  ``native`` is the batched engine with its
#: fast chunk-stream RNG layout; the other three map one-to-one onto
#: :data:`repro.engine.BACKENDS`.
BACKEND_CHOICES = ("serial", "batched", "native", "parallel")

T = TypeVar("T")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    Attributes
    ----------
    seed:
        Master seed; every experiment derives all its randomness from it.
    scale:
        ``"quick" | "standard" | "full"`` — problem sizes and trial
        counts grow with the scale.
    output_dir:
        When set, experiments save ``.txt/.csv/.json`` artifacts there.
    trials:
        Optional override of each experiment's per-configuration trial
        count (the CLI ``--trials`` flag); ``None`` keeps the scale's
        default.
    backend:
        Execution backend for trial batches (``--backend``); one of
        :data:`BACKEND_CHOICES`.  ``serial`` and ``batched`` are
        bit-identical for the same seed; ``native`` runs the fast
        vectorised kernels on its own deterministic stream layout;
        ``parallel`` fans chunks out over worker processes.
    jobs:
        Worker count for the parallel backend (``--jobs``).
    protocol:
        Spreading-protocol token for protocol-aware experiments
        (``--protocol``); ``"flooding"`` (the default) keeps every
        experiment exactly what it was before the protocol subsystem.
        Tokens resolve through :func:`repro.protocols.resolve_protocol`
        (``"push-pull"``, ``"p-flood:transmit_probability=0.3"``, ...).
    """

    seed: int = DEFAULT_SEED
    scale: str = "standard"
    output_dir: Path | None = None
    trials: int | None = None
    backend: str = "serial"
    jobs: int | None = None
    protocol: str = "flooding"

    def __post_init__(self) -> None:
        require(self.scale in _SCALES, f"scale must be one of {_SCALES}")
        require(self.backend in BACKEND_CHOICES,
                f"backend must be one of {BACKEND_CHOICES}")
        require(self.trials is None or int(self.trials) >= 1,
                "trials override must be >= 1")
        require(self.jobs is None or int(self.jobs) >= 1, "jobs must be >= 1")
        self.protocol_instance()  # fail fast on unknown tokens/params

    def pick(self, quick: T, standard: T, full: T) -> T:
        """Select a value by scale."""
        return {"quick": quick, "standard": standard, "full": full}[self.scale]

    def trial_count(self, default: int) -> int:
        """The scale's *default* trial count, unless overridden by
        ``--trials``."""
        return default if self.trials is None else int(self.trials)

    def flood_kwargs(self) -> dict[str, Any]:
        """Keyword arguments routing a ``flooding_trials`` /
        ``spreading_trials`` call through the configured backend."""
        if self.backend == "native":
            return {"backend": "batched", "rng_mode": "native"}
        kwargs: dict[str, Any] = {"backend": self.backend}
        if self.backend == "parallel":
            kwargs["jobs"] = self.jobs
        return kwargs

    def protocol_instance(self):
        """The configured spreading protocol, resolved from its token."""
        from repro.protocols import resolve_protocol
        return resolve_protocol(self.protocol)

    def protocol_token(self) -> str:
        """Canonical token of the configured protocol — the spelling the
        campaign cache key records (``"flooding"`` is never recorded:
        the default keeps pre-protocol keys byte-identical)."""
        return self.protocol_instance().token()

    def stream_contract(self) -> str:
        """The backend-independent identity of this config's randomness.

        ``serial``, ``batched``, and ``parallel`` all replay the same
        per-trial streams and are bit-identical for a given seed, so
        they share the contract ``"replay"``; ``native`` draws from the
        engine's chunk streams, whose realisations additionally depend
        on the chunk size, hence ``"native/cs<chunk_size>"``.  The
        campaign result store keys cached work on this string — two
        configs with equal contracts (and equal seed/scale/trials) are
        the *same work unit* regardless of how they are executed.
        """
        if self.backend == "native":
            from repro.engine.plan import DEFAULT_CHUNK_SIZE
            return f"native/cs{DEFAULT_CHUNK_SIZE}"
        return "replay"


# -- shared CLI plumbing ----------------------------------------------------
# Both experiment-running CLIs (python -m repro.experiments and
# python -m repro.campaign) accept the same work-defining knobs; they are
# declared once here so the two parsers cannot drift apart.

def positive_int(text: str) -> int:
    """``argparse`` type for strictly positive integer flags."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the work-defining arguments (ids + scale/seed/trials/backend)."""
    from repro.experiments.registry import id_span
    parser.add_argument("experiments", nargs="*",
                        help=f"experiment ids ({id_span()}) or 'all'")
    parser.add_argument("--scale", choices=("quick", "standard", "full"),
                        default="standard", help="problem-size scale")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="master seed")
    parser.add_argument("--trials", type=positive_int, default=None,
                        help="override the per-configuration trial count "
                             "(default: the scale's built-in count)")
    parser.add_argument("--backend", choices=BACKEND_CHOICES, default="serial",
                        help="trial execution backend: serial and batched are "
                             "bit-identical (and share campaign cache keys "
                             "with parallel); native uses the fast batched "
                             "kernels on its own stream layout")
    parser.add_argument("--protocol", default="flooding",
                        help="spreading protocol for protocol-aware "
                             "experiments (E16): a registry token such as "
                             "flooding, push, pull, push-pull, p-flood, "
                             "expiring, with optional parameters as "
                             "name:key=value,... (e.g. "
                             "p-flood:transmit_probability=0.3); non-default "
                             "protocols get their own campaign cache keys")


def expand_ids(tokens: Sequence[str]) -> list[str]:
    """CLI id list -> experiment ids (a lone ``"all"`` expands)."""
    from repro.experiments.registry import all_ids
    if len(tokens) == 1 and tokens[0].lower() == "all":
        return list(all_ids())
    return list(tokens)
