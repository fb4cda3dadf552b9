"""Mobility-model interface and the generic mobile MEG wrapper.

The paper's expansion technique applies to *any* mobility model whose
stationary distribution of node positions is uniform or almost uniform
(Section 3, "Further mobility models").  This package implements the
models the paper names — random waypoint (square and torus), random
direction with reflection (the billiard model) and the walkers model on
a toroidal grid — behind a single interface so that experiment E11 can
sweep them uniformly.

A :class:`MobilityModel` writes the kinematic law of ``n`` nodes in the
square ``[0, side]^2`` once, over a leading trial axis; its serial
``reset``/``step``/``positions`` run the one-trial case and the native
batched kernel (:mod:`repro.mobility.kernels`) a whole chunk of trials.
:class:`MobilityMEG` pairs a model with a transmission radius to
produce an evolving graph
(:class:`~repro.geometric.meg.GeometricSnapshot` per step).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.dynamics.base import EvolvingGraph
from repro.geometric.meg import GeometricSnapshot
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import require, require_positive, require_positive_int

__all__ = ["MobilityModel", "MobilityMEG"]


class MobilityModel(abc.ABC):
    """Kinematics of ``n`` mobile nodes in ``[0, side]^2``.

    A model writes its kinematic law once, over a leading trial axis:

    * :meth:`init_state` draws the start state of ``count`` independent
      populations;
    * :meth:`advance` moves the listed trials one time step, in place;
    * :meth:`state_positions` reads the listed trials' coordinates.

    The serial interface is the one-trial case of that law: :meth:`reset`
    seeds the model's generator and draws ``init_state(1, rng)``,
    :meth:`step` advances trial 0 and :meth:`positions` returns a copy
    of its row.  The native batched kernel of :class:`MobilityMEG` runs
    the same law over a whole chunk of trials, so native results follow
    the serial process law by construction.  A subclass that overrides
    ``reset``, ``step`` or ``positions`` keeps serial and replay runs,
    but the native kernel declines it (the law would no longer describe
    it).

    Implementations must document whether :meth:`init_state` is an
    *exact* stationary draw (perfect simulation) or an approximation;
    the ``exact_stationary_start`` attribute records it so experiments
    can apply warm-up only where needed.
    """

    #: Whether init_state() samples the exact stationary law of the model.
    exact_stationary_start: bool = False

    def __init__(self, n: int, side: float) -> None:
        self.n = require_positive_int(n, "n")
        self.side = require_positive(side, "side")
        self._rng: np.random.Generator | None = None
        self._state: object = None

    # -- the law, over a leading trial axis ---------------------------------

    @abc.abstractmethod
    def init_state(self, count: int, rng: np.random.Generator) -> object:
        """Start state of *count* trial populations (stationary where
        possible), drawn from *rng* only."""

    @abc.abstractmethod
    def advance(self, state: object, rng: np.random.Generator,
                act: np.ndarray) -> None:
        """Move the trials whose rows are listed in *act* (sorted, unique)
        one time step, updating *state* in place."""

    @abc.abstractmethod
    def state_positions(self, state: object, act: np.ndarray) -> np.ndarray:
        """Coordinates of the *act* trials, shape ``(len(act), n, 2)``,
        inside ``[0, side]^2``."""

    # -- the serial model: trial 0 of the law --------------------------------

    def reset(self, seed: SeedLike = None) -> None:
        """Initialise positions (stationary where possible) and kinematic state."""
        self._rng = as_generator(seed)
        self._state = self.init_state(1, self._rng)

    def step(self) -> None:
        """Advance all nodes one time step."""
        self.advance(self._live_state(), self._rng, _TRIAL0)

    def positions(self) -> np.ndarray:
        """Current coordinates, shape ``(n, 2)``, inside ``[0, side]^2``."""
        return self.state_positions(self._live_state(), _TRIAL0)[0].copy()

    def warmup(self, steps: int) -> None:
        """Advance *steps* steps (approximate stationarisation)."""
        for _ in range(int(steps)):
            self.step()

    def _live_state(self) -> object:
        if self._state is None:
            raise RuntimeError("call reset() before step() or positions()")
        return self._state


def trial_rows(act: np.ndarray, count: int) -> slice | np.ndarray:
    """Index of the *act* rows among *count* trials: a plain slice (views,
    no copies) when *act* lists every trial, else *act* itself."""
    return slice(None) if act.shape[0] == count else act


#: The serial model's trial index.
_TRIAL0 = np.zeros(1, dtype=np.intp)


class MobilityMEG(EvolvingGraph):
    """Evolving graph induced by a mobility model and a transmission radius.

    Parameters
    ----------
    model:
        The mobility model (owns ``n`` and the region).
    radius:
        Transmission radius ``R``: nodes within distance ``R`` are adjacent.
    warmup_steps:
        Steps to run after every ``reset`` before time 0 — used to
        approximate stationarity for models without exact stationary
        sampling (ignored, and unnecessary, when the model's start is
        exact).
    torus:
        When true, adjacency uses the toroidal metric with period
        ``model.side`` (appropriate for the torus mobility models).
    """

    def __init__(self, model: MobilityModel, radius: float, *, warmup_steps: int = 0,
                 torus: bool = False) -> None:
        self.model = model
        self._radius = require_positive(radius, "radius")
        require(radius <= model.side * (1 + 1e-12), "radius exceeds the region side")
        if torus:
            require(radius <= model.side / 2 * (1 + 1e-12),
                    "toroidal adjacency needs radius <= side/2")
        self._warmup = int(warmup_steps)
        require(self._warmup >= 0, "warmup_steps must be >= 0")
        self._boxsize = model.side if torus else None
        self._t = 0

    @property
    def num_nodes(self) -> int:
        return self.model.n

    @property
    def radius(self) -> float:
        """Transmission radius ``R``."""
        return self._radius

    @property
    def boxsize(self) -> float | None:
        """Toroidal period of the adjacency metric, or ``None`` (Euclidean)."""
        return self._boxsize

    @property
    def warmup_steps(self) -> int:
        """Steps run after ``reset`` before time 0 (0 when the model's
        stationary start is exact)."""
        return 0 if self.model.exact_stationary_start else self._warmup

    def reset(self, seed: SeedLike = None) -> None:
        self.model.reset(seed)
        if self._warmup and not self.model.exact_stationary_start:
            self.model.warmup(self._warmup)
        self._t = 0

    def step(self) -> None:
        self.model.step()
        self._t += 1

    def snapshot(self) -> GeometricSnapshot:
        return GeometricSnapshot(self.model.positions(), self._radius,
                                 boxsize=self._boxsize)

    @property
    def time(self) -> int:
        return self._t
