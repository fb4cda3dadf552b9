"""The blessed public surface of ``import repro``, pinned exactly.

``repro.__all__`` is a contract: scripts and downstream notebooks may
rely on every name here importing from the top level forever (or until
a deliberate, documented removal that updates this pin in the same
change).  A name missing from the pin fails this test; so does a name
quietly added — additions are fine, but they must be blessed here.
"""

from __future__ import annotations

import repro

EXPECTED = sorted([
    "__version__",
    # evolving-graph models
    "EvolvingGraph", "GraphSnapshot", "GeometricMEG", "EdgeMEG",
    "SparseEdgeMEG", "IndependentDynamicGraph", "MobilityMEG",
    "RandomWaypoint", "RandomWaypointTorus", "RandomDirection",
    "TorusGridWalk", "SphereWaypointMEG", "moving_hub_star",
    # flooding / temporal reachability
    "FloodingResult", "flood", "flooding_time", "flooding_trials",
    "foremost_arrival_times", "temporal_eccentricity", "temporal_diameter",
    "max_flooding_time_over_sources", "resolve_max_steps",
    # engine
    "SimulationPlan", "TrialEnsemble", "run_plan",
    # protocols
    "SpreadingProtocol", "Flooding", "FLOODING", "ProbabilisticFlooding",
    "ExpiringFlooding", "PushGossip", "PullGossip", "PushPullGossip",
    "resolve_protocol", "spread", "spreading_trials",
    # theory bounds
    "ladder_bound", "unit_ladder_bound", "geometric_ladder",
    "geometric_upper_bound", "geometric_lower_bound", "edge_ladder",
    "edge_upper_bound", "edge_lower_bound",
    # observability
    "obs",
    # sweeps and campaigns
    "parameter_grid", "run_sweep", "CampaignPlan", "CampaignReport",
    "ResultStore", "WorkUnit", "plan_experiments", "plan_sweep",
    "run_campaign",
    # the campaign service
    "ServiceClient", "run_worker",
])


def test_public_surface_is_pinned_exactly():
    assert sorted(repro.__all__) == EXPECTED


def test_every_blessed_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_no_duplicate_exports():
    assert len(repro.__all__) == len(set(repro.__all__))
