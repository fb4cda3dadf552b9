"""The paper's primary contribution: flooding, expansion, and the bounds."""

from repro.core.bounds import (
    ExpansionLadder,
    edge_ladder,
    edge_lower_bound,
    edge_upper_bound,
    edge_upper_bound_closed_form,
    geometric_ladder,
    geometric_lower_bound,
    geometric_upper_bound,
    geometric_upper_bound_closed_form,
    ladder_bound,
    unit_ladder_bound,
)
from repro.core.expansion import (
    ExpansionEstimate,
    estimate_worst_expansion,
    expansion_of_set,
    expansion_profile,
    is_expander_exact,
    neighborhood_size,
    trajectory_expansion,
    worst_expansion_exact,
    worst_expansion_ladder_exact,
)
from repro.core.journeys import (
    ArrivalTimes,
    foremost_arrival_times,
    temporal_diameter,
    temporal_eccentricity,
)
from repro.core.flooding import (
    FloodingResult,
    flood,
    flooding_time,
    flooding_trials,
    max_flooding_time_over_sources,
    resolve_max_steps,
)
from repro.core.theory import (
    GapRegime,
    edge_density_threshold,
    gap_regime_polynomial,
    gap_regime_sqrt,
    geometric_radius_threshold,
    in_edge_regime,
    in_edge_tight_regime,
    in_geometric_regime,
    in_geometric_tight_regime,
)

__all__ = [
    # flooding
    "FloodingResult",
    "flood",
    "flooding_time",
    "flooding_trials",
    "max_flooding_time_over_sources",
    "resolve_max_steps",
    "ArrivalTimes",
    "foremost_arrival_times",
    "temporal_eccentricity",
    "temporal_diameter",
    # expansion
    "ExpansionEstimate",
    "estimate_worst_expansion",
    "expansion_of_set",
    "expansion_profile",
    "is_expander_exact",
    "neighborhood_size",
    "trajectory_expansion",
    "worst_expansion_exact",
    "worst_expansion_ladder_exact",
    # bounds
    "ExpansionLadder",
    "ladder_bound",
    "unit_ladder_bound",
    "geometric_ladder",
    "geometric_upper_bound",
    "geometric_upper_bound_closed_form",
    "geometric_lower_bound",
    "edge_ladder",
    "edge_upper_bound",
    "edge_upper_bound_closed_form",
    "edge_lower_bound",
    # theory / regimes
    "GapRegime",
    "gap_regime_polynomial",
    "gap_regime_sqrt",
    "geometric_radius_threshold",
    "edge_density_threshold",
    "in_geometric_regime",
    "in_geometric_tight_regime",
    "in_edge_regime",
    "in_edge_tight_regime",
]
