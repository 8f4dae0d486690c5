"""Dual-polarized reflective-surface link simulator.

Geometry, near-field feeding, angle-dependent reflection, correlated
dual-polarized Rayleigh fading, Monte Carlo ergodic capacity with matching
closed-form bounds, optimal power allocation across polarizations, and the
single-polarized baseline comparison.
"""

from .capacity import (
    LinkBudget,
    McCapacityResult,
    PowerAllocation,
    compute_O,
    ergodic_capacity_mc,
    expected_gram_moments,
    moment_upper_bound,
    multiplexing_gain,
    optimal_power_allocation,
    single_pol_capacity_mc,
    single_pol_moment_bound,
    xpd_threshold,
)
from .channel import (
    ChannelStatistics,
    build_channel_statistics,
    pathloss_vectors,
)
from .exceptions import DegenerateGeometryError, ModelInconsistencyError
from .feed import (
    FeedSpec,
    PropagationMatrix,
    boresight_from_angles,
    build_propagation_matrix,
    captured_power_fraction,
    feed_gains,
    pattern_hemisphere_integral,
)
from .geometry import (
    RisGeometry,
    SphericalPlacement,
    axis_plane_tilt,
    build_ris_grid,
    incidence_decompositions,
    spherical_to_cartesian,
    transverse_plane_tilt,
)
from .numerics import db_to_linear, dbm_to_watts, linear_to_db
from .ris import (
    AmplitudeModel,
    RisConfiguration,
    build_configuration,
    element_amplitudes,
    optimal_phases,
    phase_strategy,
)
from .scenario import Scenario, build_link_model, normalize_unit_ov, resolve_allocation

__version__ = "0.1.0"
