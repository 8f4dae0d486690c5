"""The surface-to-UE channel's pathloss weights (``pathloss_weights``);
``capacity`` gives the law of its correlated dual-polarized fading.
Distances are exact per element, so a UE in the array near field sees the
per-element power variation.
"""

from __future__ import annotations

import numpy as np


def pathloss_weights(
    distances: np.ndarray, unit_pathloss: float, pathloss_exponent: float
) -> np.ndarray:
    """Read-only weights w_n = sqrt(beta0 d_n^-alpha) of the UE distances
    d_n in metres, in their shape, for the linear ``unit_pathloss`` beta0
    and the ``pathloss_exponent`` alpha."""
    weights = np.sqrt(unit_pathloss * distances**-pathloss_exponent)
    weights.setflags(write=False)
    return weights
