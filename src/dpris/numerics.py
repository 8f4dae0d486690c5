"""Shared numerical kernels: unit conversions."""

from __future__ import annotations

import numpy as np


def db_to_linear(value_db: float) -> float:
    """Power ratio from decibels."""
    return float(10.0 ** (value_db / 10.0))


def linear_to_db(value: float) -> float:
    """Decibels from a positive linear power ratio."""
    if not value > 0.0:
        raise ValueError(f"linear value must be positive, got {value!r}")
    return float(10.0 * np.log10(value))


def dbm_to_watts(value_dbm: float) -> float:
    """Watts from dBm (referenced to 1 mW)."""
    return float(10.0 ** ((value_dbm - 30.0) / 10.0))
