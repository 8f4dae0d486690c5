"""Shared numerical kernels: unit conversions."""

from __future__ import annotations

import math


def db_to_linear(value_db: float) -> float:
    """Power ratio from decibels; inf where the ratio overflows a float,
    so a range check on the result rejects it."""
    try:
        return 10.0 ** (float(value_db) / 10.0)
    except OverflowError:
        return math.inf


def dbm_to_watts(value_dbm: float) -> float:
    """Watts from dBm (referenced to 1 mW)."""
    return db_to_linear(value_dbm - 30.0)
