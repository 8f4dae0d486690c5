"""Shared numerical kernels: unit conversions."""

from __future__ import annotations


def db_to_linear(value_db: float) -> float:
    """Power ratio from decibels."""
    return float(10.0 ** (value_db / 10.0))


def dbm_to_watts(value_dbm: float) -> float:
    """Watts from dBm (referenced to 1 mW)."""
    return float(10.0 ** ((value_dbm - 30.0) / 10.0))
