"""Dual-polarized reflective-surface link simulator.

Geometry, near-field feeding, angle-dependent reflection, correlated
dual-polarized Rayleigh fading, Monte Carlo ergodic capacity with matching
closed-form bounds, optimal power allocation across polarizations, and the
single-polarized baseline comparison.
"""

__version__ = "0.1.0"
