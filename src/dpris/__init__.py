"""Dual-polarized reflective-surface link simulator: the link model
(``scenario``), its capacities and bounds (``capacity``), sweeps
(``sweep``) and the ``dpris`` command line (``cli``).
"""

__version__ = "0.1.0"
