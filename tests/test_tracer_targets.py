"""The package names the benchmark's tracer wraps.

The tracer reports a name it cannot find as absent, and an absent name
leaves its per-layer metric at zero.  Each name below resolves today, so a
rename or a removed module fails here instead of darkening a metric.
"""

import importlib

import pytest

TRACED = (
    ("geometry", "build_ris_grid"),
    ("feed", "build_propagation_matrix"),
    ("capacity", "ergodic_capacity_mc"),
    ("capacity", "compute_O"),
    ("capacity", "expected_gram_moments"),
    ("capacity", "moment_upper_bound"),
    ("capacity", "optimal_power_allocation"),
    ("capacity", "xpd_threshold"),
    ("scenario", "build_link_model"),
    ("sweep", "run_sweep"),
    ("sweep", "write_csv"),
)


@pytest.mark.parametrize("module,name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_is_a_callable_module_attribute(module, name):
    assert callable(getattr(importlib.import_module(f"dpris.{module}"), name, None))
