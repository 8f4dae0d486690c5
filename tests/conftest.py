import importlib
import pkgutil

import pytest

import dpris
from dpris import scenario as scen

WAVELENGTH = 0.0115
PITCH = WAVELENGTH / 3.0


def kept_results() -> dict:
    """Every result the package keeps between calls, by dotted name: the
    ``functools`` caches of each ``dpris`` module, found by their
    ``cache_clear``, and the last surface, ``scenario._surface_memo``."""
    kept = {"dpris.scenario._surface_memo": scen._surface_memo}
    for info in pkgutil.iter_modules(dpris.__path__):
        module = importlib.import_module(f"dpris.{info.name}")
        kept.update(
            (f"{module.__name__}.{name}", value)
            for name, value in vars(module).items()
            if hasattr(value, "cache_clear")
        )
    return kept


def clear_caches():
    """Drop every result ``kept_results`` finds, so the next build is a
    cold one."""
    for value in kept_results().values():
        (value.clear if isinstance(value, dict) else value.cache_clear)()


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with no result kept from an earlier test, so what
    it counts or measures does not depend on which tests ran before it."""
    clear_caches()


@pytest.fixture(scope="session")
def table_scenario_16():
    """Default-parameter scenario shrunk to a 4x4 surface."""
    return scen.Scenario(elements=16)


@pytest.fixture(scope="session")
def oblique_scenario():
    """Feed raised toward +z at 0.1 m standoff (unequal polarizations)."""
    return scen.Scenario(elements=16, feed_r_m=0.1, feed_zenith_deg=60.0)
