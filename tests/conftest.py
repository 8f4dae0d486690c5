import numpy as np
import pytest

from dpris import capacity, scenario as scen

WAVELENGTH = 0.0115
PITCH = WAVELENGTH / 3.0


def clear_caches():
    """Drop every result the package keeps between calls: the surface, its
    grid, its UE side with the kernel spectrum and the Monte Carlo trial
    statistics, so the next build is a cold one."""
    scen._surface_memo.clear()
    scen._grid.cache_clear()
    scen._ue_side.cache_clear()
    capacity._trial_statistics.cache_clear()


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


def complex_rng(seed):
    return np.random.default_rng(seed)
