import math
from pathlib import Path

from hypothesis import given, settings, strategies as st

from dpris import scenario as scen
from dpris.exceptions import DegenerateGeometryError, ModelInconsistencyError

GOLDEN_MOMENTS = Path(__file__).parent / "golden" / "moments.txt"

#: Link models whose O_V, O_H and moments are recorded bit for bit: a random
#: row, an oblique feed, a tilted boresight under the transverse-plane
#: convention with a tau offset, a feed steered at the surface center, and
#: both xpd extremes.
MOMENT_SCENARIOS = {
    "random-16x8": scen.Scenario(
        elements=16, power_dbm=43.0, phase_scheme="random", phase_seed=5, random_phase_draws=8
    ),
    "oblique-zenith-60": scen.Scenario(elements=16, feed_r_m=0.1, feed_zenith_deg=60.0),
    "boresight-10-80-90": scen.Scenario(
        boresight_deg="10,80,90",
        incidence_convention="transverse-plane",
        tau_offset=0.3,
        normal_incidence_phase_deg=60.0,
    ),
    "origin-400": scen.Scenario(elements=400, boresight_deg="origin"),
    "xpd-0": scen.Scenario(xpd_coeff=0.0),
    "xpd-1": scen.Scenario(xpd_coeff=1.0),
}


def moments_text() -> str:
    """One line per recorded number: scenario label, quantity, value (.17g)."""
    lines = []
    for label, scenario in MOMENT_SCENARIOS.items():
        model = scen.build_link_model(scenario)
        lines.append(f"{label} o_v {model.o_v:.17g}")
        lines.append(f"{label} o_h {model.o_h:.17g}")
        for index, row in enumerate(model.moments.reshape(-1, 4)):
            values = " ".join(f"{float(m):.17g}" for m in row)
            lines.append(f"{label} moments[{index}] {values}")
    return "\n".join(lines) + "\n"


def test_link_moments_match_golden():
    # O_V, O_H and every moment of the recorded links, bit for bit: a
    # reordered product in the surface kernels moves these by an ulp where
    # the recipe CSVs, which print means over many draws, may not show it
    assert moments_text() == GOLDEN_MOMENTS.read_text()


def numbers(low, high, db=False):
    """Floats over a plausible range [low, high], or one of the values a
    range check must catch: zero, a negative, a non-finite value and, for
    a dB field, +-4000 dB, whose ratio overflows or underflows."""
    edges = [0.0, -1.0, math.inf, -math.inf, math.nan] + ([4000.0, -4000.0] if db else [])
    return st.floats(low, high) | st.sampled_from(edges)


def boresights():
    """``origin``, or two to four angles in degrees joined by commas."""
    triples = st.lists(numbers(-360.0, 360.0), min_size=2, max_size=4)
    return st.just("origin") | triples.map(lambda angles: ",".join(map(repr, angles)))


#: Every scenario field, valid or not: angles over a full turn and more,
#: the rest over a plausible range and the values above.
FIELDS = {
    "wavelength_m": numbers(1e-3, 0.1),
    "elements": st.integers(-4, 64) | st.sampled_from([1, 4, 9, 16, 25, 36, 49, 64]),
    "pitch_wavelengths": numbers(0.1, 2.0),
    "noise_dbm": numbers(-150.0, 50.0, db=True),
    "power_dbm": numbers(-50.0, 100.0, db=True),
    "snr_db": st.none() | numbers(-100.0, 300.0, db=True),
    "beta0_db": numbers(-100.0, 20.0, db=True),
    "pathloss_exponent": numbers(1.0, 6.0),
    "xpd_coeff": numbers(-0.5, 1.5),
    "feed_r_m": numbers(1e-3, 1.0),
    "feed_zenith_deg": numbers(-360.0, 360.0),
    "feed_azimuth_deg": numbers(-720.0, 720.0),
    "feed_gain_db": numbers(-10.0, 60.0, db=True),
    "boresight_deg": boresights(),
    "ue_r_m": numbers(0.5, 100.0),
    "ue_zenith_deg": numbers(-360.0, 360.0),
    "ue_azimuth_deg": numbers(-720.0, 720.0),
    "normal_incidence_phase_deg": numbers(-720.0, 720.0) | st.sampled_from([180.0, -540.0]),
    "tau_offset": numbers(-5.0, 5.0),
    "incidence_convention": st.sampled_from(["axis-plane", "transverse-plane", "bogus"]),
    "phase_scheme": st.sampled_from(scen.PHASE_SCHEMES + ("bogus",)),
    "allocation": st.sampled_from(["equal", "optimal", "0.3", "1.5", "nan", "bogus"]),
    "trials": st.integers(-1, 50),
    "random_phase_draws": st.integers(-1, 4),
}
#: Up to four fields changed at a time from a 16-element, 4-draw scenario.
CHANGES = st.lists(st.sampled_from(sorted(FIELDS)), max_size=4, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({name: FIELDS[name] for name in names})
)
BASE = scen.Scenario(elements=16, random_phase_draws=4)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(CHANGES)
def test_scenario_is_accepted_or_names_a_field(changes):
    # a scenario is made, or rejected with an error that names a field it
    # was given; one that is made builds its link or fails as a degenerate
    # model, and no value reaches the link build as an overflow
    try:
        scenario = BASE.replace(**changes)
    except ValueError as err:
        assert any(name in str(err) for name in changes), err
        return
    try:
        scen.build_link_model(scenario)
    except (DegenerateGeometryError, ModelInconsistencyError, ValueError):
        pass
