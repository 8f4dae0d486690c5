import dataclasses
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from dpris import capacity, channel, feed, geometry, scenario as scen, sweep
from dpris.exceptions import DegenerateGeometryError, ModelInconsistencyError

import oracles

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
        # O_V and O_H are the forms of the scenario's aligned-phase twin
        o_v, o_h = scen.build_link_model(scenario.replace(phase_scheme="optimal")).forms
        lines.append(f"{label} o_v {o_v:.17g}")
        lines.append(f"{label} o_h {o_h:.17g}")
        model = scen.build_link_model(scenario)
        for index, row in enumerate(model.moments.reshape(-1, 4)):
            values = " ".join(f"{float(m):.17g}" for m in row)
            lines.append(f"{label} moments[{index}] {values}")
    return "\n".join(lines) + "\n"


def test_link_moments_match_golden():
    # O_V, O_H and every moment of the recorded links, bit for bit: a
    # reordered product in the surface kernels moves these by an ulp where
    # the recipe CSVs, which print means over many draws, may not show it
    assert moments_text() == GOLDEN_MOMENTS.read_text()


def test_db_round_trip():
    for value in (1e-14, 0.2, 1.0, 37.5, 1e12):
        assert scen.db_to_linear(10.0 * np.log10(value)) == pytest.approx(value, rel=1e-12)
    for db in (-96.0, -49.7, 0.0, 17.0):
        assert 10.0 * np.log10(scen.db_to_linear(db)) == pytest.approx(db, abs=1e-12)


def test_db_reference_values():
    # -96 dBm and -49.7 dB are the stock noise/pathloss figures
    assert scen.db_to_linear(-96.0 - 30.0) == pytest.approx(2.5118864315095801e-13, rel=1e-12)
    assert scen.db_to_linear(-49.7) == pytest.approx(1.0715193052376064e-05, rel=1e-12)
    assert scen.db_to_linear(0.0) == 1.0
    # the default 35 dBm over -96 dBm noise is a 131 dB transmit SNR
    assert scen._snr(scen.Scenario()) == pytest.approx(10.0**13.1, rel=1e-12)


def ends(name):
    """The least and greatest values the number field ``name`` takes
    (``scen._RANGES``): the largest finite floats for a wrapping angle and
    2^128 for a seed."""
    least, greatest = scen._RANGES[name]
    if isinstance(least, int):
        return [least, greatest if greatest < math.inf else 2**128]
    return [b if math.isfinite(b) else math.nextafter(b, 0.0) for b in (least, greatest)]


def past(name):
    """The finite values just past either end of ``name``'s range."""
    least, greatest = scen._RANGES[name]
    if isinstance(least, int):
        return [least - 1] + ([greatest + 1] if greatest < math.inf else [])
    values = (math.nextafter(least, -math.inf), math.nextafter(greatest, math.inf))
    return [value for value in values if math.isfinite(value)]


def edges(name):
    """``ends`` and ``past``, but a count's greatest, as no test builds at
    a ceiling."""
    least, greatest = scen._RANGES[name]
    return ends(name)[: 1 if isinstance(least, int) and greatest < math.inf else 2] + past(name)


def numbers(low, high, db=False):
    """Floats over a plausible range [low, high], as Python floats or
    ``np.float64``, the ints about it, or one of the values a range check
    must catch: zero, a negative, a non-finite value and, for a dB field,
    +-4000 dB, whose ratio overflows or underflows; or a value of a kind a
    float field must refuse: a bool, a str, a complex and None (which
    ``snr_db`` alone takes)."""
    edges = [0.0, -1.0, math.inf, -math.inf, math.nan] + ([4000.0, -4000.0] if db else [])
    floats = st.floats(low, high)
    return (
        floats
        | floats.map(np.float64)
        | st.integers(math.floor(low), math.ceil(high))
        | st.sampled_from(edges + [True, "1.0", 1j, None])
    )


def integers(low, high, *edges):
    """Integers over [low, high], one of ``edges``, or a value an integer
    field must refuse: a whole float and a bool."""
    return st.integers(low, high) | st.sampled_from([*edges, float(high), True])


def boresights():
    """``origin``, two to four angles in degrees joined by commas, or a
    float, which a text field must refuse."""
    triples = st.lists(numbers(-360.0, 360.0), min_size=2, max_size=4)
    angles = triples.map(lambda angles: ",".join(map(repr, angles)))
    return st.sampled_from(["origin", 90.0]) | angles


#: Every scenario field, valid or not: angles over a full turn and more,
#: the rest over a plausible range and the values above, and each number
#: field the ``edges`` of its range; each text field also draws a float.
FIELDS = {
    "wavelength_m": numbers(1e-3, 0.1),
    "elements": integers(-4, 64, 1, 4, 9, 16, 25, 36, 49, 64),
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
    "incidence_convention": st.sampled_from(["axis-plane", "transverse-plane", "bogus", 0.5]),
    "phase_scheme": st.sampled_from(scen.PHASE_SCHEMES + ("bogus", 0.5)),
    "allocation": st.sampled_from(["equal", "optimal", "0.3", "1.5", "nan", "bogus", 0.3]),
    "trials": integers(-1, 50),
    "random_phase_draws": integers(-1, 4),
    "phase_seed": integers(-2, 2, 2**64 + 5, 2**128 + 7),
    "master_seed": integers(-2, 2, 2**64 + 5, 2**128 + 7),
}
FIELDS.update({name: FIELDS[name] | st.sampled_from(edges(name)) for name in scen._RANGES})
#: Up to four fields changed at a time from a 16-element, 4-draw scenario.
CHANGES = st.lists(st.sampled_from(sorted(FIELDS)), max_size=4, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({name: FIELDS[name] for name in names})
)
BASE = scen.Scenario(elements=16, random_phase_draws=4)
#: ``BASE`` under the random scheme, an explicit split and a tilted
#: boresight, from which one changed field can break each joint rule of
#: ``scen._check_joint``, ``allocation = optimal`` among them; and under the
#: optimal split, which ``phase_scheme = random`` alone breaks.
RANDOM_BASE = BASE.replace(phase_scheme="random", allocation="0.3", boresight_deg="10,80,90")
OPTIMAL_SPLIT_BASE = BASE.replace(allocation="optimal")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(CHANGES)
def test_scenario_is_accepted_or_names_a_field(changes):
    # a scenario is made, or rejected with an error that names a field it
    # was given; one that is made builds its link or fails as a named
    # degeneracy, and no value reaches the link build as an overflow or a
    # plain ValueError
    try:
        scenario = BASE.replace(**changes)
    except ValueError as err:
        assert any(name in str(err) for name in changes), err
        return
    try:
        scen.build_link_model(scenario)
    except (DegenerateGeometryError, ModelInconsistencyError):
        pass



@pytest.mark.parametrize("name", sorted(scen._RANGES))
def test_a_range_takes_its_edges_and_refuses_past_them_by_name(name):
    # both ends are taken, a count's ceiling too (made, never built), and
    # a value just past either end, nan or an infinity is refused with the
    # field's name and range
    least, greatest = scen._RANGES[name]
    taken = ends(name)
    refused = past(name) + ([] if isinstance(least, int) else [math.nan, -math.inf, math.inf])
    for value in taken:
        assert getattr(BASE.replace(**{name: value}), name) == value
    message = re.escape(f"{name} must be finite and lie in [{least}, {greatest}], got ")
    for value in refused:
        with pytest.raises(ValueError, match=message):
            BASE.replace(**{name: value})


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(CHANGES)
@example({"elements": 15})
@example({"normal_incidence_phase_deg": -180})
@example({"boresight_deg": "10,80"})
@example({"allocation": "optimal"})
@example({"phase_scheme": "random"})
@example({"phase_scheme": "random", "allocation": "optimal"})
@example({"elements": 15, "xpd_coeff": 1.5, "boresight_deg": "origin"})
@example({"power_dbm": 43, "snr_db": np.float64(120.0)})
def test_replace_checks_as_dataclasses_replace_does(changes):
    # replace checks only the changed fields and the joint rules they
    # enter, yet from each base an accepted change gives the scenario of
    # __init__, each value as given and of its given type, an int or
    # np.float64 on a float field too, and a rejected one the same error
    for base in (BASE, RANDOM_BASE, OPTIMAL_SPLIT_BASE):
        try:
            expected = dataclasses.replace(base, **changes)
        except ValueError as err:
            with pytest.raises(ValueError) as caught:
                base.replace(**changes)
            assert str(caught.value) == str(err)
            continue
        current = base.replace(**changes)
        assert repr(current) == repr(expected)
        assert list(map(type, vars(current).values())) == list(map(type, vars(expected).values()))


@pytest.mark.parametrize(
    "name", ["elements", "trials", "random_phase_draws", "phase_seed", "master_seed"]
)
def test_integer_fields_take_integers_only(name):
    # a count or a seed is what operator.index takes, a bool excepted: a
    # float, even a whole one, a numpy float and a bool are refused by
    # name; a numpy integer and a seed past 2^64 are taken
    for value in (2.5, 16.0, np.float64(16.0), True, np.True_, "16"):
        with pytest.raises(ValueError, match=name):
            BASE.replace(phase_scheme="random", **{name: value})
    values = [np.int64(16)] + ([2**70] if name.endswith("seed") else [])
    for value in values:
        current = BASE.replace(phase_scheme="random", **{name: value})
        assert scen.build_link_model(current).moments.shape == (current.random_phase_draws, 4)


@pytest.mark.parametrize(
    "name, value",
    [
        ("wavelength_m", "0.01"),
        ("allocation", 0.3),
        ("tau_offset", 1j),
        ("power_dbm", True),
        ("xpd_coeff", True),
        ("boresight_deg", 5),
        ("snr_db", "3"),
        ("power_dbm", None),
    ],
)
def test_a_value_of_another_kind_is_refused_by_name(name, value):
    # a field's annotation is its kind: a float field takes an int or a
    # float, a text field a str, no field a bool and only snr_db None; a
    # value of another kind is refused by name, made or replaced
    with pytest.raises(ValueError, match=name):
        scen.Scenario(**{name: value})
    with pytest.raises(ValueError, match=name):
        BASE.replace(**{name: value})


def test_an_int_on_a_float_field_and_none_on_snr_db_are_taken():
    # as given; the int, and a float subclass such as np.float64, which is
    # kept with the float's bits, build the link of the equal float (numpy
    # integer counts: test_integer_fields_take_integers_only)
    assert BASE.replace(snr_db=None).snr_db is None
    assert BASE.replace(power_dbm=np.float64(0.1)).power_dbm.hex() == (0.1).hex()
    as_float = scen.build_link_model(BASE.replace(power_dbm=43.0))
    for power in (43, np.float64(43.0)):
        link = scen.build_link_model(BASE.replace(power_dbm=power))
        assert link.snr == as_float.snr
        np.testing.assert_array_equal(link.moments, as_float.moments)


def test_replace_names_a_bad_field_and_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="xpd_coeff"):
        BASE.replace(xpd_coeff=1.5)
    with pytest.raises(TypeError, match="no_such_field"):
        BASE.replace(no_such_field=1.0)


#: A scenario with every field away from its default, snr_db set.
NON_DEFAULT = scen.Scenario(
    wavelength_m=0.012,
    elements=25,
    pitch_wavelengths=0.4,
    noise_dbm=-90.0,
    power_dbm=30.0,
    snr_db=20.5,
    beta0_db=-50.0,
    pathloss_exponent=3.5,
    xpd_coeff=0.35,
    feed_r_m=0.08,
    feed_zenith_deg=80.0,
    feed_azimuth_deg=170.0,
    feed_gain_db=12.0,
    boresight_deg="origin",
    ue_r_m=40.0,
    ue_zenith_deg=50.0,
    ue_azimuth_deg=10.0,
    normal_incidence_phase_deg=60.0,
    tau_offset=0.1,
    incidence_convention="transverse-plane",
    phase_scheme="random",
    phase_seed=3,
    allocation="0.25",
    trials=500,
    master_seed=11,
    random_phase_draws=7,
)


@pytest.mark.parametrize("scenario", [scen.Scenario(), NON_DEFAULT], ids=["default", "changed"])
def test_every_field_round_trips_its_text_form(scenario):
    # the scenario a CSV header or a capacity report echoes parses back to
    # itself, each value of its annotation's type (None or a float for
    # snr_db, whose annotation is float | None)
    pairs = dict(line.removeprefix("# ").split("=", 1) for line in sweep.scenario_echo(scenario))
    assert pairs.keys() == vars(scenario).keys()
    parsed = scen.parse_overrides(scen.Scenario(), pairs)
    assert parsed == scenario
    hints = typing.get_type_hints(scen.Scenario)
    for name, value in vars(parsed).items():
        assert type(value) in (typing.get_args(hints[name]) or (hints[name],)), name


def count_surface_builds(monkeypatch) -> list:
    """The scenarios whose surface ``build_link_model`` builds from now on,
    rather than taking it from the memo."""
    builds = []
    forms = scen._surface_forms

    def counted(scenario):
        builds.append(scenario)
        return forms(scenario)

    monkeypatch.setattr(scen, "_surface_forms", counted)
    return builds


@pytest.mark.parametrize(
    "base",
    [BASE.replace(allocation="optimal"), BASE.replace(phase_scheme="random")],
    ids=["aligned", "random"],
)
@pytest.mark.parametrize("name", scen._POINT_FIELDS)
def test_point_field_reuses_the_surface_bit_for_bit(monkeypatch, base, name):
    # a point that differs from the last one only in a point field takes
    # the surface from the memo, and its link model has the bits of a
    # cold build
    builds = count_surface_builds(monkeypatch)
    scen.build_link_model(base)
    point = base.replace(**{name: getattr(NON_DEFAULT, name)})
    warm = scen.build_link_model(point)
    assert len(builds) == 1
    scen._surface_memo.clear()
    cold = scen.build_link_model(point)
    assert len(builds) == 2
    for value in ("snr", "lambda_v"):
        assert getattr(warm, value) == getattr(cold, value), value
    for value in ("forms", "moments"):
        assert getattr(warm, value).shape == getattr(cold, value).shape, value
        np.testing.assert_array_equal(getattr(warm, value), getattr(cold, value))


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(scen.Scenario) if f.name not in scen._POINT_FIELDS]
)
def test_any_other_field_misses_the_memo(monkeypatch, name):
    # every field but the point fields keys the surface, including one
    # added later, which NON_DEFAULT must then set away from its default
    builds = count_surface_builds(monkeypatch)
    random = name in ("phase_seed", "random_phase_draws")
    base = BASE.replace(phase_scheme="random") if random else BASE
    scen.build_link_model(base)
    scen.build_link_model(base.replace(**{name: getattr(NON_DEFAULT, name)}))
    assert len(builds) == 2


def test_surface_passes_centred_positions_and_pitch_squared_area(monkeypatch):
    # the surface build hands the feed the element area pitch^2, and the
    # carrier phase the wavelength, for the random scheme only: the
    # aligning phases never read it; its rays start at the grid's two
    # axes, centred on the origin in the surface plane
    calls = {}
    grid, propagation, phase = (
        geometry.build_ris_grid, feed.build_propagation_matrix, feed.carrier_phase
    )

    def recorded_grid(*args):
        calls["axes"] = grid(*args)
        return calls["axes"]

    def recorded_propagation(rays, distances, area, *rest):
        calls["area"] = area
        return propagation(rays, distances, area, *rest)

    def recorded_phase(distances, wavelength):
        calls["wavelength"] = wavelength
        return phase(distances, wavelength)

    monkeypatch.setattr(geometry, "build_ris_grid", recorded_grid)
    monkeypatch.setattr(feed, "build_propagation_matrix", recorded_propagation)
    monkeypatch.setattr(feed, "carrier_phase", recorded_phase)
    current = scen.Scenario(elements=36, pitch_wavelengths=0.4)
    scen.build_link_model(current)
    pitch = 0.4 * current.wavelength_m
    assert calls["area"] == pitch * pitch
    assert "wavelength" not in calls
    scen.build_link_model(current.replace(phase_scheme="random", random_phase_draws=2))
    assert calls["wavelength"] == current.wavelength_m
    z, y = calls["axes"]
    assert z.shape == (6, 1) and y.shape == (6,)
    for axis in (z, y):
        assert abs(axis.mean()) < 1e-15
        assert np.ptp(axis) == pytest.approx(5 * pitch, rel=1e-12)


#: 3 x 3 surfaces, whose element (row 2, col 1) sits at (0, 0, pitch): a
#: point at radius pitch and zenith 0 is exactly on it.
PITCH_9 = 1.0 / 3.0 * 0.0115
FEED_ON = {"feed_r_m": PITCH_9, "feed_zenith_deg": 0.0}
UE_ON = {"ue_r_m": PITCH_9, "ue_zenith_deg": 0.0}
#: The feed in the surface plane (zenith 0, off every element), behind it,
#: and in front of it by 1e-33 m (zenith 180, azimuth 270), at grazing
#: incidence in floats; a feed radiating away from the surface, and UE
#: pathloss that underflows to 0, which no value in range reaches: its
#: key is no field, and the test zeroes the pathloss weights for it.
IN_PLANE = {"feed_zenith_deg": 0.0}
BEHIND = {"feed_azimuth_deg": 0.0}
GRAZING = {"feed_zenith_deg": 180.0, "feed_azimuth_deg": 270.0}
FACING_AWAY = {"boresight_deg": "180,90,90"}
UNDERFLOW = {"zero_pathloss": True}
COINCIDES = "{} coincides with an element"
APERTURE = (
    "element 0 has non-positive projected aperture (feed is in or behind the surface plane)"
)
GRAZES = "the feed meets the surface at grazing incidence"
DEAD_V = (
    "no power reaches the V polarization (O_V = 0.0): "
    "the feed faces away from the surface or the pathloss underflows"
)


@pytest.mark.parametrize(
    "changes,message",
    [
        (FEED_ON, COINCIDES.format("feed")),
        ({**FEED_ON, **UE_ON}, COINCIDES.format("feed")),
        (IN_PLANE, APERTURE),
        (BEHIND, APERTURE),
        ({**BEHIND, **UE_ON, **FACING_AWAY}, APERTURE),
        (GRAZING, GRAZES),
        ({**GRAZING, **UE_ON, **FACING_AWAY}, GRAZES),
        (UE_ON, COINCIDES.format("UE")),
        ({**UE_ON, **FACING_AWAY, **UNDERFLOW}, COINCIDES.format("UE")),
        (FACING_AWAY, DEAD_V),
        (UNDERFLOW, DEAD_V),
        ({**FACING_AWAY, "incidence_convention": "transverse-plane"}, DEAD_V),
    ],
    ids=[
        "feed-on-element",
        "feed-and-ue-on-elements",
        "feed-in-plane",
        "feed-behind",
        "behind-before-ue-and-dead",
        "grazing",
        "grazing-before-ue-and-dead",
        "ue-on-element",
        "ue-before-dead",
        "facing-away",
        "pathloss-underflow",
        "transverse-facing-away",
    ],
)
@pytest.mark.parametrize("scheme", ["optimal", "random"])
def test_degenerate_placements_fail_first_to_last(monkeypatch, changes, message, scheme):
    # each degeneracy's type and message, and which one a placement with
    # several reports: the feed on an element, then in or behind the
    # plane, grazing incidence, the UE on an element, a dead polarization
    changes = dict(changes)
    if changes.pop("zero_pathloss", False):
        monkeypatch.setattr(channel, "pathloss_weights", lambda distances, *rest: 0.0 * distances)
    current = scen.Scenario(elements=9, phase_scheme=scheme, random_phase_draws=2, **changes)
    with pytest.raises(DegenerateGeometryError) as caught:
        scen.build_link_model(current)
    assert type(caught.value) is DegenerateGeometryError
    assert str(caught.value) == message


def unit_directions():
    """A boresight toward the surface as its three direction angles in
    degrees, whose cosines are a unit vector with a positive x."""
    vectors = st.tuples(st.floats(0.3, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    return vectors.map(
        lambda v: ",".join(repr(math.degrees(math.acos(c / math.hypot(*v)))) for c in v)
    )


#: Scenarios whose feed sits in front of the surface, off grazing, and
#: whose UE is anywhere at 0.5 m or more.
PLACEMENTS = st.fixed_dictionaries(
    {
        "elements": st.sampled_from([1, 4, 9, 16, 25, 36]),
        "pitch_wavelengths": st.floats(0.2, 1.0),
        "feed_r_m": st.floats(0.05, 0.3),
        "feed_zenith_deg": st.floats(30.0, 150.0),
        "feed_azimuth_deg": st.floats(120.0, 240.0),
        "boresight_deg": st.just("origin") | unit_directions(),
        "ue_r_m": st.floats(0.5, 50.0),
        "ue_zenith_deg": st.floats(0.0, 180.0),
        "ue_azimuth_deg": st.floats(-180.0, 180.0),
        "normal_incidence_phase_deg": st.floats(-170.0, 170.0),
        "tau_offset": st.floats(-1.0, 1.0),
        "incidence_convention": st.sampled_from(scen.INCIDENCE_PLANES),
        "phase_seed": st.integers(0, 1000),
        "random_phase_draws": st.integers(1, 3),
    }
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(PLACEMENTS)
def test_separable_surface_matches_the_position_oracle(changes):
    # the surface built from the grid's two axes is the one built element
    # by element from (N, 3) positions and rays, read under each incidence
    # convention's own tilts: its vectors, O_V and O_H, and the forms of
    # the random scheme's draws, each to 1e-13 of its scale
    current = scen.Scenario(phase_scheme="random", **changes)
    expected = oracles.position_surface(current)
    parts = oracles.link_parts(current)
    surface = parts.config.surface(parts)
    scale = np.abs(expected).max(axis=1)
    # a boresight that turns the whole pattern from the surface is a dead link
    assume(np.all(scale > 0.0))
    difference = np.abs(surface - oracles.on_grid(expected)).max(axis=(1, 2))
    assert np.all(difference <= 1e-13 * scale)
    o = scen._surface_forms(current.replace(phase_scheme="optimal"))
    q = scen._surface_forms(current)
    spectrum = parts.spectrum
    expected = oracles.on_grid(expected)
    np.testing.assert_allclose(o, capacity.compute_O(expected, spectrum), rtol=1e-13)
    draws = [
        np.random.default_rng(current.phase_seed + d).uniform(0.0, 2 * np.pi, expected.shape)
        for d in range(current.random_phase_draws)
    ]
    q_expected = oracles.fft2_draw_forms(expected, draws, spectrum)
    np.testing.assert_allclose(q, q_expected, rtol=1e-13)


#: The float fields but ``snr_db``, which also takes None, and the
#: normal-incidence phase, whose 180 (mod 360) a scenario refuses.
BOX_FLOATS = [
    name
    for name, kinds in scen._KINDS.items()
    if kinds == (float,) and name != "normal_incidence_phase_deg"
]
#: The other fields of an in-range scenario; counts stay small, as no test
#: builds at a ceiling.
BOX_REST = {
    "elements": st.sampled_from([1, 4, 9, 16, 25, 36, 49, 64]),
    "snr_db": st.none() | st.sampled_from(ends("snr_db")) | st.floats(*ends("snr_db")),
    "normal_incidence_phase_deg": st.sampled_from(ends("normal_incidence_phase_deg"))
    | st.floats(-170.0, 170.0),
    "boresight_deg": st.just("origin") | unit_directions(),
    "incidence_convention": st.sampled_from(scen.INCIDENCE_PLANES),
    "phase_scheme": st.sampled_from(scen.PHASE_SCHEMES),
    "allocation": st.sampled_from(["equal", "optimal", "0.3"]),
    "trials": st.integers(1, 64),
    "random_phase_draws": st.integers(1, 3),
    "phase_seed": st.integers(0, 2**70),
    "master_seed": st.integers(0, 2**70),
}
#: Scenarios inside every range, each float at either edge half the time,
#: and the box's corners, every float at an edge.
BOX = st.one_of(
    st.fixed_dictionaries(
        {**BOX_REST, **{n: st.sampled_from(ends(n)) | st.floats(*ends(n)) for n in BOX_FLOATS}}
    ),
    st.fixed_dictionaries({**BOX_REST, **{n: st.sampled_from(ends(n)) for n in BOX_FLOATS}}),
)


# a radius at its least, 1 um, is less than a pitch from some element, so
# most draws that take it are filtered out
@settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(BOX)
def test_in_range_links_stay_in_the_float_range(changes):
    # with the feed and the UE a pitch or more from every element, a
    # scenario inside every range evaluates every output to finite cells
    # or fails as a named degeneracy, never by leaving the float range,
    # which only a point nearer an element than that reaches
    if changes["phase_scheme"] == "random" and changes["allocation"] == "optimal":
        changes["allocation"] = "equal"
    scenario = scen.Scenario(**changes)
    side = math.isqrt(scenario.elements)
    pitch = scenario.pitch_wavelengths * scenario.wavelength_m
    z, y = geometry.build_ris_grid(side, side, pitch)
    for placement in (
        (scenario.feed_r_m, scenario.feed_zenith_deg, scenario.feed_azimuth_deg),
        (scenario.ue_r_m, scenario.ue_zenith_deg, scenario.ue_azimuth_deg),
    ):
        px, py, pz = geometry.spherical_to_cartesian(*placement)
        assume(np.sqrt(px * px + (py - y) ** 2 + (pz - z) ** 2).min() >= pitch)
    random = scenario.phase_scheme == "random"
    outputs = [name for name in sweep.OUTPUTS if name != "threshold" or not random]
    try:
        cells = sweep.evaluate(scenario, outputs)
    except (DegenerateGeometryError, ModelInconsistencyError) as err:
        assert "float range" not in str(err), err
        return
    assert all(math.isfinite(cell) for cell in cells.values() if cell is not None), cells


def test_failed_surface_is_not_kept(monkeypatch):
    # a degenerate surface, or one whose forms fail their check, raises on
    # every build; the last good one stays in the memo, and its next point
    # builds nothing
    builds = count_surface_builds(monkeypatch)
    scen.build_link_model(BASE)
    (good,) = scen._surface_memo.items()
    behind = BASE.replace(feed_zenith_deg=180.0)
    overflowing = BASE.replace(feed_gain_db=11.0)
    compute_O = capacity.compute_O

    def poisoned(surface, spectrum):
        # an O that overflows, under the build's errstate, for the
        # overflowing surface only
        o = compute_O(surface, spectrum)
        return o * 1e308 * 1e308 if builds[-1] is overflowing else o

    monkeypatch.setattr(capacity, "compute_O", poisoned)
    failures = ((behind, DegenerateGeometryError), (overflowing, ModelInconsistencyError))
    for failing, error in failures:
        for _ in range(2):
            with pytest.raises(error):
                scen.build_link_model(failing)
            (kept,) = scen._surface_memo.items()
            assert kept[0] == good[0] and kept[1] is good[1]
    assert len(builds) == 5
    scen.build_link_model(BASE.replace(xpd_coeff=0.5))
    assert len(builds) == 5


def test_records_that_hold_arrays_compare_by_identity():
    # a link model holds arrays, whose == is elementwise: two builds of one
    # scenario are two records, each equal to itself alone and hashed by
    # identity, as any object; their Monte Carlo results hold four floats
    # and compare and hash by value
    first, second = (scen.build_link_model(BASE.replace(trials=8)) for _ in range(2))
    assert first == first and first != second
    assert hash(first) == object.__hash__(first) and len({first, second, first}) == 2
    assert first.mc is not second.mc
    assert first.mc == second.mc and len({first.mc, second.mc}) == 1
