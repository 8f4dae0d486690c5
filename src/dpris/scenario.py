"""A link's scenario, one flat parameter set checked when it is made, and
the link model built from it (``build_link_model``).

The surface side (``_surface_forms``) builds, per polarization P, the
weighted surface vector

    s_P = A_P * b * w

on the side x side grid, from the reflection amplitudes A_P
(``ris.element_amplitudes``), the feed coefficients b
(``feed.build_propagation_matrix``) and the UE's pathloss weights w
(``channel.pathloss_weights``), in this order: the grid and the feed's
rays (``geometry``), traced once for |b| and then A (``transverse-plane``
swaps A's V and H rows); the UE side, w and the kernel spectrum; then the
forms (``capacity``): O = (O_V, O_H) of |s| under the aligning phases,
which cancel b's phase, or the (D, 2) forms of the random scheme's D
seeded draws, which read it.  The point side splits the forms into the
moments of G by ``xpd_coeff``, resolves ``allocation`` to lambda_v and
holds the Monte Carlo's ``trials`` and ``master_seed``, so every point
field is read by the build.  Both sides run with numpy's overflow and
invalid value raising: a build that leaves the float range fails by name
for every caller, a sweep row and a direct call alike.

A process keeps the last surface's forms, keyed by every field but the
point fields: a field added to ``Scenario`` joins the key unless it is
named a point field (``_POINT_FIELDS``).  A surface build keeps the last
grid and the last UE side, which a feed move does not change.  A kept
result has the bits of a cold build, and a failed build is not kept.
"""

import dataclasses
import functools
import math
import operator
from contextlib import suppress
from dataclasses import dataclass
from typing import get_args

import numpy as np

from . import capacity, channel, feed, geometry, ris
from .exceptions import DegenerateGeometryError, ModelInconsistencyError

PHASE_SCHEMES = ("optimal", "optimal-with-adjustment", "random")
INCIDENCE_PLANES = ("axis-plane", "transverse-plane")
_CHOICES = {"phase_scheme": PHASE_SCHEMES, "incidence_convention": INCIDENCE_PLANES}
_NOUNS = {str: "text", int: "an integer", float: "a number"}


@dataclass(frozen=True)
class Scenario:
    """The fields of one link point, defaulting to the bundled recipes'
    set-up; config files and ``--set`` use the same names.  ``_m`` fields
    are in metres, ``pitch_wavelengths`` in wavelengths and ``_deg`` fields
    in degrees, placements being (r, zenith, azimuth) in ``geometry``'s
    frame.  ``_db`` and ``_dbm`` fields are in decibels (``db_to_linear``),
    and ``snr_db``, when set, replaces ``power_dbm - noise_dbm``.  The point
    fields (``_POINT_FIELDS``) leave the surface as it is.

    A field's annotation is its kind (``_KINDS``): a ``float`` field takes
    an int or a float, an ``int`` field what ``operator.index`` takes and a
    ``str`` field a str; no field takes a bool, and only a ``| None`` field
    takes None.  ValueError, naming the field, for a value of another kind
    or outside the field's range (``_RANGES``).
    """

    wavelength_m: float = 0.0115
    elements: int = 100
    pitch_wavelengths: float = 1.0 / 3.0
    noise_dbm: float = -96.0
    power_dbm: float = 35.0
    snr_db: float | None = None
    beta0_db: float = -49.7
    pathloss_exponent: float = 4.0
    xpd_coeff: float = 0.2
    feed_r_m: float = 0.05
    feed_zenith_deg: float = 90.0
    feed_azimuth_deg: float = 180.0
    feed_gain_db: float = 10.0
    boresight_deg: str = "0,90,90"  # "eta,beta,gamma" in degrees, or "origin"
    ue_r_m: float = 50.0
    ue_zenith_deg: float = 60.0
    ue_azimuth_deg: float = 0.0
    normal_incidence_phase_deg: float = 90.0
    tau_offset: float = 0.0
    incidence_convention: str = "axis-plane"
    phase_scheme: str = "optimal"
    phase_seed: int = 0
    allocation: str = "equal"  # equal | optimal | a lambda_v literal
    trials: int = 2000
    master_seed: int = 20260810
    random_phase_draws: int = 1000

    def __post_init__(self):
        for name, value in vars(self).items():
            _check_field(name, value)
        _check_joint(self, _KINDS)

    def replace(self, **changes) -> "Scenario":
        """A copy with ``changes``, checked as ``dataclasses.replace``
        checks it, with the same errors in the same order: the changed
        fields in declaration order (``_check_field``), then the joint
        rules a changed field enters (``_check_joint``); the other fields
        passed both when this scenario was made.  Values are kept as given,
        an int on a float field an int."""
        if not changes.keys() <= _KINDS.keys():
            return type(self)(**{**vars(self), **changes})  # __init__ names the unknown field
        for name in sorted(changes, key=_FIELD_ORDER.__getitem__):
            _check_field(name, changes[name])
        copy = object.__new__(type(self))
        vars(copy).update(vars(self), **changes)
        _check_joint(copy, changes)
        return copy


#: Each field's kind, from its annotation: (kind,), or (kind, NoneType) for
#: ``kind | None``.  The module does not postpone annotations, so each is a type.
_KINDS = {f.name: get_args(f.type) or (f.type,) for f in dataclasses.fields(Scenario)}
#: Each field's place in declaration order, the order its checks run in.
_FIELD_ORDER = {name: index for index, name in enumerate(_KINDS)}
#: Each number field's (least, greatest), in its unit: the model's domain,
#: set by physics or a planned grid.  A wrapping angle takes any finite
#: value, and a seed any integer from 0.
_RANGES = {
    "wavelength_m": (1e-4, 10.0),  # 3 THz to 30 MHz, the radio band
    "elements": (1, 10**6),  # a cold build of 10^6 elements peaks near 253 MiB
    "pitch_wavelengths": (0.01, 10.0),  # lambda/100, past a lambda/24 density grid, to 10 lambda
    "noise_dbm": (-200.0, 0.0),  # kT at 290 K over 1 mHz is -204 dBm; 0 dBm, a jammer
    "power_dbm": (-100.0, 100.0),  # 0.1 pW to 10 MW: power_dbm - noise_dbm spans snr_db's range
    "snr_db": (-100.0, 300.0),  # past 215 dB, where the bound's high-SNR gap has settled
    "beta0_db": (-200.0, 0.0),  # a passive channel's gain at 1 m never exceeds 1
    "pathloss_exponent": (1.0, 6.0),  # a guided corridor (below 2) to dense obstruction
    "xpd_coeff": (0.0, 1.0),  # a fraction of power
    "feed_r_m": (1e-6, 100.0),  # the least pitch, 1 um, to a focal length of 100 m
    "feed_zenith_deg": (0.0, 180.0),  # a zenith angle
    "feed_azimuth_deg": (-math.inf, math.inf),  # wraps
    "feed_gain_db": (10.0 * math.log10(2.0), 50.0),  # kappa/2 - 1 >= 0; past a 44.5 dB grid
    "ue_r_m": (1e-6, 1e5),  # the least pitch to 100 km, past a macro cell's edge
    "ue_zenith_deg": (0.0, 180.0),  # a zenith angle
    "ue_azimuth_deg": (-math.inf, math.inf),  # wraps
    "normal_incidence_phase_deg": (-math.inf, math.inf),  # wraps; 180 (mod 360) is refused
    "tau_offset": (-100.0, 100.0),  # a tilt tangent: 100 is 0.6 degrees from grazing
    "phase_seed": (0, math.inf),
    "trials": (1, 10**6),  # 10^6 trials peak near 175 MiB
    "master_seed": (0, math.inf),
    "random_phase_draws": (1, 10**6),  # 48 MB of (D, 2) forms and (D, 4) moments at 10^6
}


def _check_field(name: str, value) -> None:
    """ValueError, naming the field, for a ``value`` of another kind than
    the field ``name`` takes (``_as_kind``), outside its range
    (``_RANGES``) or not one of its choices (``_CHOICES``)."""
    kinds = _KINDS[name]
    if type(value) not in kinds:
        value = _as_kind(name, kinds[0], value)
    if name in _RANGES and value is not None:
        least, greatest = _RANGES[name]
        # nan fails the comparisons; no field takes an infinity
        if not least <= value <= greatest or value in (-math.inf, math.inf):
            raise ValueError(
                f"{name} must be finite and lie in [{least}, {greatest}], got {value!r}"
            )
    elif name in _CHOICES and value not in _CHOICES[name]:
        raise ValueError(f"unknown {name} {value!r} (expected one of {_CHOICES[name]})")


def _check_joint(scenario: Scenario, names) -> None:
    """ValueError for the first rule that ``scenario``, whose fields each
    passed ``_check_field``, breaks among those that a field in ``names``
    enters: ``elements`` a perfect square, ``normal_incidence_phase_deg``
    not 180 (mod 360), ``boresight_deg`` 'origin' or three angles of a unit
    vector, and ``allocation`` (``_fixed_split``) not ``optimal`` with
    ``phase_scheme = random``."""
    if "elements" in names and math.isqrt(scenario.elements) ** 2 != scenario.elements:
        raise ValueError(f"elements must be a perfect square, got {scenario.elements!r}")
    phase = scenario.normal_incidence_phase_deg
    if "normal_incidence_phase_deg" in names and abs(math.cos(math.radians(phase) / 2.0)) < 1e-12:
        raise ValueError(f"normal_incidence_phase_deg must not equal 180 (mod 360), got {phase!r}")
    boresight = scenario.boresight_deg
    if "boresight_deg" in names and boresight.strip().lower() != "origin":
        cosines = _cosines(boresight)
        if len(cosines) != 3 or not abs(math.hypot(*cosines) - 1.0) <= 1e-9:
            raise ValueError(
                "boresight_deg must be 'origin' or three angles whose cosines form a "
                f"unit vector, got {boresight!r}"
            )
    if ("allocation" in names or "phase_scheme" in names) and (
        _fixed_split(scenario.allocation) is None and scenario.phase_scheme == "random"
    ):
        raise ValueError(
            "allocation = optimal maximizes the bound of one configuration's moments; "
            "phase_scheme = random averages over draws and needs an equal or explicit split"
        )


def _as_kind(name: str, kind: type, value):
    """``value``, whose type is not ``kind`` itself, as ``Scenario``'s
    checks read it: the value if it is an instance of ``kind`` and no bool,
    else, for a number kind, what ``operator.index`` takes, made a ``kind``;
    ValueError naming the field for any other value."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    with suppress(TypeError, OverflowError):
        if kind is not str and not isinstance(value, bool):
            return kind(operator.index(value))
    raise ValueError(f"{name} must be {_NOUNS[kind]}, got {value!r}")


def parse_overrides(scenario: Scenario, pairs: dict[str, str]) -> Scenario:
    """Apply string key=value overrides (config file or ``--set``) to a scenario."""
    for key in pairs:
        if key not in _KINDS:
            raise ValueError(f"unknown scenario key {key!r}")
    return scenario.replace(**{key: _parse_value(key, raw) for key, raw in pairs.items()})


def _parse_value(key: str, raw: str):
    """The stripped ``raw`` parsed as the field ``key``'s kind (``_KINDS``):
    itself for text, None for '' or 'none' where the field takes None, else
    an int or a float; a key that is no field (``allocation_lambda_v``)
    parses as a float.  ValueError naming the key for text that does not."""
    raw = raw.strip()
    kinds = _KINDS.get(key, (float,))
    if kinds[0] is str:
        return raw
    if type(None) in kinds and raw.lower() in ("", "none"):
        return None
    try:
        return kinds[0](raw)
    except ValueError:
        raise ValueError(f"{key} must be {_NOUNS[kinds[0]]}, got {raw!r}") from None


def _fixed_split(allocation: str) -> float | None:
    """The V share that ``allocation`` fixes (1/2 for ``equal``), or None for ``optimal``."""
    mode = allocation.strip().lower()
    if mode == "optimal":
        return None
    try:
        lambda_v = 0.5 if mode == "equal" else float(mode)
    except ValueError:
        lambda_v = math.nan
    if not 0.0 <= lambda_v <= 1.0:
        raise ValueError(
            f"allocation must be 'equal', 'optimal' or a lambda_v in [0, 1], got {allocation!r}"
        )
    return lambda_v


def db_to_linear(value_db: float) -> float:
    """Power ratio from decibels.  Every dB value the package converts is
    range-checked first (``_RANGES``), so the ratio is a finite float."""
    return 10.0 ** (float(value_db) / 10.0)


def _snr(scenario: Scenario) -> float:
    """Transmit SNR rho = P / sigma^2, from ``snr_db`` when it is set."""
    if scenario.snr_db is not None:
        return db_to_linear(scenario.snr_db)
    return db_to_linear(scenario.power_dbm - 30.0) / db_to_linear(scenario.noise_dbm - 30.0)


@dataclass(frozen=True, eq=False)
class LinkModel:
    """What every output of a scenario point reads: the transmit SNR, the
    V share ``lambda_v`` of the power, the surface's read-only ``forms``,
    O = (O_V, O_H) of shape (2,) or the random scheme's (D, 2), the
    ``moments`` of G split from them, shape (4,) or (D, 4), and the
    point's Monte Carlo (``mc``) of ``trials`` trials from ``master_seed``."""

    snr: float
    lambda_v: float
    moments: np.ndarray
    forms: np.ndarray
    trials: int
    master_seed: int

    @functools.cached_property
    def mc(self) -> capacity.McCapacityResult:
        """The point's Monte Carlo (``capacity.ergodic_capacity_mc``), run
        on first read and kept; an output that reads none runs none."""
        args = self.moments, self.lambda_v, self.snr, self.trials, self.master_seed
        return capacity.ergodic_capacity_mc(*args)


#: The fields that enter only the point side: the SNR, the moments' split,
#: the power split and the Monte Carlo run.  Each is read by the build.
_POINT_FIELDS = (
    "noise_dbm",
    "power_dbm",
    "snr_db",
    "xpd_coeff",
    "allocation",
    "trials",
    "master_seed",
)
_surface_key = operator.attrgetter(
    *(f.name for f in dataclasses.fields(Scenario) if f.name not in _POINT_FIELDS)
)
#: The last surface built in this process, keyed by ``_surface_key``.
_surface_memo: dict = {}


def build_link_model(scenario: Scenario) -> LinkModel:
    """The link model of one scenario point, built under numpy's
    ``errstate(over="raise", invalid="raise")``.  DegenerateGeometryError
    for a feed or UE on an element, a feed in or behind the surface plane
    or at grazing incidence, or a polarization no power reaches;
    ModelInconsistencyError, with the point's snr, for a build that leaves
    the float range (``link = not built``), random forms out of range or an
    optimal split whose moment product underflows.
    """
    snr = _snr(scenario)
    try:
        with np.errstate(over="raise", invalid="raise"):
            key = _surface_key(scenario)
            forms = _surface_memo.get(key)
            if forms is None:
                forms = _surface_forms(scenario)
                _surface_memo.clear()
                _surface_memo[key] = forms
            moments = capacity.moment_layout(forms, scenario.xpd_coeff)
            lambda_v = _fixed_split(scenario.allocation)
            if lambda_v is None:
                lambda_v = capacity.optimal_power_allocation(moments, snr)
    except FloatingPointError as err:
        details = {"snr": snr, "link": "not built"}
        raise ModelInconsistencyError(f"the link build leaves the float range ({err})", details)
    return LinkModel(snr, lambda_v, moments, forms, scenario.trials, scenario.master_seed)


def _surface_forms(scenario: Scenario) -> np.ndarray:
    """The read-only forms of the scenario's surface, built as the module
    says.  O must be positive, and the random forms finite and
    non-negative, else the building point's error is raised."""
    side = math.isqrt(scenario.elements)
    wavelength = scenario.wavelength_m
    pitch = scenario.pitch_wavelengths * wavelength
    grid = _grid(side, pitch)
    feed_position = geometry.spherical_to_cartesian(
        scenario.feed_r_m, scenario.feed_zenith_deg, scenario.feed_azimuth_deg
    )
    rays, distances = geometry.rays_to(grid, feed_position, "feed")
    origin = scenario.boresight_deg.strip().lower() == "origin"
    boresight = [-c for c in feed_position] if origin else _cosines(scenario.boresight_deg)
    norm = math.hypot(*boresight)
    boresight = tuple(c / norm for c in boresight)
    b = feed.build_propagation_matrix(
        rays, distances, pitch * pitch, boresight, db_to_linear(scenario.feed_gain_db)
    )
    amplitudes = ris.element_amplitudes(
        rays, distances, math.radians(scenario.normal_incidence_phase_deg), scenario.tau_offset
    )
    if scenario.incidence_convention == "transverse-plane":
        amplitudes = amplitudes[::-1]
    # the UE side after the feed's checks: a point with both faults names the feed
    ue = scenario.ue_r_m, scenario.ue_zenith_deg, scenario.ue_azimuth_deg
    weights, spectrum = _ue_side(
        side, pitch, wavelength, *ue, scenario.beta0_db, scenario.pathloss_exponent
    )
    forms = o = capacity.compute_O(amplitudes * b * weights, spectrum)
    # a Python loop: on two values it costs a fraction of numpy's reductions
    for name, value in zip("VH", o.tolist()):
        if not value > 0.0:
            raise DegenerateGeometryError(
                f"no power reaches the {name} polarization (O_{name} = {value!r}): "
                "the feed faces away from the surface or the pathloss underflows"
            )
    if scenario.phase_scheme == "random":
        surface = amplitudes * (b * feed.carrier_phase(distances, wavelength)) * weights
        seeds = range(scenario.phase_seed, scenario.phase_seed + scenario.random_phase_draws)
        forms = capacity.expected_gram_moments(surface, seeds, spectrum)
        if not all(0.0 <= x < math.inf for x in forms.ravel().tolist()):
            moments = capacity.moment_layout(forms, scenario.xpd_coeff)
            raise ModelInconsistencyError(
                "the surface forms must be finite and non-negative",
                {"snr": _snr(scenario), "moments": moments},
            )
    forms.setflags(write=False)
    return forms


@functools.lru_cache(maxsize=1)
def _grid(side: int, pitch: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only axes of the side x side grid at ``pitch``
    (``geometry.build_ris_grid``).  Kept apart from the UE side because
    the feed's rays read it before the UE's checks may run."""
    grid = geometry.build_ris_grid(side, side, pitch)
    for axis in grid:
        axis.setflags(write=False)
    return grid


@functools.lru_cache(maxsize=1)
def _ue_side(
    side: int,
    pitch: float,
    wavelength: float,
    ue_r_m: float,
    ue_zenith_deg: float,
    ue_azimuth_deg: float,
    beta0_db: float,
    pathloss_exponent: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The pathloss weights of the UE at (r, zenith, azimuth) over the
    ``_grid(side, pitch)`` elements, then the grid's kernel spectrum."""
    position = geometry.spherical_to_cartesian(ue_r_m, ue_zenith_deg, ue_azimuth_deg)
    distances = geometry.rays_to(_grid(side, pitch), position, "UE")[1]
    weights = channel.pathloss_weights(distances, db_to_linear(beta0_db), pathloss_exponent)
    return weights, capacity.kernel_spectrum(side, side, pitch, wavelength)


def _cosines(angles_deg: str) -> list[float]:
    """Cosines of comma-separated angles in degrees; none when one of them
    is not a finite number."""
    try:
        return [math.cos(math.radians(float(a))) for a in angles_deg.split(",")]
    except ValueError:
        return []


def read_config_file(path: str) -> dict[str, str]:
    """The key = value pairs of a text file; see ``parse_pairs``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_pairs(handle.read(), path)


def parse_pairs(text: str, source: str) -> dict[str, str]:
    """Flat key = value text; '#' starts a comment, blank lines ignored.
    Errors name ``source`` and the line."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        pairs[key.strip()] = value.split("#", 1)[0].strip()
    return pairs
