"""One flat parameter set describing a complete link, with the default
values used throughout the bundled recipes (26 GHz carrier, lambda/3
element pitch, -96 dBm noise, -49.7 dB unit pathloss, exponent 4, feed at
(0.05 m, 90deg, 180deg) pointing along +x, UE at (50 m, 60deg, 0deg);
the frame is ``geometry``'s).

Scenarios are plain data: text config files and CLI overrides map onto the
same field names, dB/dBm fields carry explicit suffixes (``db_to_linear``
converts both), and angles cross this boundary in degrees only.  A
scenario is checked when it is made, and only then: every range the link
model assumes fails there, with an error that names the field.

``build_link_model`` works in two parts.  The surface side builds the
surface vector in the order ``capacity`` gives and reduces it to its
forms (``_surface_forms``): O = (O_V, O_H), or for the random scheme the
(D, 2) forms of its D phase draws.  The point side splits those forms
into the moments of G by ``xpd_coeff`` and resolves ``allocation`` to the
V share lambda_v of the transmit power: 1/2 for ``equal``, the maximizer
of the moment bound for ``optimal``, or the literal itself.

The point fields (``noise_dbm``, ``power_dbm``, ``snr_db``, ``xpd_coeff``,
``allocation``, ``trials``, ``master_seed``) enter the point side only.
A process keeps the surface side of the last link it built, keyed by
every other field, so a sweep over a point field builds its surface once
and every later point takes it from the memo, with the bits of a cold
build; a field added to ``Scenario`` joins the key unless it is named a
point field.  A surface build in turn keeps the last grid, keyed by its
side and pitch, and the last UE side, the UE's pathloss weights with the
grid's kernel spectrum, keyed by the grid, the wavelength, the UE's
placement, ``beta0_db`` and ``pathloss_exponent``.  A feed move changes
none of them, so a ``feed-angles`` or ``feed-gain`` sweep traces only the
feed's side per point, with the bits of a cold build.  The grid has a
cache of its own because the feed's rays read it first: the feed's checks
still come before the UE's, so a point with both faults names the feed.

The errors are the model's degeneracies (a feed on an element, in or
behind the surface plane or at grazing incidence, a UE on an element, a
polarization no power reaches), an optimal split whose moment product
underflows, and the gate on the model's numbers (ModelInconsistencyError
with the point's snr).  The surface build checks its forms once, where it
builds them: O and the forms must be finite and non-negative, else the
error carries the building point's snr and moments.  O is checked finite
before it is checked positive, so an O that overflowed (nan or inf) is out
of range, as ``sweep.evaluate`` reports it, and not a polarization no
power reaches.  A failed build raises before the memo stores it, so the
memo holds only checked surfaces, and a point that takes its surface from
the memo checks nothing again.  ``sweep.evaluate`` then checks that no
overflow or invalid value arises anywhere in the point, over this build
and every cell.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import capacity, channel, feed, geometry, ris
from .exceptions import DegenerateGeometryError, ModelInconsistencyError

PHASE_SCHEMES = ("optimal", "optimal-with-adjustment", "random")
INCIDENCE_PLANES = ("axis-plane", "transverse-plane")
_POSITIVE = ("wavelength_m", "pitch_wavelengths", "feed_r_m", "ue_r_m", "pathloss_exponent")


@dataclass(frozen=True)
class Scenario:
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
        for name, known in (
            ("phase_scheme", PHASE_SCHEMES),
            ("incidence_convention", INCIDENCE_PLANES),
        ):
            if getattr(self, name) not in known:
                raise ValueError(
                    f"unknown {name} {getattr(self, name)!r} (expected one of {known})"
                )
        for name in ("trials", "random_phase_draws"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        for name in ("master_seed", "phase_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in _POSITIVE:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        spacing = self.pitch_wavelengths * self.wavelength_m
        if not 0.0 < spacing * spacing < math.inf:
            raise ValueError(
                f"pitch_wavelengths * wavelength_m gives an element area of "
                f"{spacing * spacing!r} m^2, not positive and finite"
            )
        if not (self.elements >= 1 and math.isqrt(int(self.elements)) ** 2 == self.elements):
            raise ValueError(f"elements must be a positive perfect square, got {self.elements!r}")
        # 4 pi D^2, the feed's spreading, must be finite for D up to the radius plus the side
        extent = spacing * math.isqrt(int(self.elements))
        for name in ("feed_r_m", "ue_r_m"):
            reach = getattr(self, name) + extent
            if not 4.0 * math.pi * reach * reach < math.inf:
                raise ValueError(f"{name} gives rays of up to {reach!r} m, whose square overflows")
        # and so must the carrier phase 2 pi D / lambda of the feed's rays
        reach = self.feed_r_m + extent
        if not 2.0 * math.pi * reach / self.wavelength_m < math.inf:
            raise ValueError(
                f"wavelength_m {self.wavelength_m!r} makes the carrier phase "
                f"2 pi D / wavelength_m overflow for feed rays of up to {reach!r} m"
            )
        for name in ("feed_zenith_deg", "ue_zenith_deg"):
            # in radians, as the placement converts it
            if not 0.0 <= math.radians(getattr(self, name)) <= math.pi:
                raise ValueError(f"{name} must lie in [0, 180], got {getattr(self, name)!r}")
        if not 2.0 <= db_to_linear(self.feed_gain_db) < math.inf:
            raise ValueError(
                f"feed_gain_db must give a finite linear gain of at least 2, "
                f"got {self.feed_gain_db!r}"
            )
        if db_to_linear(self.beta0_db) == math.inf:
            raise ValueError(f"beta0_db must give a finite unit pathloss, got {self.beta0_db!r}")
        if abs(math.cos(math.radians(self.normal_incidence_phase_deg) / 2.0)) < 1e-12:
            raise ValueError(
                "normal_incidence_phase_deg must not equal 180 (mod 360), "
                f"got {self.normal_incidence_phase_deg!r}"
            )
        # the amplitude map's (t + tau)^2 (t - tau)^2 must be finite: |t| < 1e12, tilts < 1e16
        if not abs(self.tau_offset) <= 1e75:
            raise ValueError(f"tau_offset must lie in [-1e75, 1e75], got {self.tau_offset!r}")
        if self.boresight_deg.strip().lower() != "origin":
            cosines = _cosines(self.boresight_deg)
            if len(cosines) != 3 or not abs(math.hypot(*cosines) - 1.0) <= 1e-9:
                raise ValueError(
                    "boresight_deg must be 'origin' or three angles whose cosines form a "
                    f"unit vector, got {self.boresight_deg!r}"
                )
        if not 0.0 <= self.xpd_coeff <= 1.0:
            raise ValueError(f"xpd_coeff must lie in [0, 1], got {self.xpd_coeff!r}")
        try:
            snr = _snr(self)
        except ZeroDivisionError:
            snr = math.inf
        if not 0.0 < snr < math.inf:
            source = "snr_db" if self.snr_db is not None else "power_dbm - noise_dbm"
            raise ValueError(
                f"{source} gives a transmit SNR of {snr!r}; it must be positive and finite"
            )
        if _fixed_split(self.allocation) is None and self.phase_scheme == "random":
            raise ValueError(
                "allocation = optimal maximizes the bound of one configuration's moments; "
                "phase_scheme = random averages over draws and needs an equal or explicit split"
            )

    def replace(self, **changes) -> "Scenario":
        """A copy with ``changes``, checked as a new scenario is: the same
        ``__init__`` runs as under ``dataclasses.replace``, without its
        per-field walk."""
        return type(self)(**{**vars(self), **changes})


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Scenario)}


def parse_overrides(scenario: Scenario, pairs: dict[str, str]) -> Scenario:
    """Apply string key=value overrides (config file or ``--set``) to a scenario."""
    changes = {}
    for key, raw in pairs.items():
        if key not in _DEFAULTS:
            raise ValueError(f"unknown scenario key {key!r}")
        changes[key] = _parse_value(key, raw)
    return scenario.replace(**changes)


def _parse_value(key: str, raw: str):
    """``raw`` as its field's default types it: the text for a ``str``, an
    optional float for ``None`` ('' or 'none'), an ``int`` for an ``int``,
    else a float, also for a key that is no field (``allocation_lambda_v``)."""
    raw = raw.strip()
    default = _DEFAULTS.get(key, 0.0)
    if isinstance(default, str):
        return raw
    if default is None and raw.lower() in ("", "none"):
        return None
    kind = int if isinstance(default, int) else float
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {noun}, got {raw!r}") from None


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
    """Power ratio from decibels; inf where the ratio overflows a float,
    so a range check on the result rejects it."""
    try:
        return 10.0 ** (float(value_db) / 10.0)
    except OverflowError:
        return math.inf


def _snr(scenario: Scenario) -> float:
    """Transmit SNR rho = P / sigma^2, from ``snr_db`` when it is set."""
    if scenario.snr_db is not None:
        return db_to_linear(scenario.snr_db)
    return db_to_linear(scenario.power_dbm - 30.0) / db_to_linear(scenario.noise_dbm - 30.0)


@dataclass(frozen=True)
class LinkModel:
    """What every output of a scenario point reads, built once per point:
    the transmit SNR, the V share ``lambda_v`` of the power (the H share
    is 1 - lambda_v), and the surface's quadratic forms.

    ``forms`` are the forms q = (q_V, q_H) the moments are split from:
    O = (O_V, O_H), shape (2,), under the aligning schemes, or the (D, 2)
    forms of the random scheme's D seeded phase draws; the threshold reads
    O.  ``moments`` are the exact second moments of G that every capacity
    and bound of the point reads, split from ``forms`` by ``xpd_coeff``:
    shape (4,) or (D, 4); ``allocation = optimal`` is the split that
    maximizes their bound.
    """

    snr: float
    lambda_v: float
    moments: np.ndarray
    forms: np.ndarray


#: The fields a sweep point may change on a fixed surface: they enter only
#: the transmit SNR, the split of the moments by ``xpd_coeff``, the power
#: split and the Monte Carlo run.  Every other field keys the surface memo.
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
    """The link model of one scenario point: the surface's checked forms,
    from ``_surface_memo`` when the last point built had the same surface,
    then the point's moments and SNR, and the power split."""
    key = _surface_key(scenario)
    forms = _surface_memo.get(key)
    if forms is None:
        forms = _surface_forms(scenario)
        _surface_memo.clear()
        _surface_memo[key] = forms
    moments = capacity.moment_layout(forms, scenario.xpd_coeff)
    snr = _snr(scenario)
    lambda_v = _fixed_split(scenario.allocation)
    if lambda_v is None:
        lambda_v = capacity.optimal_power_allocation(moments, snr)
    return LinkModel(snr, lambda_v, moments, forms)


def _surface_forms(scenario: Scenario) -> np.ndarray:
    """The read-only forms the moments are split from: O = (O_V, O_H),
    shape (2,), under the aligning phases, or the (D, 2) forms of the
    random scheme's D draws.  O must be finite, then positive, and the
    forms finite and non-negative, else the building point's error is
    raised."""
    side = math.isqrt(int(scenario.elements))
    wavelength = scenario.wavelength_m
    pitch = scenario.pitch_wavelengths * wavelength
    grid = _grid(side, pitch)
    feed_position = geometry.spherical_to_cartesian(
        scenario.feed_r_m, scenario.feed_zenith_deg, scenario.feed_azimuth_deg
    )
    # the feed's rays, traced once for its coefficients and the amplitudes
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
    # Python loops: on a few values they cost a fraction of numpy's reductions;
    # an O that overflowed is out of range, not a surface no power reaches
    values = o.tolist()
    if not all(map(math.isfinite, values)):
        raise _forms_error(scenario, o)
    for name, value in zip("VH", values):
        if not value > 0.0:
            raise DegenerateGeometryError(
                f"no power reaches the {name} polarization (O_{name} = {value!r}): "
                "the feed faces away from the surface or the pathloss underflows"
            )
    if scenario.phase_scheme == "random":
        # the random draws read the feed's carrier phase, which aligning cancels
        surface = amplitudes * (b * feed.carrier_phase(distances, wavelength)) * weights
        draws = (
            ris.random_phases(side, side, scenario.phase_seed + d)
            for d in range(scenario.random_phase_draws)
        )
        forms = capacity.expected_gram_moments(surface, draws, spectrum)
        if not all(0.0 <= x < math.inf for x in forms.ravel().tolist()):
            raise _forms_error(scenario, forms)
    forms.setflags(write=False)
    return forms


def _forms_error(scenario: Scenario, forms: np.ndarray) -> ModelInconsistencyError:
    """The error of surface forms out of range, with the building point's
    snr and the moments split from ``forms``."""
    details = {"snr": _snr(scenario), "moments": capacity.moment_layout(forms, scenario.xpd_coeff)}
    return ModelInconsistencyError("the surface forms must be finite and non-negative", details)


@functools.lru_cache(maxsize=1)
def _grid(side: int, pitch: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only axes of the side x side grid at ``pitch``
    (``geometry.build_ris_grid``); the last grid is kept for the next
    call on it."""
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
    """The UE side of the link and the surface's kernel: the pathloss
    weights of the UE at (r, zenith, azimuth) over the ``_grid(side,
    pitch)`` elements (``channel.pathloss_weights``), then the kernel
    spectrum of the grid (``capacity.kernel_spectrum``); the last pair is
    kept for the next call with the same arguments, which a feed move does
    not change."""
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
