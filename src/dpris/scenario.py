"""One flat parameter set describing a complete link, with the default
values used throughout the bundled recipes (26 GHz carrier, lambda/3
element pitch, -96 dBm noise, -49.7 dB unit pathloss, exponent 4, feed at
(0.05 m, 90deg, 180deg) pointing along +x, UE at (50 m, 60deg, 0deg)).

Scenarios are plain data: text config files and CLI overrides map onto the
same field names, dB/dBm fields carry explicit suffixes, and angles cross
this boundary in degrees only.  A scenario is checked when it is made: a
bad value fails there, with an error that names the field.

``build_link_model`` expands a scenario into the one weighted surface
vector per polarization, s_P = A_P * b * w (reflection amplitudes, feed
coefficients, pathloss weights), a read-only (2, N) array, reads every
moment of the link from it, and resolves ``allocation`` to the V share
lambda_v of the transmit power: 1/2 for ``equal``, the maximizer of the
moment bound for ``optimal``, or the literal itself.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import capacity, channel, feed, geometry, ris
from .numerics import db_to_linear, dbm_to_watts

_CONVENTIONS = {
    "axis-plane": geometry.axis_plane_tilt,
    "transverse-plane": geometry.transverse_plane_tilt,
}
PHASE_SCHEMES = ("optimal", "optimal-with-adjustment", "random")


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
            ("incidence_convention", tuple(_CONVENTIONS)),
        ):
            if getattr(self, name) not in known:
                raise ValueError(
                    f"unknown {name} {getattr(self, name)!r} (expected one of {known})"
                )
        for name in ("trials", "random_phase_draws"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if not 0.0 <= self.xpd_coeff <= 1.0:
            raise ValueError(f"xpd_coeff must lie in [0, 1], got {self.xpd_coeff!r}")
        try:
            snr = _snr(self)
        except (OverflowError, ZeroDivisionError):
            snr = math.inf
        if not 0.0 < snr < math.inf:
            source = "snr_db" if self.snr_db is not None else "power_dbm - noise_dbm"
            raise ValueError(
                f"{source} gives a transmit SNR of {snr!r}; it must be positive and finite"
            )
        mode = self.allocation.strip().lower()
        if mode not in ("equal", "optimal"):
            try:
                lambda_v = float(mode)
            except ValueError:
                lambda_v = math.nan
            if not 0.0 <= lambda_v <= 1.0:
                raise ValueError(
                    f"allocation must be 'equal', 'optimal' or a lambda_v in [0, 1], "
                    f"got {self.allocation!r}"
                )
        if mode == "optimal" and self.phase_scheme == "random":
            raise ValueError(
                "allocation = optimal maximizes the bound of one configuration's moments; "
                "phase_scheme = random averages over draws and needs an equal or explicit split"
            )

    def replace(self, **changes) -> "Scenario":
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def parse_overrides(scenario: Scenario, pairs: dict[str, str]) -> Scenario:
    """Apply string key=value overrides (config file or CLI) to a scenario."""
    valid = {f.name: f for f in dataclasses.fields(Scenario)}
    changes = {}
    for key, raw in pairs.items():
        if key not in valid:
            raise ValueError(f"unknown scenario key {key!r}")
        changes[key] = _parse_value(key, raw)
    return scenario.replace(**changes)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in ("boresight_deg", "incidence_convention", "phase_scheme", "allocation"):
        return raw
    if key == "snr_db" and raw.lower() in ("", "none"):
        return None
    integral = key in ("elements", "trials", "master_seed", "random_phase_draws", "phase_seed")
    try:
        return int(raw) if integral else float(raw)
    except ValueError:
        kind = "an integer" if integral else "a number"
        raise ValueError(f"{key} must be {kind}, got {raw!r}") from None


def grid_shape(scenario: Scenario) -> tuple[int, int]:
    if scenario.elements < 1:
        raise ValueError(f"elements must be at least 1, got {scenario.elements!r}")
    side = math.isqrt(int(scenario.elements))
    if side * side != scenario.elements:
        raise ValueError(
            f"element count {scenario.elements} is not a perfect square"
        )
    return side, side


def build_geometry(scenario: Scenario) -> geometry.RisGeometry:
    rows, cols = grid_shape(scenario)
    pitch = scenario.pitch_wavelengths * scenario.wavelength_m
    return geometry.build_ris_grid(rows, cols, pitch, scenario.wavelength_m)


def feed_position(scenario: Scenario) -> np.ndarray:
    placement = geometry.SphericalPlacement(
        radius=scenario.feed_r_m,
        zenith=np.deg2rad(scenario.feed_zenith_deg),
        azimuth=np.deg2rad(scenario.feed_azimuth_deg) % (2.0 * np.pi),
    )
    return geometry.spherical_to_cartesian(placement)


def ue_position(scenario: Scenario) -> np.ndarray:
    placement = geometry.SphericalPlacement(
        radius=scenario.ue_r_m,
        zenith=np.deg2rad(scenario.ue_zenith_deg),
        azimuth=np.deg2rad(scenario.ue_azimuth_deg) % (2.0 * np.pi),
    )
    return geometry.spherical_to_cartesian(placement)


def build_feed(scenario: Scenario) -> feed.FeedSpec:
    position = feed_position(scenario)
    if scenario.boresight_deg.strip().lower() == "origin":
        norm = float(np.linalg.norm(position))
        boresight = -position / norm
    else:
        parts = [float(x) for x in scenario.boresight_deg.split(",")]
        if len(parts) != 3:
            raise ValueError(
                "boresight_deg must be 'origin' or three comma-separated angles"
            )
        boresight = feed.boresight_from_angles(*np.deg2rad(parts))
    return feed.FeedSpec(
        position=position,
        boresight=boresight,
        gain=db_to_linear(scenario.feed_gain_db),
    )


def build_amplitude_model(scenario: Scenario) -> ris.AmplitudeModel:
    return ris.AmplitudeModel(
        normal_incidence_phase=np.deg2rad(scenario.normal_incidence_phase_deg),
        tau_offset=scenario.tau_offset,
    )


def tau_convention(scenario: Scenario) -> geometry.TauConvention:
    return _CONVENTIONS[scenario.incidence_convention]


def _snr(scenario: Scenario) -> float:
    """Transmit SNR rho = P / sigma^2, from ``snr_db`` when it is set."""
    if scenario.snr_db is not None:
        return db_to_linear(scenario.snr_db)
    return dbm_to_watts(scenario.power_dbm) / dbm_to_watts(scenario.noise_dbm)


@dataclass(frozen=True)
class LinkModel:
    """What every output of a scenario point reads, built once per point:
    the transmit SNR, the V share ``lambda_v`` of the power (the H share
    is 1 - lambda_v), and the surface's quadratic forms.

    ``moments`` are the exact second moments of G that every capacity and
    bound of the point reads: shape (4,), built from O_V and O_H, for the
    aligning schemes, or (D, 4) for the random scheme's D seeded phase
    draws; ``allocation = optimal`` is the split that maximizes their
    bound.  ``o_v``/``o_h`` are the aligned-phase quadratic forms of the
    surface vectors, whatever the phases; the threshold reads them.
    """

    snr: float
    lambda_v: float
    o_v: float
    o_h: float
    moments: np.ndarray


def build_link_model(scenario: Scenario) -> LinkModel:
    geo = build_geometry(scenario)
    fd = build_feed(scenario)
    b = feed.build_propagation_matrix(geo, fd)
    amplitudes = np.stack(
        ris.element_amplitudes(geo, fd, build_amplitude_model(scenario), tau_convention(scenario))
    )
    weights = channel.pathloss_weights(
        geo,
        ue_position(scenario),
        unit_pathloss=db_to_linear(scenario.beta0_db),
        pathloss_exponent=scenario.pathloss_exponent,
    )
    surface = amplitudes * b * weights
    surface.setflags(write=False)
    spectrum = channel.kernel_spectrum(geo)
    o = capacity.compute_O(surface, spectrum)
    if scenario.phase_scheme == "random":
        draws = (
            ris.random_phases(geo.element_count, scenario.phase_seed + d)
            for d in range(scenario.random_phase_draws)
        )
        moments = capacity.expected_gram_moments(surface, draws, spectrum, scenario.xpd_coeff)
    else:
        # the aligning phases collapse the moments to O_V and O_H
        moments = capacity.moment_layout(o, scenario.xpd_coeff)
    snr = _snr(scenario)
    mode = scenario.allocation.strip().lower()
    if mode == "optimal":
        lambda_v = capacity.optimal_power_allocation(moments, snr)
    else:
        lambda_v = 0.5 if mode == "equal" else float(mode)
    return LinkModel(snr, lambda_v, float(o[0]), float(o[1]), moments)


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
