"""One flat parameter set describing a complete link, with the default
values used throughout the bundled recipes (26 GHz carrier, lambda/3
element pitch, -96 dBm noise, -49.7 dB unit pathloss, exponent 4, feed at
(0.05 m, 90deg, 180deg) pointing along +x, UE at (50 m, 60deg, 0deg)).

Scenarios are plain data: text config files and CLI overrides map onto the
same field names, dB/dBm fields carry explicit suffixes, and angles cross
this boundary in degrees only.  A scenario is checked when it is made,
and only then: every range the link model assumes fails there, with an
error that names the field.

``build_link_model`` expands a scenario into the one weighted surface
vector per polarization, s_P = A_P * b * w (reflection amplitudes, feed
coefficients, pathloss weights), a read-only (2, N) array, reads every
moment of the link from it, and resolves ``allocation`` to the V share
lambda_v of the transmit power: 1/2 for ``equal``, the maximizer of the
moment bound for ``optimal``, or the literal itself.  It traces the
feed's rays once; its only errors are the model's degeneracies (a feed on
an element, in or behind the surface plane or at grazing incidence, and a
UE on an element).
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
        for name in _POSITIVE:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not (self.elements >= 1 and math.isqrt(int(self.elements)) ** 2 == self.elements):
            raise ValueError(f"elements must be a positive perfect square, got {self.elements!r}")
        for name in ("feed_zenith_deg", "ue_zenith_deg"):
            # in radians, as the placement reads it
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
    side = math.isqrt(int(scenario.elements))
    wavelength = scenario.wavelength_m
    geo = geometry.build_ris_grid(side, side, scenario.pitch_wavelengths * wavelength, wavelength)
    feed_position = _position(
        scenario.feed_r_m, scenario.feed_zenith_deg, scenario.feed_azimuth_deg
    )
    # the feed's rays, traced once for its coefficients and the amplitudes
    rays, distances = geometry.rays_to(geo, feed_position, "feed")
    if scenario.boresight_deg.strip().lower() == "origin":
        boresight = -feed_position / np.linalg.norm(feed_position)
    else:
        cosines = np.array(_cosines(scenario.boresight_deg))
        boresight = cosines / np.linalg.norm(cosines)
    b = feed.build_propagation_matrix(
        geo, rays, distances, boresight, db_to_linear(scenario.feed_gain_db)
    )
    amplitudes = ris.element_amplitudes(
        rays,
        distances,
        np.deg2rad(scenario.normal_incidence_phase_deg),
        scenario.tau_offset,
        _CONVENTIONS[scenario.incidence_convention],
    )
    ue_position = _position(scenario.ue_r_m, scenario.ue_zenith_deg, scenario.ue_azimuth_deg)
    weights = channel.pathloss_weights(
        geometry.rays_to(geo, ue_position, "UE")[1],
        db_to_linear(scenario.beta0_db),
        scenario.pathloss_exponent,
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


def _cosines(angles_deg: str) -> list[float]:
    """Cosines of comma-separated angles in degrees; none when one of them
    is not a finite number."""
    try:
        return [math.cos(math.radians(float(a))) for a in angles_deg.split(",")]
    except ValueError:
        return []


def _position(radius: float, zenith_deg: float, azimuth_deg: float) -> np.ndarray:
    return geometry.spherical_to_cartesian(
        radius, np.deg2rad(zenith_deg), np.deg2rad(azimuth_deg) % (2.0 * np.pi)
    )


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
