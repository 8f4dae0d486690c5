"""One flat parameter set describing a complete link, with the default
values used throughout the bundled recipes (26 GHz carrier, lambda/3
element pitch, -96 dBm noise, -49.7 dB unit pathloss, exponent 4, feed at
(0.05 m, 90deg, 180deg) pointing along +x, UE at (50 m, 60deg, 0deg)).

Scenarios are plain data: text config files and CLI overrides map onto the
same field names, dB/dBm fields carry explicit suffixes, and angles cross
this boundary in degrees only.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import capacity, channel, feed, geometry, ris
from .numerics import db_to_linear, dbm_to_watts, linear_to_db

_CONVENTIONS = {
    "axis-plane": geometry.axis_plane_tilt,
    "transverse-plane": geometry.transverse_plane_tilt,
}
PHASE_SCHEMES = ("optimal", "optimal-with-adjustment", "random")

#: Lattice points per FFT call of a random-phase ensemble.  The moments take
#: the phase draws a chunk at a time and never hold all of them; at 2**13
#: complex points (128 KiB) a chunk's FFT buffers stay on the heap, where
#: larger ones are mapped afresh, and page-faulted, on every call.
_FFT_LATTICE_POINTS = 2**13


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
    copol_phase_v_deg: float = 90.0
    copol_phase_h_deg: float = 45.0
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
    if key in ("elements", "trials", "master_seed", "random_phase_draws", "phase_seed"):
        return int(raw)
    if key in (
        "boresight_deg",
        "incidence_convention",
        "phase_scheme",
        "allocation",
    ):
        return raw
    if key == "snr_db":
        return None if raw.lower() in ("", "none") else float(raw)
    return float(raw)


def grid_shape(scenario: Scenario) -> tuple[int, int]:
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
        copol_phase_v=np.deg2rad(scenario.copol_phase_v_deg),
        copol_phase_h=np.deg2rad(scenario.copol_phase_h_deg),
    )


def build_amplitude_model(scenario: Scenario) -> ris.AmplitudeModel:
    return ris.AmplitudeModel(
        normal_incidence_phase=np.deg2rad(scenario.normal_incidence_phase_deg),
        tau_offset=scenario.tau_offset,
    )


def tau_convention(scenario: Scenario) -> geometry.TauConvention:
    return _CONVENTIONS[scenario.incidence_convention]


def link_budget(scenario: Scenario) -> capacity.LinkBudget:
    if scenario.snr_db is not None:
        return capacity.LinkBudget.from_snr(db_to_linear(scenario.snr_db))
    return capacity.LinkBudget.from_powers(
        dbm_to_watts(scenario.power_dbm), dbm_to_watts(scenario.noise_dbm)
    )


@dataclass(frozen=True)
class LinkModel:
    """What every output of a scenario point reads, built once per point.

    ``moments`` are the exact second moments of G that every capacity and
    bound of the point reads: shape (4,), built from O_V and O_H, for the
    aligning schemes, or (D, 4) for the random scheme's D seeded phase
    draws.  ``o_v``/``o_h`` are the aligned-phase quadratic forms of the
    amplitudes, whatever the phases; the optimal split, the threshold and
    the unit-O_V normalization read them.
    """

    budget: capacity.LinkBudget
    o_v: float
    o_h: float
    moments: np.ndarray


def build_link_model(scenario: Scenario) -> LinkModel:
    if scenario.phase_scheme == "random" and scenario.allocation.strip().lower() == "optimal":
        # rejected before the phase draws are built
        raise ValueError(
            "allocation = optimal is a closed form of the aligned-phase O_V/O_H; "
            "phase_scheme = random needs an equal or explicit split"
        )
    geo = build_geometry(scenario)
    fd = build_feed(scenario)
    pm = feed.build_propagation_matrix(geo, fd)
    a_v, a_h = ris.element_amplitudes(
        geo, fd, build_amplitude_model(scenario), tau_convention(scenario)
    )
    stats = channel.build_channel_statistics(
        geo,
        ue_position(scenario),
        unit_pathloss=db_to_linear(scenario.beta0_db),
        pathloss_exponent=scenario.pathloss_exponent,
        xpd_coeff=scenario.xpd_coeff,
    )
    o = capacity.compute_O(np.stack([a_v, a_h]), pm, stats)
    if scenario.phase_scheme == "random":
        moments = np.concatenate(
            [
                capacity.expected_gram_moments(chunk, pm, stats)
                for chunk in _phase_draw_chunks(scenario, a_v, a_h)
            ]
        )
    else:
        # the aligning phases collapse the moments to O_V and O_H
        moments = capacity.moment_layout(o, stats.xpd_coeff)
    return LinkModel(
        budget=link_budget(scenario), o_v=float(o[0]), o_h=float(o[1]), moments=moments
    )


def _phase_draw_chunks(scenario: Scenario, a_v: np.ndarray, a_h: np.ndarray):
    """The random scheme's phase draws phase_seed, phase_seed + 1, ...
    (random_phase_draws of them), as configurations whose phases stack a
    chunk of draws on the amplitudes a_v, a_h; a chunk holds at most
    _FFT_LATTICE_POINTS lattice points across its two polarizations."""
    draws = scenario.random_phase_draws
    if draws < 1:
        raise ValueError(f"random_phase_draws must be at least 1, got {draws}")
    n = a_v.shape[0]
    size = max(1, _FFT_LATTICE_POINTS // (2 * 4 * n))
    for start in range(0, draws, size):
        phases = np.empty((2, min(size, draws - start), n))
        for i in range(phases.shape[1]):
            phases[:, i] = ris.random_phases(n, scenario.phase_seed + start + i)
        yield ris.RisConfiguration(a_v, a_h, phases[0], phases[1])


def resolve_allocation(scenario: Scenario, model: LinkModel) -> capacity.PowerAllocation:
    """Interpret the scenario's allocation field against a built link."""
    mode = scenario.allocation.strip().lower()
    if mode == "equal":
        return capacity.PowerAllocation.equal()
    if mode == "optimal":
        return capacity.optimal_power_allocation(
            model.o_v, model.o_h, model.budget, scenario.xpd_coeff
        )
    try:
        lambda_v = float(mode)
    except ValueError:
        raise ValueError(
            f"allocation must be 'equal', 'optimal' or a lambda_v value, got {scenario.allocation!r}"
        ) from None
    return capacity.PowerAllocation.split(lambda_v)


def normalize_unit_ov(scenario: Scenario) -> Scenario:
    """Rescale the unit pathloss so the V-polarization quality O_V is 1.

    Scale normalization only: useful for low/high-SNR asymptotics where
    the SNR axis should straddle unit received power.
    """
    probe = build_link_model(scenario.replace(beta0_db=0.0, phase_scheme="optimal"))
    if not probe.o_v > 0.0:
        raise ValueError("cannot normalize a scenario with zero O_V")
    return scenario.replace(beta0_db=linear_to_db(1.0 / probe.o_v))


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
