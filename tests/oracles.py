"""Reference implementations the tests compare the package against.

The dense N x N sinc correlation matrix is built from element positions;
the package holds only the spectrum of its lag kernel.  The full-vector
channel sampler draws every element's fading through a factor of that
matrix and forms G from the feed coefficients and the reflection
coefficients apart; the package's Monte Carlo draws only the 2x2 law of
the equivalent channel, whose moments it reads from one weighted surface
vector per polarization, amplitudes times feed coefficients times pathloss
weights.  The scalar determinant forms
expand det(I2 + rho G Lambda G^H) through the Hermitian product, an
independent route to the package's |det G|^2 form.  The per-element
scalar twins (incidence decomposition, feed pattern, spherical-wave
coefficient, reflection amplitude) evaluate one element at a time with
``math``, against the package's vectorized forms, which read the feed's
rays traced once.  ``RisConfiguration``
is one phase configuration with its complex reflection coefficients,
which the package never forms per configuration, and
``random_row_per_draw`` evaluates a random-phase row one configuration per
draw, where the package streams the draws through one kernel call.  The
phase-maximized closed forms in O_V and O_H, the paper's bound and its
optimal split, are the references for the package's moment bound and its
maximizer at aligned moments, and the aligning phases, which the package
never builds, are the references for its moments built from O_V and O_H.
``link_parts`` rebuilds
the factors a scenario expands into from the package's public builders,
reading the scenario's fields as the package does; the package's link
model keeps only what its outputs read.  The
hemisphere quadrature checks that the feed pattern integrates to 4 pi, and
``multiplexing_gain`` reads the high-SNR slope of a capacity curve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from dpris import capacity, channel, feed, geometry, ris, scenario as scen
from dpris.exceptions import DegenerateGeometryError, ModelInconsistencyError
from dpris.geometry import axis_plane_tilt
from dpris.numerics import db_to_linear, dbm_to_watts

LN2 = np.log(2.0)
#: Eigenvalues below this fraction of the largest one are clipped to zero
#: before forming the sampling factor (the sinc kernel is near-singular on
#: dense grids).
CLIP_FRACTION = 1e-12
#: Eigenvalues below minus this fraction of the largest one mean the input
#: was not a correlation matrix at all.
PSD_TOLERANCE = 1e-8


@dataclass(frozen=True)
class SeededStreamFactory:
    """Counter-keyed child streams of one master seed: stream ``i`` never
    depends on how many streams exist."""

    master_seed: int

    def stream(self, index: int) -> np.random.Generator:
        if index < 0:
            raise ValueError("stream index must be non-negative")
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(index,))
        return np.random.Generator(np.random.PCG64(seq))


def correlation_matrix(geometry) -> np.ndarray:
    """Spatial correlation sinc(2 ||q_n1 - q_n2|| / lambda) for all element
    pairs (normalized sinc: unit diagonal, first zero at lambda/2)."""
    pos = geometry.element_positions
    separation = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    return np.sinc(2.0 * separation / geometry.wavelength)


def symmetric_eigendecomposition(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a real
    symmetric matrix; ValueError if it is not symmetric within 1e-12."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    if m.size and float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12")
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    # stable sort keeps tied eigenvectors in place (identity stays identity)
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], eigenvectors[:, order]


def correlation_sqrt(correlation: np.ndarray) -> np.ndarray:
    """Factor L with L L^T equal to the (spectrally repaired) correlation.

    Eigenvalues below 1e-12 of the largest are clipped to zero.  A
    pre-repair eigenvalue below -1e-8 of the largest raises
    ModelInconsistencyError: the input was not positive semidefinite.
    """
    r = np.asarray(correlation, dtype=float)
    if r.size and float(np.max(np.abs(np.diag(r) - 1.0))) > 1e-9:
        raise ValueError("correlation matrix must have unit diagonal")
    eigenvalues, eigenvectors = symmetric_eigendecomposition(r)
    largest = float(eigenvalues[0]) if eigenvalues.size else 0.0
    if eigenvalues.size and float(eigenvalues[-1]) < -PSD_TOLERANCE * largest:
        raise ModelInconsistencyError(
            "correlation matrix is not positive semidefinite",
            details={"min_eigenvalue": float(eigenvalues[-1]), "max_eigenvalue": largest},
        )
    clipped = np.where(eigenvalues < CLIP_FRACTION * largest, 0.0, eigenvalues)
    return eigenvectors * np.sqrt(clipped)[None, :]


@dataclass(frozen=True)
class ChannelSample:
    """Fading realizations: the four per-element channel vectors, shape
    (N,) for one draw or (trials, N) for a batch."""

    h_vv: np.ndarray
    h_vh: np.ndarray
    h_hv: np.ndarray
    h_hh: np.ndarray


def pathloss(weights: np.ndarray, xpd_coeff: float) -> np.ndarray:
    """Per-element co- and cross-polarized pathloss, shape (2, N), from the
    weights sqrt(beta0 d_n^-alpha): beta0 d_n^-alpha (1 - l) and
    beta0 d_n^-alpha l."""
    base = weights**2
    return np.stack([base * (1.0 - xpd_coeff), base * xpd_coeff])


def sample_channel(
    weights: np.ndarray,
    xpd_coeff: float,
    geometry,
    rng: np.random.Generator,
    trials: int | None = None,
) -> ChannelSample:
    """Draw one fading realization, or ``trials`` of them in one batch.

    Each block is sqrt(pathloss) times a correlated standard circular
    complex Gaussian vector L w, with L L^T the dense correlation of
    ``geometry``, w = (g1 + j g2) / sqrt(2) and the four blocks independent.
    """
    factor = correlation_sqrt(correlation_matrix(geometry))
    n = weights.shape[0]
    shape = (n, 4) if trials is None else (trials, n, 4)
    real = rng.standard_normal(shape)
    imag = rng.standard_normal(shape)
    correlated = factor @ ((real + 1j * imag) / np.sqrt(2.0))
    amp_co, amp_cross = np.sqrt(pathloss(weights, xpd_coeff))
    return ChannelSample(
        h_vv=amp_co * correlated[..., 0],
        h_vh=amp_cross * correlated[..., 1],
        h_hv=amp_cross * correlated[..., 2],
        h_hh=amp_co * correlated[..., 3],
    )


@dataclass(frozen=True)
class RisConfiguration:
    """One phase configuration: per-element, per-polarization reflection
    amplitudes in [0, 1] and phases, each of shape (N,).  The package
    holds the amplitudes inside the (2, N) weighted surface vector and the
    phases as a stream of (2, N) draws; ``moments`` passes them to it in
    that form."""

    amplitudes_v: np.ndarray
    amplitudes_h: np.ndarray
    phases_v: np.ndarray
    phases_h: np.ndarray

    def __post_init__(self):
        n = self.amplitudes_v.shape[0]
        for name in ("amplitudes_h", "phases_v", "phases_h"):
            if getattr(self, name).shape != (n,):
                raise ValueError("configuration vectors must share one length")
        for name in ("amplitudes_v", "amplitudes_h"):
            a = getattr(self, name)
            if a.min(initial=0.0) < 0.0 or a.max(initial=1.0) > 1.0:
                raise ValueError(f"{name} outside [0, 1]")

    @property
    def element_count(self) -> int:
        return self.amplitudes_v.shape[0]

    @property
    def gamma_v(self) -> np.ndarray:
        """Complex V-polarization reflection coefficients."""
        return self.amplitudes_v * (np.cos(self.phases_v) + 1j * np.sin(self.phases_v))

    @property
    def gamma_h(self) -> np.ndarray:
        """Complex H-polarization reflection coefficients."""
        return self.amplitudes_h * (np.cos(self.phases_h) + 1j * np.sin(self.phases_h))

    def surface(self, parts) -> np.ndarray:
        """The (2, N) weighted surface vectors of these amplitudes on the
        link ``parts`` (see ``link_parts``), formed as
        ``scenario.build_link_model`` forms them."""
        return np.stack([self.amplitudes_v, self.amplitudes_h]) * parts.b * parts.weights

    def moments(self, parts) -> np.ndarray:
        """The package's second moments of G under this configuration on
        the link ``parts``, shape (4,)."""
        draw = np.stack([self.phases_v, self.phases_h])
        return capacity.expected_gram_moments(
            self.surface(parts), [draw], parts.spectrum, parts.xpd_coeff
        )[0]


def equivalent_channel(sample: ChannelSample, config, b: np.ndarray) -> np.ndarray:
    """Collapse fading samples to 2x2 equivalent channels under the feed
    coefficients ``b``, shape (..., 2, 2); rows index the UE polarization
    (V, H), columns the feed's."""
    n = config.element_count
    if b.shape != (n,) or sample.h_vv.shape[-1] != n:
        raise ValueError("sample, configuration and feed sizes disagree")
    u_v = config.gamma_v * b
    u_h = config.gamma_h * b
    top = np.stack([sample.h_vv @ u_v, sample.h_vh @ u_h], axis=-1)
    bottom = np.stack([sample.h_hv @ u_v, sample.h_hh @ u_h], axis=-1)
    return np.stack([top, bottom], axis=-2)


def det2_shift(g: np.ndarray, lambda_v: float, lambda_h: float, snr: float):
    """det(I2 + snr * G diag(lv, lh) G^H) - 1 over the trailing 2x2 axes,
    through the Hermitian product A = G Lambda G^H."""
    a11 = lambda_v * _abs2(g[..., 0, 0]) + lambda_h * _abs2(g[..., 0, 1])
    a22 = lambda_v * _abs2(g[..., 1, 0]) + lambda_h * _abs2(g[..., 1, 1])
    a12 = lambda_v * g[..., 0, 0] * np.conj(g[..., 1, 0])
    a12 = a12 + lambda_h * g[..., 0, 1] * np.conj(g[..., 1, 1])
    return snr * (a11 + a22) + snr * snr * (a11 * a22 - _abs2(a12))


def det2_hermitian_form(g: np.ndarray, lambda_v: float, lambda_h: float, snr: float):
    """det(I2 + snr * G diag(lv, lh) G^H); >= 1 for non-negative weights."""
    if lambda_v < 0.0 or lambda_h < 0.0:
        raise ValueError("allocation weights must be non-negative")
    return 1.0 + det2_shift(g, lambda_v, lambda_h, snr)


def log2_det2(g: np.ndarray, lambda_v: float, lambda_h: float, snr: float):
    """log2 det(I2 + snr * G diag(lv, lh) G^H), accurate for tiny arguments."""
    return np.log1p(det2_shift(g, lambda_v, lambda_h, snr)) / LN2


def full_vector_mc(parts, lambda_v, snr: float, trials: int, seed: int):
    """Estimate and standard error of the ergodic capacity of the link
    ``parts`` under its configuration and the split (lambda_v,
    1 - lambda_v), from full per-element draws; ``lambda_v=None`` gives the
    all-V baseline E log2(1 + rho |G11|^2)."""
    rng = np.random.default_rng(seed)
    sample = sample_channel(parts.weights, parts.xpd_coeff, parts.geometry, rng, trials)
    g = equivalent_channel(sample, parts.config, parts.b)
    if lambda_v is None:
        values = np.log1p(snr * _abs2(g[:, 0, 0])) / LN2
    else:
        values = log2_det2(g, lambda_v, 1.0 - lambda_v, snr)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(trials))


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


@dataclass(frozen=True)
class IncidenceDecomposition:
    """Per-element incidence description: elevation from the surface
    normal, the two polarization tilt tangents, and the feed distance."""

    elevation: float
    tau_v: float
    tau_h: float
    distance: float


def incidence_decomposition(
    geometry, feed_position, element_index: int, convention=axis_plane_tilt
) -> IncidenceDecomposition:
    """Decompose the feed direction seen by one element: elevation
    arccos(|d . u_x|) of d = (q_F - q_n) / D_n, the tilt tangents under
    ``convention`` and D_n.  DegenerateGeometryError for an in-plane feed."""
    if not 0 <= element_index < geometry.element_count:
        raise ValueError(
            f"element index {element_index} outside [0, {geometry.element_count})"
        )
    element = geometry.element_positions[element_index]
    delta = [float(f - q) for f, q in zip(feed_position, element)]
    distance = math.sqrt(sum(c * c for c in delta))
    if distance == 0.0:
        raise DegenerateGeometryError("feed coincides with an element")
    dx, dy, dz = (abs(c / distance) for c in delta)
    if dx == 0.0:
        raise DegenerateGeometryError("feed lies in the surface plane")
    tau_v, tau_h = convention(dx, dy, dz)
    return IncidenceDecomposition(math.acos(min(dx, 1.0)), tau_v, tau_h, distance)


def feed_gain(boresight, gain: float, direction) -> float:
    """Pattern value kappa * (r . n)^(kappa/2 - 1) toward a unit direction
    r, kappa = ``gain`` and n = ``boresight``, zero in the back hemisphere
    (r . n < 0)."""
    dot = sum(float(r) * float(n) for r, n in zip(direction, boresight))
    if dot < 0.0:
        return 0.0
    return gain * dot ** (gain / 2.0 - 1.0)


def nusw_coefficient(geometry, position, boresight, gain: float, element_index: int) -> complex:
    """Spherical-wave coefficient b_n = sqrt(G_n A_n / (4 pi D_n^2))
    exp(-j 2 pi D_n / lambda) of one element, for a feed at ``position``,
    A_n its aperture projected toward the feed; DegenerateGeometryError
    when that is non-positive."""
    element = geometry.element_positions[element_index]
    delta = [float(f - q) for f, q in zip(position, element)]
    distance = math.sqrt(sum(c * c for c in delta))
    projected = -delta[0] * geometry.element_area / distance
    if projected <= 0.0:
        raise DegenerateGeometryError("feed is in or behind the surface plane")
    gain = feed_gain(boresight, gain, [-c / distance for c in delta])
    magnitude = math.sqrt(gain * projected / (4.0 * math.pi * distance**2))
    return magnitude * cmath.exp(-2j * math.pi * distance / geometry.wavelength)


def reflection_amplitude(normal_incidence_phase: float, elevation: float, tau: float) -> float:
    """Element response amplitude |exp(2j atan((t + tau) / cos e)) -
    exp(2j atan((t - tau) / cos e))| / 2 with t = tan(phi0 / 2), phi0 the
    normal-incidence phase; grazing incidence (e = pi/2) is rejected."""
    if not 0.0 <= elevation < math.pi / 2.0:
        raise ValueError("elevation must lie in [0, pi/2)")
    t = math.tan(normal_incidence_phase / 2.0)
    cos_e = math.cos(elevation)
    plus = cmath.exp(2j * math.atan((t + tau) / cos_e))
    minus = cmath.exp(2j * math.atan((t - tau) / cos_e))
    return abs(plus - minus) / 2.0


def transmit_snr(scenario) -> float:
    """rho = P / sigma^2 of a scenario: ``snr_db`` when set, else the
    transmit power over the noise power, both in watts."""
    if scenario.snr_db is not None:
        return db_to_linear(scenario.snr_db)
    return dbm_to_watts(scenario.power_dbm) / dbm_to_watts(scenario.noise_dbm)


def random_row_per_draw(scenario, lambda_v: float):
    """(dual_ub, dual_mc) of a random-phase row under the split
    (lambda_v, 1 - lambda_v), one configuration per draw: draw d takes two
    successive uniform phase vectors from the stream seeded
    phase_seed + d, the bound is the running mean of the per-draw moment
    bounds, and Monte Carlo trial i scales the package's standard draws by
    the moments of draw i mod ``random_phase_draws``."""
    parts = link_parts(scenario)
    snr = transmit_snr(scenario)
    draws, trials = scenario.random_phase_draws, scenario.trials
    n = parts.geometry.element_count
    moments = []
    for draw in range(draws):
        rng = np.random.default_rng(scenario.phase_seed + draw)
        config = RisConfiguration(
            parts.config.amplitudes_v,
            parts.config.amplitudes_h,
            rng.uniform(0.0, 2.0 * np.pi, n),
            rng.uniform(0.0, 2.0 * np.pi, n),
        )
        moments.append(config.moments(parts))
    total = 0.0
    for m in moments:
        total += capacity.moment_upper_bound(m, lambda_v, snr)
    scale = np.sqrt(np.array(moments) / 2.0)[np.arange(trials) % draws]
    g = (capacity._standard_channels(trials, scenario.master_seed) * scale).reshape(trials, 2, 2)
    dual_mc = log2_det2(g, lambda_v, 1.0 - lambda_v, snr)
    return total / draws, float(dual_mc.mean())


def closed_form_upper_bound(
    o_v: float, o_h: float, lambda_v: float, snr: float, xpd_coeff: float
) -> float:
    """Phase-maximized capacity upper bound under the split (lv, lh) =
    (lambda_v, 1 - lambda_v)

    log2(1 + rho (lh O_H + lv O_V)
           + rho^2 lh lv O_H O_V (l^2 + (1-l)^2)).
    """
    if o_v < 0.0 or o_h < 0.0:
        raise ValueError("O quantities must be non-negative")
    if not 0.0 <= xpd_coeff <= 1.0:
        raise ValueError(f"xpd coefficient must lie in [0, 1], got {xpd_coeff!r}")
    rho = snr
    lv, lh = lambda_v, 1.0 - lambda_v
    mix = xpd_coeff * xpd_coeff + (1.0 - xpd_coeff) * (1.0 - xpd_coeff)
    shift = rho * (lh * o_h + lv * o_v) + rho * rho * lh * lv * o_h * o_v * mix
    return float(np.log1p(shift) / LN2)


def single_pol_upper_bound(o_v: float, snr: float, xpd_coeff: float) -> float:
    """Maximized upper bound of the all-V baseline:
    log2(1 + rho (1-l) O_V)."""
    if o_v < 0.0:
        raise ValueError("O quantity must be non-negative")
    if not 0.0 <= xpd_coeff <= 1.0:
        raise ValueError(f"xpd coefficient must lie in [0, 1], got {xpd_coeff!r}")
    return float(np.log1p(snr * (1.0 - xpd_coeff) * o_v) / LN2)


def equal_allocation_lower_bound(o_v: float, o_h: float, snr: float, xpd_coeff: float) -> float:
    """Optimally allocated bound floored by the equal split:
    log2(1 + rho (O_H + O_V)/2 + rho^2 O_H O_V (l^2 + (1-l)^2)/4)."""
    return closed_form_upper_bound(o_v, o_h, 0.5, snr, xpd_coeff)


def closed_form_optimal_allocation(o_v: float, o_h: float, snr: float, xpd_coeff: float) -> float:
    """The paper's maximizer of ``closed_form_upper_bound`` over lambda_v:

    lambda_0 = 1/2 + (O_V - O_H) / (2 rho (l^2 + (1-l)^2) O_V O_H),

    clipped to [0, 1]."""
    if not (o_v > 0.0 and o_h > 0.0):
        raise ValueError("O quantities must both be positive")
    if not 0.0 <= xpd_coeff <= 1.0:
        raise ValueError(f"xpd coefficient must lie in [0, 1], got {xpd_coeff!r}")
    mix = xpd_coeff * xpd_coeff + (1.0 - xpd_coeff) * (1.0 - xpd_coeff)
    lambda_0 = 0.5 + (o_v - o_h) / (2.0 * snr * mix * o_v * o_h)
    return float(np.clip(lambda_0, 0.0, 1.0))


def optimal_phases(geometry, feed_position) -> tuple[np.ndarray, np.ndarray]:
    """Capacity-maximizing phases 2 pi D_n / lambda (mod 2 pi), identical
    for both polarizations: each element cancels its own feed-path phase,
    so all reflected contributions add coherently."""
    delta = np.asarray(feed_position, dtype=float)[None, :] - geometry.element_positions
    distances = np.linalg.norm(delta, axis=1)
    phases = np.mod(2.0 * np.pi * distances / geometry.wavelength, 2.0 * np.pi)
    return phases, phases.copy()


def aligned_phases(scheme: str, geometry, feed_position) -> tuple[np.ndarray, np.ndarray]:
    """Phase vectors of an aligning scheme.  ``optimal`` aligns every
    element; ``optimal-with-adjustment`` would also subtract a feeding
    phase per polarization, a constant offset that cancels in every moment
    and that the feed does not carry, so both schemes give these phases."""
    if scheme not in ("optimal", "optimal-with-adjustment"):
        raise ValueError(f"{scheme!r} is not an aligning phase scheme")
    return optimal_phases(geometry, feed_position)


@dataclass(frozen=True)
class LinkParts:
    """The factors a scenario expands into: feed coefficients ``b``,
    pathloss ``weights`` and the lag-kernel ``spectrum``, with the
    configuration of the scenario's phase scheme."""

    geometry: object
    b: np.ndarray
    config: object
    weights: np.ndarray
    spectrum: np.ndarray
    xpd_coeff: float


def link_parts(scenario) -> LinkParts:
    """Rebuild a scenario's parts from the package's public builders,
    reading its fields as ``scenario.build_link_model`` does.  The
    configuration carries the scheme's phases: the aligning phases, or the
    single draw ``phase_seed`` for the random scheme."""
    side = math.isqrt(int(scenario.elements))
    wavelength = scenario.wavelength_m
    geo = geometry.build_ris_grid(side, side, scenario.pitch_wavelengths * wavelength, wavelength)
    position = scen._position(
        scenario.feed_r_m, scenario.feed_zenith_deg, scenario.feed_azimuth_deg
    )
    rays, distances = geometry.rays_to(geo, position, "feed")
    if scenario.boresight_deg.strip().lower() == "origin":
        boresight = -position / np.linalg.norm(position)
    else:
        cosines = np.cos(np.deg2rad([float(a) for a in scenario.boresight_deg.split(",")]))
        boresight = cosines / np.linalg.norm(cosines)
    a_v, a_h = ris.element_amplitudes(
        rays,
        distances,
        np.deg2rad(scenario.normal_incidence_phase_deg),
        scenario.tau_offset,
        scen._CONVENTIONS[scenario.incidence_convention],
    )
    if scenario.phase_scheme == "random":
        phases_v, phases_h = ris.random_phases(geo.element_count, scenario.phase_seed)
    else:
        phases_v, phases_h = aligned_phases(scenario.phase_scheme, geo, position)
    ue = scen._position(scenario.ue_r_m, scenario.ue_zenith_deg, scenario.ue_azimuth_deg)
    weights = channel.pathloss_weights(
        geometry.rays_to(geo, ue, "UE")[1],
        db_to_linear(scenario.beta0_db),
        scenario.pathloss_exponent,
    )
    return LinkParts(
        geometry=geo,
        b=feed.build_propagation_matrix(
            geo, rays, distances, boresight, db_to_linear(scenario.feed_gain_db)
        ),
        config=RisConfiguration(a_v, a_h, phases_v, phases_h),
        weights=weights,
        spectrum=channel.kernel_spectrum(geo),
        xpd_coeff=scenario.xpd_coeff,
    )


def feed_coefficients(geo, position, boresight=(1.0, 0.0, 0.0), gain: float = 10.0) -> np.ndarray:
    """The package's feed coefficients for a feed at ``position``."""
    rays, distances = geometry.rays_to(geo, position, "feed")
    return feed.build_propagation_matrix(geo, rays, distances, np.asarray(boresight), gain)


def multiplexing_gain(snr_values, capacities) -> float:
    """Least-squares slope of capacity against log2(snr) over a high-SNR
    window (every point must have snr >= 1e4; at least two points)."""
    snr = np.asarray(snr_values, dtype=float)
    cap = np.asarray(capacities, dtype=float)
    if snr.shape != cap.shape or snr.size < 2:
        raise ValueError("need at least two matching (snr, capacity) points")
    if np.any(snr < 1e4):
        raise ValueError("multiplexing slope is defined on the high-SNR window (snr >= 1e4)")
    slope, _ = np.polyfit(np.log2(snr), cap, 1)
    return float(slope)


def gauss_legendre(n: int, lower: float, upper: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [lower, upper]."""
    if n < 1:
        raise ValueError("node count must be positive")
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (upper - lower)
    return lower + half * (x + 1.0), half * w


def pattern_hemisphere_integral(
    boresight, gain: float, theta_nodes: int = 128, phi_nodes: int = 128
) -> float:
    """Numerically integrate the package's feed pattern over its front
    hemisphere.

    Product Gauss-Legendre rule over (theta, phi) around the boresight;
    a correctly normalized pattern integrates to 4 pi for every kappa.
    """
    e1, e2 = _orthonormal_complement(boresight)
    theta, w_theta = gauss_legendre(theta_nodes, 0.0, np.pi / 2.0)
    phi, w_phi = gauss_legendre(phi_nodes, 0.0, 2.0 * np.pi)
    sin_t = np.sin(theta)[:, None]
    cos_t = np.cos(theta)[:, None]
    dirs = (
        sin_t[..., None] * np.cos(phi)[None, :, None] * e1
        + sin_t[..., None] * np.sin(phi)[None, :, None] * e2
        + cos_t[..., None] * boresight
    )
    values = feed.feed_gains(boresight, gain, dirs.reshape(-1, 3)).reshape(theta_nodes, phi_nodes)
    weights = (w_theta * sin_t[:, 0])[:, None] * w_phi[None, :]
    return float(np.sum(values * weights))


def _orthonormal_complement(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    helper = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(unit, helper)) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(unit, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(unit, e1)
    return e1, e2
