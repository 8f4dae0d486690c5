"""Reference implementations the tests compare the package against.

The package holds the surface as the two axes of its grid and broadcasts
them; the oracles list it element by element, as (N, 3) positions
(``grid_positions``), and trace (N, 3) rays (``rays_to``), from which
``position_surface`` builds a scenario's weighted surface vectors by
another route: feed magnitudes through the unit directions, elevations
through arccos and the amplitudes through arctangents, under each
incidence convention's own tilts.  The dense N x N sinc correlation
matrix is built from element positions; the package holds only the
spectrum of its lag kernel.  The full-vector channel sampler draws every
element's fading through a factor of that matrix and forms G from the
feed coefficients and the reflection coefficients apart; the package's
Monte Carlo draws only the 2x2 law of the equivalent channel, whose
moments it reads from one weighted surface vector per polarization,
amplitudes times feed coefficients times pathloss weights.  The
scalar determinant forms expand det(I2 + rho G Lambda G^H) through the
Hermitian product, an independent route to the package's |det G|^2 form.
The per-element scalar twins (incidence decomposition, feed pattern,
spherical-wave coefficient, reflection amplitude) evaluate one element at
a time with ``math``; the incidence tilts of both conventions are written
out here, where the package swaps its amplitude maps.
``RisConfiguration`` is one phase configuration with its complex
reflection coefficients, which the package never forms per
configuration, and ``random_row_per_draw`` evaluates a random-phase row
one configuration per draw, where the package streams the draws through
one kernel call.  The phase-maximized closed forms in O_V and O_H, the
paper's bound and its optimal split, are the references for the
package's moment bound and its maximizer at aligned moments, and the
aligning phases, which the package never builds, are the references for
its moments built from O_V and O_H.  ``link_parts`` takes the factors a
scenario expands into from the package's own builders, reading the
scenario's fields as the package does, and lists them element by
element; the package's link model keeps only what its outputs read.
The hemisphere quadrature checks that the feed pattern integrates to
4 pi, and ``multiplexing_gain`` reads the high-SNR slope of a capacity
curve.  ``sinc_rfft2_spectrum`` and ``per_polarization_amplitudes`` are
the package's kernel spectrum and amplitude map as numpy's wrappers and a
loop over the polarizations give them, and ``fft2_draw_forms`` its
random-draw forms as ``np.fft.fft2`` gives them one draw at a time, for
any given draws where the package forms only seeded ones; the package
makes the same arithmetic in the same order through fewer calls and
reused buffers, so the two agree bit for bit.  ``random_phases`` is a
random draw as a generator seeded for it alone gives it, where the
package seeds its draws a block of seeds at a time, and
``splitmix64_uniforms`` the Monte Carlo stream one Python int at a time,
where the package wraps uint64 arrays; ``standard_channels`` turns it
into normals with the law the package's trials stand for.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from dpris import capacity, channel, feed, geometry, ris
from dpris.exceptions import DegenerateGeometryError, ModelInconsistencyError
from dpris.scenario import _cosines, db_to_linear

LN2 = np.log(2.0)
#: Eigenvalues below this fraction of the largest one are clipped to zero
#: before forming the sampling factor (the sinc kernel is near-singular on
#: dense grids).
CLIP_FRACTION = 1e-12
#: Eigenvalues below minus this fraction of the largest one mean the input
#: was not a correlation matrix at all.
PSD_TOLERANCE = 1e-8
#: SplitMix64's increment (Steele, Lea & Flood, OOPSLA 2014).
GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64's finalizer of a 64-bit word, in Python ints."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK64
    return z ^ z >> 31


def stream_key(master_seed: int) -> int:
    """The Monte Carlo stream's state: ``mix64`` folded over the seed's
    64-bit words, lowest first, from 0."""
    key = 0
    while True:
        key = mix64(key ^ master_seed & MASK64)
        master_seed >>= 64
        if not master_seed:
            return key


def splitmix64_uniforms(master_seed: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of the seed's Monte Carlo stream, one
    Python int at a time: ((x_i >> 11) + 1) / 2^53 of SplitMix64's output
    x_i = mix64(key + (i + 1) gamma mod 2^64)."""
    key = stream_key(master_seed)
    return np.array(
        [((mix64(key + (i + 1) * GAMMA & MASK64) >> 11) + 1) / 2**53 for i in range(count)]
    )


def standard_channels(trials: int, master_seed: int) -> np.ndarray:
    """The package's Monte Carlo trials as normals: (trials, 4) complex
    z_ij in entry order (G11, G12, G21, G22), trial t from the uniforms
    U_{5t}, ..., U_{5t+4} of ``splitmix64_uniforms``: |z_ij|^2 = -2 ln U_k
    and the phases (psi, 0, 0, 0), psi = 2 pi (U_{5t+4} - 1/2), which give
    G's law wherever only the four powers and the phase sum are read."""
    uniforms = splitmix64_uniforms(master_seed, 5 * trials).reshape(trials, 5)
    z = np.sqrt(-2.0 * np.log(uniforms[:, :4])).astype(complex)
    z[:, 0] *= np.exp(2j * np.pi * (uniforms[:, 4] - 0.5))
    return z


def grid_positions(rows: int, cols: int, pitch: float) -> np.ndarray:
    """Positions, shape (rows * cols, 3), of a rows-by-cols grid of
    elements at ``pitch`` centered at the origin in the y-z plane,
    row-major (rows advance along z, columns along y)."""
    y = (np.arange(cols) - (cols - 1) / 2.0) * pitch
    z = (np.arange(rows) - (rows - 1) / 2.0) * pitch
    yy, zz = np.meshgrid(y, z, indexing="xy")
    return np.column_stack([np.zeros(rows * cols), yy.ravel(), zz.ravel()])


def rays_to(positions: np.ndarray, point, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Vectors from every element at ``positions``, shape (N, 3), to
    ``point`` and their lengths; DegenerateGeometryError when the point is
    on an element."""
    rays = np.asarray(point, dtype=float)[None, :] - positions
    distances = np.linalg.norm(rays, axis=1)
    if np.any(distances == 0.0):
        raise DegenerateGeometryError(f"{name} coincides with an element")
    return rays, distances


def feed_magnitudes(rays, distances, area: float, boresight, gain: float) -> np.ndarray:
    """|b_n| = sqrt(G_n A_n / (4 pi D_n^2)) of every element from its (N, 3)
    ray to the feed: the pattern over the unit directions -ray / D_n and
    the aperture projected onto them."""
    projected = -rays[:, 0] * area / distances
    if np.any(projected <= 0.0):
        raise DegenerateGeometryError("feed is in or behind the surface plane")
    dots = (-rays / distances[:, None]) @ np.asarray(boresight)
    gains = np.where(dots < 0.0, 0.0, gain * np.maximum(dots, 0.0) ** (gain / 2.0 - 1.0))
    return np.sqrt(gains * projected / (4.0 * np.pi * distances**2))


def ray_amplitudes(rays, distances, normal_incidence_phase: float, tau_offset: float, tilt):
    """(V, H) reflection amplitudes, shape (2, N), from (N, 3) rays to the
    feed: elevations e = arccos|d_x| of the unit directions d, the tilts of
    the convention ``tilt`` and |sin(atan p - atan m)|, p, m =
    (t +- tau) / cos e, through atan p - atan m = atan((p - m) / (1 + p m))
    (mod pi, which |sin| ignores), with p - m = 2 tau / cos e formed
    directly, so that nothing cancels near tau = 0."""
    dx, dy, dz = np.abs(rays / distances[:, None]).T
    elevations = np.arccos(np.minimum(dx, 1.0))
    if np.any(elevations >= np.pi / 2.0):
        raise DegenerateGeometryError("the feed meets the surface at grazing incidence")
    t = np.tan(normal_incidence_phase / 2.0)
    cos_e = np.cos(elevations)
    rows = []
    for tau in tilt(dx, dy, dz):
        p, m = (t + tau + tau_offset) / cos_e, (t - tau - tau_offset) / cos_e
        with np.errstate(divide="ignore"):
            rows.append(np.abs(np.sin(np.arctan(2.0 * (tau + tau_offset) / cos_e / (1.0 + p * m)))))
    return np.stack(rows)


def per_polarization_amplitudes(
    rays: tuple,
    distances: np.ndarray,
    normal_incidence_phase: float,
    tau_offset: float,
    convention: str = "axis-plane",
) -> np.ndarray:
    """The (V, H) amplitude maps of the package under ``convention``, one
    polarization at a time, from the broadcast rays of ``geometry.rays_to``:
    each map 2 |tau| cos e / sqrt((c^2 + (t + tau)^2) (c^2 + (t - tau)^2))
    formed whole, with V's tau over the rows and H's over the columns
    (``axis-plane``), or each read in the other axis's plane
    (``transverse-plane``)."""
    x, dy, dz = rays
    cos_e = np.abs(x) / distances
    if np.arccos(min(cos_e.min(), 1.0)) >= np.pi / 2.0:
        raise DegenerateGeometryError("the feed meets the surface at grazing incidence")
    t = np.tan(normal_incidence_phase / 2.0)
    c2 = cos_e * cos_e
    amplitudes = np.empty((2,) + distances.shape)
    tilts = (np.abs(dz), np.abs(dy))
    if convention == "transverse-plane":
        tilts = tilts[::-1]
    for out, tilt in zip(amplitudes, tilts):
        tau = tilt / abs(x) + tau_offset
        np.multiply(c2 + (t + tau) ** 2, c2 + (t - tau) ** 2, out=out)
        np.sqrt(out, out=out)
        np.divide(2.0 * np.abs(tau) * cos_e, out, out=out)
    return amplitudes


def position_surface(scenario) -> np.ndarray:
    """The weighted surface vectors A_P |b| w e^{-j 2 pi D / lambda} of a
    scenario, shape (2, N), built element by element from the (N, 3)
    positions and rays, under the tilts of its incidence convention."""
    side = math.isqrt(int(scenario.elements))
    wavelength = scenario.wavelength_m
    pitch = scenario.pitch_wavelengths * wavelength
    positions = grid_positions(side, side, pitch)
    position = geometry.spherical_to_cartesian(
        scenario.feed_r_m, scenario.feed_zenith_deg, scenario.feed_azimuth_deg
    )
    rays, distances = rays_to(positions, position, "feed")
    if scenario.boresight_deg.strip().lower() == "origin":
        boresight = -np.array(position) / np.linalg.norm(position)
    else:
        cosines = np.cos(np.deg2rad([float(a) for a in scenario.boresight_deg.split(",")]))
        boresight = cosines / np.linalg.norm(cosines)
    magnitudes = feed_magnitudes(
        rays, distances, pitch * pitch, boresight, db_to_linear(scenario.feed_gain_db)
    )
    amplitudes = ray_amplitudes(
        rays,
        distances,
        np.deg2rad(scenario.normal_incidence_phase_deg),
        scenario.tau_offset,
        TILTS[scenario.incidence_convention],
    )
    ue = geometry.spherical_to_cartesian(
        scenario.ue_r_m, scenario.ue_zenith_deg, scenario.ue_azimuth_deg
    )
    ue_distances = rays_to(positions, ue, "UE")[1]
    beta = db_to_linear(scenario.beta0_db) * ue_distances**-scenario.pathloss_exponent
    phase = np.exp(-2j * np.pi * distances / wavelength)
    return amplitudes * magnitudes * np.sqrt(beta) * phase


def correlation_matrix(positions: np.ndarray, wavelength: float) -> np.ndarray:
    """Spatial correlation sinc(2 ||q_n1 - q_n2|| / lambda) for all pairs of
    element ``positions`` (normalized sinc: unit diagonal, first zero at
    lambda/2)."""
    separation = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
    return np.sinc(2.0 * separation / wavelength)


def sinc_rfft2_spectrum(rows: int, cols: int, pitch: float, wavelength: float) -> np.ndarray:
    """``capacity.kernel_spectrum`` through ``np.sinc`` and ``np.fft.rfft2``:
    the sinc kernel on the circulant lattice, and the real part of its
    real 2-D FFT mirrored to the full lattice."""
    lattice = capacity._lattice_length(rows), capacity._lattice_length(cols)
    lag_r, lag_c = (np.minimum(np.arange(n), n - np.arange(n)) for n in lattice)
    quarter_r, quarter_c = (np.arange(n // 2 + 1) for n in lattice)
    separation = pitch * np.hypot(quarter_r[:, None], quarter_c)
    kernel = np.sinc(2.0 * separation / wavelength).take(lag_r, axis=0).take(lag_c, axis=1)
    return np.fft.rfft2(kernel).real.take(lag_c, axis=1)


def random_phases(rows: int, cols: int, seed: int) -> np.ndarray:
    """The random scheme's phase draw of ``seed`` from a generator of its
    own, shape (2, rows, cols): ``default_rng(seed).uniform(0, 2 pi)``, V
    then H, each row-major, 2 pi times the turns ``ris.random_phase_chunks``
    writes."""
    return np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (2, rows, cols))


def fft2_draw_forms(surface: np.ndarray, draws, spectrum: np.ndarray) -> np.ndarray:
    """The forms (q_V, q_H) of ``surface``, shape (2, rows, cols), under
    each of the given phase ``draws`` of its shape, shape (D, 2), one draw
    at a time through ``np.fft.fft2``: the draw's tangent phasors times
    ``surface``, padded to the lattice and transformed, then
    sum_k S_k |T_k|^2 / (L_r L_c).  The package forms only seeded draws
    (``capacity.expected_gram_moments``), with these bits; this is the
    reference for any other draw."""
    forms = []
    for draw in draws:
        phasor = np.empty(draw.shape, dtype=complex)
        capacity._tangent_phasor(draw * 0.5, phasor.real, phasor.imag)
        t = np.fft.fft2(phasor * surface, s=spectrum.shape)
        power = (t.real**2 + t.imag**2) * spectrum
        forms.append(power.sum(axis=(-2, -1)) / spectrum.size)
    return np.array(forms)


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
    positions: np.ndarray,
    wavelength: float,
    rng: np.random.Generator,
    trials: int | None = None,
) -> ChannelSample:
    """Draw one fading realization, or ``trials`` of them in one batch.

    Each block is sqrt(pathloss) times a correlated standard circular
    complex Gaussian vector L w, with L L^T the dense correlation of the
    elements at ``positions``, w = (g1 + j g2) / sqrt(2) and the four
    blocks independent.
    """
    factor = correlation_sqrt(correlation_matrix(positions, wavelength))
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
    holds the amplitudes inside the weighted surface vector and draws its
    phases from seeds; ``moments`` lays both out on the grid,
    (2, side, side), and forms them through ``fft2_draw_forms``."""

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
        """The weighted surface vectors of these amplitudes on the square
        grid of the link ``parts`` (see ``link_parts``), shape
        (2, side, side), formed as ``scenario.build_link_model`` forms the
        random scheme's: the feed coefficients carry their phase."""
        vectors = np.stack([self.amplitudes_v, self.amplitudes_h]) * parts.b * parts.weights
        return on_grid(vectors)

    def moments(self, parts) -> np.ndarray:
        """The second moments of G under this configuration on the link
        ``parts``, shape (4,), with the bits of the package's moments of
        a seeded draw of these phases."""
        draw = on_grid(np.stack([self.phases_v, self.phases_h]))
        q = fft2_draw_forms(self.surface(parts), [draw], parts.spectrum)
        return capacity.moment_layout(q, parts.xpd_coeff)[0]


def on_grid(vectors: np.ndarray) -> np.ndarray:
    """Vectors of a square surface's N elements, shape (..., N), laid out
    on its side x side grid, row-major, as the package's surface kernels
    take them."""
    side = math.isqrt(vectors.shape[-1])
    return vectors.reshape(vectors.shape[:-1] + (side, side))


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
    sample = sample_channel(
        parts.weights, parts.xpd_coeff, parts.positions, parts.wavelength, rng, trials
    )
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


def axis_plane_tilt(dx: float, dy: float, dz: float) -> tuple[float, float]:
    """(tau_v, tau_h) of a unit incidence direction with components |dx|,
    |dy|, |dz| under ``axis-plane``: each polarization's tilt in the plane
    of its dipole axis and the normal (x-z for V, x-y for H)."""
    return dz / dx, dy / dx


def transverse_plane_tilt(dx: float, dy: float, dz: float) -> tuple[float, float]:
    """(tau_v, tau_h) under ``transverse-plane``: each polarization's tilt
    in the plane orthogonal to its dipole axis (x-y for V, x-z for H)."""
    return dy / dx, dz / dx


#: The scalar tilts by their ``incidence_convention`` name.
TILTS = {"axis-plane": axis_plane_tilt, "transverse-plane": transverse_plane_tilt}


def incidence_decomposition(
    positions, feed_position, element_index: int, convention=axis_plane_tilt
) -> IncidenceDecomposition:
    """Decompose the feed direction seen by one of the elements at
    ``positions``: elevation arccos(|d . u_x|) of d = (q_F - q_n) / D_n, the
    tilt tangents under ``convention`` and D_n.  DegenerateGeometryError
    for an in-plane feed."""
    if not 0 <= element_index < len(positions):
        raise ValueError(f"element index {element_index} outside [0, {len(positions)})")
    element = positions[element_index]
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


def nusw_coefficient(
    positions, position, area: float, wavelength: float, boresight, gain: float, element_index: int
) -> complex:
    """Spherical-wave coefficient b_n = sqrt(G_n A_n / (4 pi D_n^2))
    exp(-j 2 pi D_n / lambda) of one of the elements at ``positions``, for a
    feed at ``position``, A_n its ``area`` projected toward the feed;
    DegenerateGeometryError when that is non-positive."""
    element = positions[element_index]
    delta = [float(f - q) for f, q in zip(position, element)]
    distance = math.sqrt(sum(c * c for c in delta))
    projected = -delta[0] * area / distance
    if projected <= 0.0:
        raise DegenerateGeometryError("feed is in or behind the surface plane")
    gain = feed_gain(boresight, gain, [-c / distance for c in delta])
    magnitude = math.sqrt(gain * projected / (4.0 * math.pi * distance**2))
    return magnitude * cmath.exp(-2j * math.pi * distance / wavelength)


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
    transmit power over the noise power, their difference in dB."""
    if scenario.snr_db is not None:
        return db_to_linear(scenario.snr_db)
    return 10.0 ** ((scenario.power_dbm - scenario.noise_dbm) / 10.0)


def random_row_per_draw(scenario, lambda_v: float):
    """(dual_ub, dual_mc) of a random-phase row under the split
    (lambda_v, 1 - lambda_v), one configuration per draw: draw d takes two
    successive uniform phase vectors from the stream seeded
    phase_seed + d, the bound is the running mean of the per-draw moment
    bounds, and Monte Carlo trial i scales ``standard_channels`` by
    the moments of draw i mod ``random_phase_draws``."""
    parts = link_parts(scenario)
    snr = transmit_snr(scenario)
    draws, trials = scenario.random_phase_draws, scenario.trials
    n = len(parts.positions)
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
    g = (standard_channels(trials, scenario.master_seed) * scale).reshape(trials, 2, 2)
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


def optimal_phases(positions, wavelength: float, feed_position) -> tuple[np.ndarray, np.ndarray]:
    """Capacity-maximizing phases 2 pi D_n / lambda (mod 2 pi) of the
    elements at ``positions``, identical for both polarizations: each
    element cancels its own feed-path phase, so all reflected contributions
    add coherently."""
    delta = np.asarray(feed_position, dtype=float)[None, :] - positions
    distances = np.linalg.norm(delta, axis=1)
    phases = np.mod(2.0 * np.pi * distances / wavelength, 2.0 * np.pi)
    return phases, phases.copy()


def aligned_phases(
    scheme: str, positions, wavelength: float, feed_position
) -> tuple[np.ndarray, np.ndarray]:
    """Phase vectors of an aligning scheme.  ``optimal`` aligns every
    element; ``optimal-with-adjustment`` would also subtract a feeding
    phase per polarization, a constant offset that cancels in every moment
    and that the feed does not carry, so both schemes give these phases."""
    if scheme not in ("optimal", "optimal-with-adjustment"):
        raise ValueError(f"{scheme!r} is not an aligning phase scheme")
    return optimal_phases(positions, wavelength, feed_position)


@dataclass(frozen=True)
class LinkParts:
    """The factors a scenario expands into: the element ``positions`` and
    the ``wavelength``, feed coefficients ``b``, pathloss ``weights`` and
    the lag-kernel ``spectrum``, with the configuration of the scenario's
    phase scheme."""

    positions: np.ndarray
    wavelength: float
    b: np.ndarray
    config: object
    weights: np.ndarray
    spectrum: np.ndarray
    xpd_coeff: float


def link_parts(scenario) -> LinkParts:
    """A scenario's parts from the package's own builders, reading its
    fields as ``scenario.build_link_model`` does, listed element by
    element in the grid's row-major order, so the surface vectors that
    ``RisConfiguration.surface`` forms from them carry the package's bits.
    The configuration carries the scheme's phases: the aligning phases, or
    the single draw ``phase_seed`` for the random scheme."""
    side = math.isqrt(int(scenario.elements))
    wavelength = scenario.wavelength_m
    pitch = scenario.pitch_wavelengths * wavelength
    grid = geometry.build_ris_grid(side, side, pitch)
    positions = grid_positions(side, side, pitch)
    position = geometry.spherical_to_cartesian(
        scenario.feed_r_m, scenario.feed_zenith_deg, scenario.feed_azimuth_deg
    )
    rays, distances = geometry.rays_to(grid, position, "feed")
    if scenario.boresight_deg.strip().lower() == "origin":
        boresight = -np.array(position) / math.hypot(*position)
    else:
        cosines = np.array(_cosines(scenario.boresight_deg))
        boresight = cosines / math.hypot(*cosines)
    a_v, a_h = ris.element_amplitudes(
        rays, distances, np.deg2rad(scenario.normal_incidence_phase_deg), scenario.tau_offset
    )
    if scenario.incidence_convention == "transverse-plane":
        a_v, a_h = a_h, a_v
    if scenario.phase_scheme == "random":
        phases_v, phases_h = random_phases(side, side, scenario.phase_seed)
    else:
        phases_v, phases_h = aligned_phases(scenario.phase_scheme, positions, wavelength, position)
    ue = geometry.spherical_to_cartesian(
        scenario.ue_r_m, scenario.ue_zenith_deg, scenario.ue_azimuth_deg
    )
    weights = channel.pathloss_weights(
        geometry.rays_to(grid, ue, "UE")[1],
        db_to_linear(scenario.beta0_db),
        scenario.pathloss_exponent,
    )
    magnitudes = feed.build_propagation_matrix(
        rays, distances, pitch * pitch, boresight, db_to_linear(scenario.feed_gain_db)
    )
    return LinkParts(
        positions=positions,
        wavelength=wavelength,
        b=(magnitudes * feed.carrier_phase(distances, wavelength)).ravel(),
        config=RisConfiguration(a_v.ravel(), a_h.ravel(), phases_v.ravel(), phases_h.ravel()),
        weights=weights.ravel(),
        spectrum=capacity.kernel_spectrum(side, side, pitch, wavelength),
        xpd_coeff=scenario.xpd_coeff,
    )


def feed_coefficients(
    grid, position, area: float, wavelength: float, boresight=(1.0, 0.0, 0.0), gain=10.0
) -> np.ndarray:
    """The package's complex feed coefficients of the elements of ``grid``
    (``geometry.build_ris_grid``), of ``area`` each, for a feed at
    ``position``: its magnitudes times its carrier phase factors, listed
    in row-major order."""
    rays, distances = geometry.rays_to(grid, np.asarray(position, dtype=float), "feed")
    magnitudes = feed.build_propagation_matrix(
        rays, distances, area, np.asarray(boresight), gain
    )
    return (magnitudes * feed.carrier_phase(distances, wavelength)).ravel()


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
    values = feed.feed_gains(dirs @ boresight, gain)
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
