"""Ergodic capacity of the dual-polarized link and its closed forms.

The 2x2 equivalent channel G collapses the per-element vectors:

    G = [[h_vv . (Gamma_v * b_v),  h_vh . (Gamma_h * b_h)],
         [h_hv . (Gamma_v * b_v),  h_hh . (Gamma_h * b_h)]]

Each entry is a linear functional of a different fading block, and the
four blocks are independent zero-mean circular Gaussian vectors.  A linear
functional of such a vector is circular Gaussian with the matching
quadratic form as its variance, so the entries of G are independent with
G_ij ~ CN(0, m_ij).  The second moments m = (m11, m12, m21, m22) are the
exact law of G, not an approximation, and they are all the estimators and
bounds here consume: ``expected_gram_moments`` turns a phase configuration
into m with one FFT over the surface, or a stack of c phase draws into a
(c, 4) array with one FFT call.

A moment array of shape (4,) describes one configuration; one of shape
(D, 4) describes an ensemble of D random phase draws.  The moment bound

    log2(1 + rho lv (m11 + m21) + rho lh (m12 + m22)
           + rho^2 lv lh (m11 m22 + m12 m21))

is then averaged over the draws, and Monte Carlo trial i draws G from the
moments of draw i mod D.  Monte Carlo draws four complex scalars per trial,
vectorized over trials, and estimates E log2 det(I2 + rho G Lambda G^H)
and, from the same draws, the all-V baseline E log2(1 + rho |G11|^2).
Trials come in fixed-size chunks, each from its own stream keyed by the
master seed and the chunk index, so results are bitwise reproducible.

Under the aligning phases the moments collapse to
((1-l) O_V, l O_H, l O_V, (1-l) O_H), with the quadratic forms

    O = sum_{n1,n2} A_n1 A_n2 |b_n1||b_n2| R(n1,n2) beta0
        sqrt(d_n1^-a d_n2^-a),

so an aligned point builds its moments from O_V and O_H with no further
FFT, and the moment bound is the only bound.  O_V and O_H also give the
closed-form optimal power split across polarizations and the
cross-polarization threshold above which the dual system more than doubles
the single one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelStatistics
from .exceptions import ModelInconsistencyError
from .feed import PropagationMatrix
from .ris import RisConfiguration

_LN2 = np.log(2.0)
#: Trials per random stream.  Chunk c of a Monte Carlo run draws from the
#: stream keyed (master_seed, c), so a fixed seed gives the same draws for
#: every trial whatever the trial count.
_CHUNK_TRIALS = 65_536


@dataclass(frozen=True)
class PowerAllocation:
    """Transmit power split across polarizations; weights sum to <= 1."""

    lambda_v: float
    lambda_h: float

    def __post_init__(self):
        if not 0.0 <= self.lambda_v <= 1.0 or not 0.0 <= self.lambda_h <= 1.0:
            raise ValueError("allocation weights must lie in [0, 1]")
        if self.lambda_v + self.lambda_h > 1.0 + 1e-12:
            raise ValueError("allocation weights must sum to at most 1")

    @classmethod
    def equal(cls) -> "PowerAllocation":
        return cls(0.5, 0.5)

    @classmethod
    def split(cls, lambda_v: float) -> "PowerAllocation":
        """Full-power split (lambda_v, 1 - lambda_v)."""
        return cls(lambda_v, 1.0 - lambda_v)


@dataclass(frozen=True)
class LinkBudget:
    """Transmit SNR rho = P / sigma^2, optionally with its constituents."""

    snr: float
    noise_variance: float | None = None
    transmit_power: float | None = None

    def __post_init__(self):
        if not self.snr > 0.0:
            raise ValueError(f"snr must be positive, got {self.snr!r}")
        if self.noise_variance is not None and self.transmit_power is not None:
            implied = self.transmit_power / self.noise_variance
            if abs(implied - self.snr) > 1e-9 * self.snr:
                raise ValueError("snr does not match transmit_power / noise_variance")

    @classmethod
    def from_snr(cls, snr: float) -> "LinkBudget":
        return cls(snr=snr)

    @classmethod
    def from_powers(cls, transmit_power: float, noise_variance: float) -> "LinkBudget":
        return cls(
            snr=transmit_power / noise_variance,
            noise_variance=noise_variance,
            transmit_power=transmit_power,
        )


@dataclass(frozen=True)
class McCapacityResult:
    """Monte Carlo estimate with its standard error, the all-V baseline's
    estimate log2(1 + rho |G11|^2) with its standard error, and the
    per-entry second moments of G, all from the same draws."""

    estimate: float
    standard_error: float
    single_pol_estimate: float
    single_pol_standard_error: float
    moments: np.ndarray
    moment_standard_errors: np.ndarray
    trials: int
    master_seed: int


def ergodic_capacity_mc(
    moments: np.ndarray,
    allocation: PowerAllocation,
    budget: LinkBudget,
    trials: int,
    master_seed: int,
) -> McCapacityResult:
    """Monte Carlo mean of log2 det(I2 + rho G Lambda G^H), and of
    log2(1 + rho |G11|^2) for the all-V baseline from the G11 entries of
    the same draws.

    G is drawn from its exact law: four independent entries
    G_ij = sqrt(m_ij / 2) (z1 + j z2) with z1, z2 standard normal and m the
    ``expected_gram_moments`` of a configuration, shape (4,).  For an
    ensemble of D phase draws, shape (D, 4), trial i uses the moments of
    draw i mod D, so the estimate describes the same ensemble as
    ``moment_upper_bound`` over those moments.

    Trials are drawn in fixed chunks of 65 536, chunk c from the stream
    keyed (master_seed, c), so a fixed seed gives bitwise identical
    results, and the first T trials of a longer run are those of a T-trial
    run.  Raises ModelInconsistencyError, with the moments attached, when
    a moment is negative or not finite.
    """
    if trials < 1:
        raise ValueError(f"trial count must be at least 1, got {trials!r}")
    moments = _moment_rows(moments)
    if not np.all(np.isfinite(moments)) or np.any(moments < 0.0):
        raise ModelInconsistencyError(
            "channel second moments must be finite and non-negative",
            details={"moments": moments},
        )

    scale = np.sqrt(moments / 2.0)[np.arange(trials) % len(moments)]
    g = _standard_channels(trials, master_seed) * scale
    gram = g.real**2 + g.imag**2
    rho = budget.snr
    # det(I2 + rho G Lambda G^H) - 1 expanded through |det G|^2, which
    # keeps full relative precision where the shift is tiny
    lv, lh = allocation.lambda_v, allocation.lambda_h
    det = g[:, 0] * g[:, 3] - g[:, 1] * g[:, 2]
    shift = rho * (lv * (gram[:, 0] + gram[:, 2]) + lh * (gram[:, 1] + gram[:, 3]))
    shift += rho * rho * lv * lh * (det.real**2 + det.imag**2)
    dual = np.log1p(shift) / _LN2
    single = np.log1p(rho * gram[:, 0]) / _LN2

    if trials > 1:
        se = float(np.std(dual, ddof=1) / np.sqrt(trials))
        single_se = float(np.std(single, ddof=1) / np.sqrt(trials))
        moment_se = np.std(gram, axis=0, ddof=1) / np.sqrt(trials)
    else:
        se = single_se = 0.0
        moment_se = np.zeros(4)
    return McCapacityResult(
        estimate=float(np.mean(dual)),
        standard_error=se,
        single_pol_estimate=float(np.mean(single)),
        single_pol_standard_error=single_se,
        moments=gram.mean(axis=0),
        moment_standard_errors=moment_se,
        trials=trials,
        master_seed=master_seed,
    )


def moment_upper_bound(
    moments: np.ndarray, allocation: PowerAllocation, budget: LinkBudget
) -> float:
    """Capacity upper bound from the four second moments of G, in entry
    order (E|G11|^2, E|G12|^2, E|G21|^2, E|G22|^2); for (D, 4) moments of
    D phase draws, the mean of the D bounds."""
    rows = _moment_rows(moments)
    if rows.min() < 0.0:
        raise ValueError("moments must be non-negative")
    m11, m12, m21, m22 = rows.T
    rho = budget.snr
    shift = (
        rho * allocation.lambda_v * (m11 + m21)
        + rho * allocation.lambda_h * (m12 + m22)
        + rho * rho * allocation.lambda_v * allocation.lambda_h * (m11 * m22 + m12 * m21)
    )
    return float(np.mean(np.log1p(shift) / _LN2))


def single_pol_moment_bound(moments: np.ndarray, budget: LinkBudget) -> float:
    """Upper bound log2(1 + rho m11) of the all-V baseline, averaged over
    the draws of (D, 4) moments like ``moment_upper_bound``."""
    rows = _moment_rows(moments)
    if rows.min() < 0.0:
        raise ValueError("moments must be non-negative")
    m11 = rows[:, 0]
    return float(np.mean(np.log1p(budget.snr * m11) / _LN2))


def compute_O(
    amplitudes: np.ndarray, pm: PropagationMatrix, stats: ChannelStatistics
) -> np.ndarray:
    """Quadratic form v^T R v with v_n = A_n |b_n| sqrt(beta0 d_n^-alpha);
    the maximized per-polarization received-power quantity.  Amplitudes
    of shape (..., N) give one form per vector, in one FFT call.

    With v zero-padded to the (2 rows) x (2 cols) lattice of the lag-kernel
    spectrum S (see ``channel``), v^T R v = sum_k S_k |FFT2(pad(v))_k|^2 / (4N).
    That is exact: grid lags lie in (-rows, rows) x (-cols, cols), so no
    circular lag between two grid points wraps, and the circulant matrix
    of S restricted to the grid is R entry for entry.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    n = amplitudes.shape[-1]
    if n != pm.element_count or n != stats.element_count:
        raise ValueError("amplitude, propagation and statistics sizes disagree")
    return _surface_quadforms(amplitudes * np.abs(pm.shared), stats)


def expected_gram_moments(
    config: RisConfiguration, pm: PropagationMatrix, stats: ChannelStatistics
) -> np.ndarray:
    """Exact second moments (E|G11|^2, E|G12|^2, E|G21|^2, E|G22|^2) for an
    arbitrary phase configuration, from the channel's second-order model.

    They scale q_P = u_P^H W R W u_P, with u_P = Gamma_P b_P and
    W = diag sqrt(beta0 d^-alpha), by 1 - l or l; every q comes from one
    FFT call, exact as in ``compute_O``.  Phases of shape (c, N), a stack
    of c draws, give moments of shape (c, 4).  Under the aligning phases
    they collapse to ((1-l) O_V, l O_H, l O_V, (1-l) O_H).
    """
    u = np.stack([config.gamma_v * pm.copol_v, config.gamma_h * pm.copol_h])
    return moment_layout(_surface_quadforms(u, stats), stats.xpd_coeff)


def moment_layout(q: np.ndarray, xpd_coeff: float) -> np.ndarray:
    """Second moments ((1-l) q_V, l q_H, l q_V, (1-l) q_H) of G from the
    per-polarization quadratic forms q = (q_V, q_H), shape (2,) or (2, c);
    with q = (O_V, O_H) they are the moments under the aligning phases."""
    l = xpd_coeff
    return np.asarray(q)[[0, 1, 0, 1]].T * np.array([1.0 - l, l, l, 1.0 - l])


def optimal_power_allocation(
    o_v: float, o_h: float, budget: LinkBudget, xpd_coeff: float
) -> PowerAllocation:
    """Closed-form maximizer of the upper bound over the power split.

    lambda_0 = 1/2 + (O_V - O_H) / (2 rho (l^2 + (1-l)^2) O_V O_H),
    clipped to [0, 1]; the remainder goes to the other polarization.
    """
    if not (o_v > 0.0 and o_h > 0.0):
        raise ValueError("O quantities must both be positive")
    if not 0.0 <= xpd_coeff <= 1.0:
        raise ValueError(f"xpd coefficient must lie in [0, 1], got {xpd_coeff!r}")
    mix = xpd_coeff * xpd_coeff + (1.0 - xpd_coeff) * (1.0 - xpd_coeff)
    lambda_0 = 0.5 + (o_v - o_h) / (2.0 * budget.snr * mix * o_v * o_h)
    lambda_v = float(np.clip(lambda_0, 0.0, 1.0))
    return PowerAllocation(lambda_v, 1.0 - lambda_v)


def xpd_threshold(o_v: float, o_h: float, budget: LinkBudget) -> float:
    """Cross-polarization coefficient above which the equal-allocation
    dual bound exceeds twice the single-polarized bound.

    Root (-b + sqrt(b^2 - 4 a c)) / (2 a) of the quadratic obtained by
    comparing the two bounds in the linear domain.  Raises
    ModelInconsistencyError when the root is non-real or falls outside
    (0, 1), with the quadratic's coefficients attached.
    """
    if not (o_v > 0.0 and o_h > 0.0):
        raise ValueError("O quantities must both be positive")
    rho = budget.snr
    a = rho * rho * o_v * (0.5 * o_h - o_v)
    b = rho * rho * o_v * (2.0 * o_v - 0.5 * o_h) + 2.0 * rho * o_v
    c = rho * rho * o_v * (0.25 * o_h - o_v) + rho * (0.5 * o_h - 1.5 * o_v)
    details = {"a": a, "b": b, "c": c, "snr": rho, "o_v": o_v, "o_h": o_h}
    discriminant = b * b - 4.0 * a * c
    if discriminant < 0.0:
        raise ModelInconsistencyError("threshold root is not real", details=details)
    if a == 0.0:
        raise ModelInconsistencyError("threshold quadratic degenerates", details=details)
    root = (-b + np.sqrt(discriminant)) / (2.0 * a)
    details["root"] = float(root)
    if not 0.0 < root < 1.0:
        raise ModelInconsistencyError(
            f"threshold {root:.6g} falls outside (0, 1)", details=details
        )
    return float(root)


def multiplexing_gain(snr_values: Sequence[float], capacities: Sequence[float]) -> float:
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


def _surface_quadforms(vectors: np.ndarray, stats: ChannelStatistics) -> np.ndarray:
    """Re(u^H W R W u) for each row-major grid vector u along the last axis
    of ``vectors``, W = diag(stats.weights); see ``compute_O``."""
    lattice = stats.kernel_spectrum.shape
    grid = vectors.shape[:-1] + (lattice[0] // 2, lattice[1] // 2)
    spectrum = np.fft.fft2((vectors * stats.weights).reshape(grid), s=lattice)
    power = spectrum.real**2 + spectrum.imag**2
    power *= stats.kernel_spectrum
    return power.sum(axis=(-2, -1)) / stats.kernel_spectrum.size


def _moment_rows(moments: np.ndarray) -> np.ndarray:
    """Moments of shape (4,) or (D, 4) as a (D, 4) float array."""
    rows = np.asarray(moments, dtype=float)
    if rows.ndim not in (1, 2) or rows.shape[-1] != 4 or rows.size == 0:
        raise ValueError(f"moments must have shape (4,) or (D, 4), got {rows.shape}")
    return rows.reshape(-1, 4)


def _standard_channels(trials: int, master_seed: int) -> np.ndarray:
    """(trials, 4) complex draws z1 + j z2 with independent standard normal
    parts, columns in entry order (G11, G12, G21, G22).

    Chunk c holds trials [c C, (c + 1) C) with C = _CHUNK_TRIALS and draws
    them from its own stream as a prefix of that stream's draws, so buffers
    stay sized to the trials requested.
    """
    out = np.empty((trials, 4), dtype=complex)
    for start in range(0, trials, _CHUNK_TRIALS):
        stop = min(start + _CHUNK_TRIALS, trials)
        seq = np.random.SeedSequence(master_seed, spawn_key=(start // _CHUNK_TRIALS,))
        rng = np.random.Generator(np.random.PCG64(seq))
        out[start:stop] = rng.standard_normal((stop - start, 4, 2)).view(complex)[..., 0]
    return out
