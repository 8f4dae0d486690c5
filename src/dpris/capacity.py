"""Ergodic capacity of the dual-polarized link and its closed forms.

Each polarization P = V, H has one weighted surface vector s_P
(``scenario``), and the two stack on the rows x cols grid as a
(2, rows, cols) ``surface``.  Under phases theta_P the 2x2 channel is

    G = [[h_vv . u_V,  h_vh . u_H],
         [h_hv . u_V,  h_hh . u_H]],    u_P = e^{j theta_P} * s_P,

with independent zero-mean circular Gaussian fading blocks h of one
spatial correlation R and of power 1 - l (co-polarized) or l
(cross-polarized), l = ``xpd_coeff``.  So the entries of G are
independent, G_ij ~ CN(0, m_ij): the second moments m = (m11, m12, m21,
m22) are G's exact law, and every estimator and bound here reads them as
given.  Each moment scales one form q_P = u_P^H R u_P (``moment_layout``):
O_P = |s_P|^T R |s_P| under the aligning phases (``compute_O``), or one
per random phase draw (``expected_gram_moments``).  R is never formed;
both read its spectrum (``kernel_spectrum``).

Moments of shape (4,) describe one configuration, and (D, 4) D phase
draws.  With rho the transmit SNR and (lv, lh) = (lambda_v, 1 - lambda_v)
the power split, the moment bound, averaged over the draws, is

    log2(1 + rho lv (m11 + m21) + rho lh (m12 + m22)
           + rho^2 lv lh (m11 m22 + m12 m21)).

Monte Carlo estimates E log2 det(I2 + rho G Lambda G^H), and from the
same draws the all-V E log2(1 + rho |G11|^2), with G_ij = s_ij z_ij,
s = sqrt(m / 2) and z_ij four standard complex normals per trial, as

    det(I2 + rho G Lambda G^H) - 1
        = sum_j w_j |z_j|^2 + rho^2 lv lh |s11 s22 z11 z22 - s12 s21 z12 z21|^2,

w = rho (lv, lh, lv, lh) m / 2, which keeps full relative precision where
the shift is tiny; its scales underflow no sooner than G's entries.  It
reads the z_ij only through the powers |z_ij|^2, iid -2 ln U, and the
phase sum psi = phi11 + phi22 - phi12 - phi21 between z11 z22 and
z12 z21, uniform and independent of the powers, so a trial is five
uniforms (``_trial_statistics``).  Trial t takes the uniforms
5 t, ..., 5 t + 4 of one counter-based SplitMix64 stream keyed by
``master_seed`` (``_uniform_rows``): a seed gives the same bits whatever
the trial count, T trials are a prefix of any longer run, and no
``numpy.random`` is imported.  Every row of a sweep reads the same trials
(common random numbers).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import ris
from .exceptions import ModelInconsistencyError

_LN2 = math.log(2.0)
#: The form each moment of G scales, in entry order: q_V, q_H, q_V, q_H.
_LAYOUT = np.array([0, 1, 0, 1])
#: Points the buffers of one ``expected_gram_moments`` call may hold (at
#: least one draw): a chunk of c draws takes c (4N + 3P), P = L_r L_c the
#: spectrum's lattice; on a 1000-draw N = 400 row 2**14 was slower and
#: 2**16 no clearer gain.
_FFT_LATTICE_POINTS = 2**15
#: Uniforms per Monte Carlo trial: four powers and one phase sum.
_STREAM_STRIDE = 5
#: SplitMix64's increment, the odd 64-bit word nearest 2^64 / golden ratio,
#: and its finalizer's (xor-shift, multiplier) steps before the last shift.
_GAMMA = 0x9E3779B97F4A7C15
_MIX_STEPS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_MASK64 = (1 << 64) - 1


class McCapacityResult(NamedTuple):
    """The dual and all-V Monte Carlo estimates in bits, each with its
    standard error, from the same T trials."""

    estimate: float
    standard_error: float
    single_pol_estimate: float
    single_pol_standard_error: float


def ergodic_capacity_mc(
    moments: np.ndarray, lambda_v: float, snr: float, trials: int, master_seed: int
) -> McCapacityResult:
    """Monte Carlo estimates of E log2 det(I2 + rho G Lambda G^H) and of
    the all-V E log2(1 + rho |G11|^2), rho = ``snr`` and
    Lambda = diag(lambda_v, 1 - lambda_v), by the module's expansion over
    the ``_trials`` of ``moments``, shape (4,) or (D, 4).  A fixed
    ``master_seed`` gives the same bits, and the first T trials of a longer
    run are a T-trial run's.
    """
    half, power, products = _trials(moments, trials, master_seed)
    root = np.sqrt(half)
    rho, lv, lh = snr, lambda_v, 1.0 - lambda_v
    weights = (rho * np.array([lv, lh, lv, lh]))[:, None] * half
    # row 0 the dual link's shift, row 1 the all-V link's, then their logs
    values = np.empty((2, trials))
    shift, single = values
    np.add.reduce(weights * power, axis=0, out=shift)
    det = (root[0] * root[3]) * products[:2]
    det -= (root[1] * root[2]) * products[2:]
    np.square(det, out=det)
    shift += (rho * rho * lv * lh) * (det[0] + det[1])
    np.multiply(rho * half[0], power[0], out=single)
    # means and standard errors in nats, from sums, then in bits
    nats = np.log1p(values, out=values)
    means = nats.sum(axis=1) / trials
    nats -= means[:, None]
    np.square(nats, out=nats)
    # one trial leaves no spread: its deviations are exactly 0, and so is the SE
    se = np.sqrt(nats.sum(axis=1) / max(trials - 1, 1)) / (math.sqrt(trials) * _LN2)
    means /= _LN2
    return McCapacityResult(*(float(x) for x in (means[0], se[0], means[1], se[1])))


def mc_moments(moments: np.ndarray, trials: int, master_seed: int) -> np.ndarray:
    """The sample means of |G_ij|^2 = |z_ij|^2 m_ij / 2, shape (4,), over
    the trials of ``_trials``: the moments the Monte Carlo of the same
    ``trials`` and ``master_seed`` reads, without its estimates."""
    half, power, _ = _trials(moments, trials, master_seed)
    return (power * half).T.mean(axis=0)


def _trials(moments: np.ndarray, trials: int, master_seed: int):
    """Each trial's m / 2, shape (4, 1) for moments of shape (4,) and
    (4, trials) for (D, 4), trial t taking draw t mod D, then the powers
    and products of ``_trial_statistics``.  ValueError for any other shape.
    """
    half = _moment_rows(moments).T / 2.0
    if half.shape[1] > 1:
        half = half[:, np.arange(trials) % half.shape[1]]
    return (half, *_trial_statistics(trials, master_seed))


def moment_upper_bound(moments: np.ndarray, lambda_v: float, snr: float) -> float:
    """The module's moment bound in bits for ``moments`` of shape (4,), or
    the mean of the D bounds for shape (D, 4), under the split
    (lambda_v, 1 - lambda_v) at the transmit SNR ``snr``."""
    rho, lambda_h = snr, 1.0 - lambda_v

    def shift(m11, m12, m21, m22):
        return (
            rho * lambda_v * (m11 + m21)
            + rho * lambda_h * (m12 + m22)
            + rho * rho * lambda_v * lambda_h * (m11 * m22 + m12 * m21)
        )

    return _mean_bits(shift, moments, "the moment bound")


def single_pol_moment_bound(moments: np.ndarray, snr: float) -> float:
    """The all-V bound log2(1 + rho m11), averaged over the draws of (D, 4)
    moments as ``moment_upper_bound`` is."""
    return _mean_bits(lambda m11, m12, m21, m22: snr * m11, moments, "the all-V bound")


def _mean_bits(shift, moments: np.ndarray, form: str) -> float:
    """The mean of log2(1 + ``shift``(m11, m12, m21, m22)) over the rows of
    ``moments`` (``_moment_rows``), one expression for both: a single row's
    moments as Python floats, which give numpy's bits at a fraction of its
    per-call cost, D rows' as columns, under numpy's errstate.  Floats
    leave the float range silently, so a single row's shift that is not
    finite raises FloatingPointError naming ``form``, whatever the errstate.
    """
    rows = _moment_rows(moments)
    if len(rows) == 1:
        value = shift(*rows.tolist()[0])
        if not abs(value) < math.inf:
            raise FloatingPointError(f"{form}'s shift is {value!r}")
        return float(np.log1p(value)) / _LN2
    bits = np.log1p(shift(*rows.T)) / _LN2
    return float(np.add.reduce(bits) / bits.size)


def compute_O(surface: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Quadratic forms |s|^T R |s| of each surface vector s over the last
    two axes, a rows x cols grid: O = (O_V, O_H) for a (2, rows, cols)
    surface.  Exact on the lattice of ``spectrum`` (``kernel_spectrum``):
    with T the FFT2 of |s| zero-padded to it, |s|^T R |s| =
    sum_k S_k |T_k|^2 / (L_r L_c), summed over the real FFT's half-plane,
    its DC and Nyquist columns once and those between twice.  ``rfft2``'s
    two calls and ``sum``'s ``np.add.reduce`` run without their wrappers.
    """
    lattice_rows, lattice_cols = spectrum.shape
    half = lattice_cols // 2 + 1
    columns = np.fft.rfft(np.abs(surface), n=lattice_cols)
    transform = np.fft.fft(columns, n=lattice_rows, axis=-2)
    parts = transform.view(float)
    np.square(parts, out=parts)
    power = parts[..., ::2] + parts[..., 1::2]
    power *= spectrum[:, :half]
    edges = np.add.reduce(power[..., 0], axis=-1) + np.add.reduce(power[..., -1], axis=-1)
    return (2.0 * np.add.reduce(power, axis=(-2, -1)) - edges) / spectrum.size


def expected_gram_moments(surface: np.ndarray, seeds: range, spectrum: np.ndarray) -> np.ndarray:
    """Quadratic forms q_P = u_P^H R u_P, u_P = e^{j theta_P} * s_P, of the
    (V, H) ``surface`` vectors, shape (2, rows, cols), under the random
    scheme's phase draw of each of the D ``seeds``: shape (D, 2).
    ``ris.random_phase_chunks`` writes the draws straight into the phase
    buffer, and each form is exact on the lattice of ``spectrum``, as in
    ``compute_O``.  The draws pass a chunk at a time through four buffers
    allocated once per call (half phases, phasors, FFT stage, transform);
    a draw's forms do not depend on its chunk.  ValueError for no seeds or
    a surface of two axes.
    """
    lattice_rows, lattice_cols = spectrum.shape
    size = max(1, _FFT_LATTICE_POINTS // (2 * surface.size + 3 * spectrum.size))
    half = np.empty((size,) + surface.shape)
    phasor = np.empty((size,) + surface.shape, dtype=complex)
    # the row FFTs fill rows <= L_r / 2 of the stage; spent, it holds |T|^2 as L_r L_c reals
    stage = np.empty((size, 2, lattice_rows // 2, lattice_cols), dtype=complex)
    transform = np.empty((size, 2, lattice_rows, lattice_cols), dtype=complex)
    q = []
    for theta in ris.random_phase_chunks(half, seeds):
        # pi r of r turns is theta / 2 with the bits of 2 pi r * 0.5
        theta *= np.pi
        k = len(theta)
        u = phasor[:k]
        _tangent_phasor(theta, u.real, u.imag)
        u *= surface
        columns = np.fft.fft(u, n=lattice_cols, axis=-1, out=stage[:k, :, : surface.shape[-2]])
        fourier = np.fft.fft(columns, n=lattice_rows, axis=-2, out=transform[:k])
        parts = fourier.view(float)
        np.square(parts, out=parts)
        power = stage[:k].view(float).reshape(fourier.shape)
        np.add(parts[..., ::2], parts[..., 1::2], out=power)
        power *= spectrum
        q.append(power.sum(axis=(-2, -1)) / spectrum.size)
    return np.concatenate(q)


def moment_layout(q: np.ndarray, xpd_coeff: float) -> np.ndarray:
    """Second moments ((1-l) q_V, l q_H, l q_V, (1-l) q_H) of G from the
    forms q = (q_V, q_H), shape (2,) or (D, 2), and l = ``xpd_coeff``."""
    l = xpd_coeff
    return np.asarray(q).take(_LAYOUT, axis=-1) * np.array([1.0 - l, l, l, 1.0 - l])


def optimal_power_allocation(moments: np.ndarray, snr: float) -> float:
    """The lambda_v in [0, 1] that maximizes ``moment_upper_bound`` for
    one configuration's moments, shape (4,) (else ValueError):
        lambda* = 1/2 + ((m11 + m21) - (m12 + m22)) / (2 rho (m11 m22 + m12 m21)),
    clipped to [0, 1].  At aligned moments it is the paper's
    lambda_0 = 1/2 + (O_V - O_H) / (2 rho (l^2 + (1-l)^2) O_V O_H).
    ModelInconsistencyError when m11 m22 + m12 m21 is not positive (a dead
    polarization, or a product that underflows).  The steps run once, on
    Python floats, as ``_mean_bits``'s do: FloatingPointError, whatever
    numpy's errstate, names the step that leaves the float range:
    2 rho (m11 m22 + m12 m21), 0 or not finite (an infinite
    m11 m22 + m12 m21 makes it inf), or lambda_v, not finite.
    """
    m = np.asarray(moments, dtype=float)
    if m.shape != (4,):
        raise ValueError(f"the split reads one configuration's moments, shape (4,), not {m.shape}")
    m11, m12, m21, m22 = m.tolist()
    cross = m11 * m22 + m12 * m21
    if not cross > 0.0:
        details = {"moments": m, "cross": cross, "snr": snr}
        raise ModelInconsistencyError("the split needs m11 m22 + m12 m21 positive", details)
    scale = 2.0 * snr * cross
    if not 0.0 < abs(scale) < math.inf:
        raise FloatingPointError(f"the split's 2 rho (m11 m22 + m12 m21) is {scale!r}")
    lambda_v = 0.5 + ((m11 + m21) - (m12 + m22)) / scale
    if not abs(lambda_v) < math.inf:
        raise FloatingPointError(f"the split's lambda_v is {lambda_v!r}")
    return min(max(lambda_v, 0.0), 1.0)


def xpd_threshold(o_v: float, o_h: float, snr: float) -> float:
    """Cross-polarization coefficient above which the equal-split dual
    bound exceeds twice the single-polarized one, from the aligned O_V, O_H
    and the transmit SNR rho.  The bounds give a quadratic, scaled so no
    coefficient overflows: with x = rho O_V and r = O_H / O_V,
    a = x (r/2 - 1), b = x (2 - r/2) + 2, c = x (r/4 - 1) + (r/2 - 3/2) for
    x <= 1, divided by x = 1 / ((1/rho) / O_V) for x > 1.  In t = 1 - l
    it reads -a t^2 + B t - C with B = x r/2 + 2 > 0 and
    C = x r/4 + (1 + r)/2 > 0, scaled alike, so its discriminant is
    D = B^2 - 4 a C, a sum of terms >= 0 for r <= 2, where a <= 0; b^2 - 4ac
    would cancel as the root nears 1.  The root (-b + sqrt(D)) / (2 a) is
    taken in forms that do not cancel: c / q with q = -(b + sqrt(D)) / 2
    below 1/2, and 1 - 2 C / (B + sqrt(D)) from 1/2 up.  b > 0 wherever
    D >= 0, since with u = r / 2, b <= 0 means x (u - 2) >= 2, and then
    D <= 4 - 2 (4 u^2 - 4 u - 2) / (u - 2) < 0.  D is nan only where r
    overflows; the quadratic over r then has D = -s^2/4 - s i < 0 to
    leading order, with (s, i) = (x, 1) or (1, 1/x).  ValueError for an
    input that is not positive and finite; ModelInconsistencyError, with
    the coefficients, for a root that is not real or falls outside (0, 1).
    """
    if not all(0.0 < x < math.inf for x in (o_v, o_h, snr)):
        raise ValueError(f"O_V, O_H, snr must be positive and finite: {o_v!r}, {o_h!r}, {snr!r}")
    x, r = snr * o_v, o_h / o_v
    scale, inverse = (x, 1.0) if x <= 1.0 else (1.0, 1.0 / snr / o_v)
    a = scale * (0.5 * r - 1.0)
    b = scale * (2.0 - 0.5 * r) + 2.0 * inverse
    c = scale * (0.25 * r - 1.0) + (0.5 * r - 1.5) * inverse
    shifted_b = scale * (0.5 * r) + 2.0 * inverse
    shifted_c = scale * (0.25 * r) + (0.5 + 0.5 * r) * inverse
    details = {"a": a, "b": b, "c": c, "snr": snr, "o_v": o_v, "o_h": o_h}
    discriminant = shifted_b * shifted_b - 4.0 * a * shifted_c
    if not discriminant >= 0.0:
        raise ModelInconsistencyError("threshold root is not real", details=details)
    root = c / (-0.5 * (b + math.sqrt(discriminant)))
    if root >= 0.5:
        root = 1.0 - 2.0 * shifted_c / (shifted_b + math.sqrt(discriminant))
    details["root"] = root
    if not 0.0 < root < 1.0:
        raise ModelInconsistencyError(f"threshold {root:.6g} falls outside (0, 1)", details)
    return root


def kernel_spectrum(rows: int, cols: int, pitch: float, wavelength: float) -> np.ndarray:
    """Read-only spectrum S = FFT2(k), shape (L_r, L_c) with each L the
    ``_lattice_length`` of its side, of the lag kernel of a rows x cols
    grid: k = sinc(2 pitch |lag| / wavelength), the correlation
    R(n1, n2) = k(n1 - n2) of isotropic scattering.  Index (i, j) holds
    the lag (min(i, L_r - i), min(j, L_c - j)), so every grid lag sits at
    its index mod L, and k and S are real and even.  ``np.sinc`` and
    ``rfft2`` are written out, with their bits.
    """
    lattice = _lattice_length(rows), _lattice_length(cols)
    lag_r, lag_c = (np.minimum(np.arange(n), n - np.arange(n)) for n in lattice)
    quarter_r, quarter_c = (np.arange(n // 2 + 1) for n in lattice)
    separation = pitch * np.hypot(quarter_r[:, None], quarter_c)
    x = 2.0 * separation / wavelength
    y = np.pi * np.where(x == 0, 1.0e-20, x)
    kernel = (np.sin(y) / y).take(lag_r, axis=0).take(lag_c, axis=1)
    columns = np.fft.rfft(kernel, axis=1)
    spectrum = np.fft.fft(columns, axis=0).real.take(lag_c, axis=1)
    spectrum.setflags(write=False)
    return spectrum


def _lattice_length(side: int) -> int:
    """Length of the FFT lattice along a grid axis of ``side`` elements:
    2 m, with m the smallest integer >= side whose only prime factors are
    2, 3 and 5, the FFT's fast radices.  Any length >= 2 side - 1 is exact
    (no grid lag wraps); an even one gives the real FFT a Nyquist column."""
    m = side
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return 2 * m
        m += 1


def _tangent_phasor(half: np.ndarray, real: np.ndarray, imag: np.ndarray) -> None:
    """cos theta and sin theta = ((1 - t^2), 2 t) / (1 + t^2),
    t = tan(theta / 2), of the half phases ``half`` = theta / 2 into the
    real arrays ``real`` and ``imag`` of their shape; ``half`` is spent as
    the scratch for t, t^2 and 1 / (1 + t^2).  Each lies within a few ulp
    of cos and sin, and no double theta / 2 comes near enough to pi / 2
    for t^2 to overflow.  numpy's float64 tan has a SIMD loop and its cos
    and sin do not.
    """
    t = np.tan(half, out=half)
    np.multiply(t, 2.0, out=imag)
    t2 = np.square(t, out=half)
    np.subtract(1.0, t2, out=real)
    t2 += 1.0
    scale = np.reciprocal(t2, out=half)
    real *= scale
    imag *= scale


def _moment_rows(moments: np.ndarray) -> np.ndarray:
    """Moments of shape (4,) or (D, 4) as a (D, 4) float array."""
    rows = np.asarray(moments, dtype=float)
    if rows.ndim not in (1, 2) or rows.shape[-1] != 4 or rows.size == 0:
        raise ValueError(f"moments must have shape (4,) or (D, 4), got {rows.shape}")
    return rows.reshape(-1, 4)


@functools.lru_cache(maxsize=1)
def _trial_statistics(trials: int, master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only statistics of ``trials`` draws of G's normalized law, in
    entry order (G11, G12, G21, G22), each shape (4, trials): the powers
    p_ij = |z_ij|^2 = -2 ln U_k, k = 0..3, and the product rows
    (r cos psi, r sin psi, r', 0), r = sqrt(p11 p22), r' = sqrt(p12 p21),
    psi = 2 pi (U_4 - 1/2), in place of (Re, Im z11 z22, Re, Im z12 z21).
    The determinant reads z11 z22 and z12 z21 only through their magnitudes
    and the phase sum psi = phi11 + phi22 - phi12 - phi21, which is uniform
    and independent of the magnitudes, so the rows have the normals' law.
    Trial t reads the uniforms 5 t .. 5 t + 4 of ``_uniform_rows``, so a
    T-trial run is a prefix of any longer run of its seed.
    """
    power = np.empty((4, trials))
    products = np.empty((4, trials))
    uniforms = _uniform_rows(trials, master_seed)
    for row in power:
        np.log(next(uniforms), out=row)
    power *= -2.0
    # psi, uniform on (-pi, pi], from its half angle
    half = next(uniforms)
    half -= 0.5
    half *= np.pi
    _tangent_phasor(half, products[0], products[1])
    # (r', r) in rows 2 and 3, then row 3 spent
    magnitudes = products[2:]
    np.multiply(power[1::-1], power[2:], out=magnitudes)
    np.sqrt(magnitudes, out=magnitudes)
    products[:2] *= magnitudes[1]
    products[3] = 0.0
    power.setflags(write=False)
    products.setflags(write=False)
    return power, products


def _uniform_rows(trials: int, master_seed: int):
    """Yield, for k = 0, ..., 4, the uniforms U_{5 t + k}, t < ``trials``,
    of ``master_seed``'s stream, each written into one buffer that the next
    row reuses.  U_i = ((x_i >> 11) + 1) 2^-53 lies in (0, 1], with
    x_i = mix64(key + (i + 1) gamma mod 2^64) SplitMix64's output i from the
    state key = ``_stream_key(master_seed)`` (Steele, Lea & Flood, OOPSLA
    2014), read by counter (Salmon et al., SC 2011).  The uint64 array
    arithmetic wraps without a floating-point error.
    """
    steps = np.arange(trials, dtype=np.uint64)
    steps *= _STREAM_STRIDE * _GAMMA & _MASK64
    steps += _stream_key(master_seed)
    state = np.empty_like(steps)
    scratch = np.empty_like(steps)
    for k in range(_STREAM_STRIDE):
        np.add(steps, (k + 1) * _GAMMA & _MASK64, out=state)
        _mix64(state, scratch)
        state >>= 11
        state += 1
        # at most 2^53, so exact as a double; numpy converts int64 faster
        yield np.multiply(state.view(np.int64), 2.0**-53, out=scratch.view(float))


def _stream_key(master_seed: int) -> int:
    """The stream state of a seed >= 0: mix64 folded over its 64-bit words,
    lowest first, key = mix64(key ^ word) from key = 0, so every word of
    the seed moves the stream."""
    key = np.zeros(1, dtype=np.uint64)
    scratch = np.empty_like(key)
    while True:
        key ^= master_seed & _MASK64
        _mix64(key, scratch)
        master_seed >>= 64
        if not master_seed:
            return int(key[0])


def _mix64(z: np.ndarray, scratch: np.ndarray) -> None:
    """SplitMix64's finalizer of the uint64 array ``z``, in place, with
    ``scratch`` of its shape: xor-shift by 30, multiply, by 27, multiply,
    by 31."""
    for shift, multiplier in _MIX_STEPS:
        np.right_shift(z, shift, out=scratch)
        z ^= scratch
        z *= multiplier
    np.right_shift(z, 31, out=scratch)
    z ^= scratch
