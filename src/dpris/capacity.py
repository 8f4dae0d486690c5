"""Ergodic capacity of the dual-polarized link and its closed forms.

One weighted surface vector per polarization carries the whole surface
side of the link: s_P = A_P * b * w, with A_P the reflection amplitudes
(``ris``), b the feed coefficients (``feed``) and w = sqrt(beta0 d^-alpha)
the pathloss weights (``channel``), stacked on the rows x cols grid as a
(2, rows, cols) ``surface`` array.  ``scenario`` builds it once per
surface, in this order: the grid's two axes and the feed's rays
(``geometry``), traced once; |b|, then A from the same rays
(``transverse-plane`` incidence swaps A's V and H rows); w from the UE's
rays, after the feed's checks; then O from |s| = A |b| w.  The aligning
phases cancel the phase of b, so their forms read the real |s_P| alone;
only the random phase draws read the complex s_P, whose carrier phase is
multiplied in last, for them alone.
Under phases theta_P the 2x2 equivalent channel G collapses the
per-element vectors through u_P = e^{j theta_P} * s_P:

    G = [[h_vv . u_V,  h_vh . u_H],
         [h_hv . u_V,  h_hh . u_H]]

where the fading blocks h share the spatial correlation R and, the
pathloss being in s, carry the power 1 - l (co-polarized) or l
(cross-polarized).  Each entry is a linear functional of a different
fading block, and the four blocks are independent zero-mean circular
Gaussian vectors.  A linear functional of such a vector is circular
Gaussian with the matching quadratic form as its variance, so the entries
of G are independent with G_ij ~ CN(0, m_ij).  The second moments
m = (m11, m12, m21, m22) are the exact law of G, not an approximation, and
they are all the estimators and bounds here consume, as given: the link
build in ``scenario`` checks the forms once, where it builds a surface.
``expected_gram_moments`` turns a stream of D phase draws into the (D, 2)
quadratic forms q = (q_V, q_H) of the phased surface vectors, running the
draws through the surface FFT a chunk at a time in buffers it allocates
once, and ``moment_layout`` is the one place where the cross-polarization
coefficient l splits q into the (D, 4) moments.  A draw's phasors come
from one tangent, t = tan(theta / 2), as e^{j theta} =
((1 - t^2) + 2 j t) / (1 + t^2): numpy's float64 tan has a SIMD loop and
its cos and sin do not, so the one tan costs a fraction of either of them,
and the phasor lies within a few ulp of theirs (``_tangent_phasor``).

R is never formed.  On the uniform rows x cols grid R(n1, n2) depends
only on the lag (drow, dcol), through k(drow, dcol) = sinc(2 pitch
||(drow, dcol)|| / lambda), the normalized sinc of isotropic scattering,
so R is block Toeplitz with Toeplitz blocks.
``kernel_spectrum`` lays k out on an L_r x L_c circulant lattice (lag i at
index i mod L_r), each axis the smallest even length >= 2 side whose half
factors into 2, 3 and 5 (``_lattice_length``), and returns its spectrum
S = FFT2(k): L_r L_c reals, O(N), real because k is even.  Every surface
quadratic form is then one FFT per vector on that lattice: a real FFT for
the real |s| of ``compute_O``, a complex one for the phased vectors of
``expected_gram_moments``.

A moment array of shape (4,) describes one configuration; one of shape
(D, 4) describes an ensemble of D random phase draws.  The moment bound

    log2(1 + rho lv (m11 + m21) + rho lh (m12 + m22)
           + rho^2 lv lh (m11 m22 + m12 m21))

is then averaged over the draws, and Monte Carlo trial i draws G from the
moments of draw i mod D.  The transmit SNR rho and the V share lambda_v of
the power, lv above, are plain floats; the H share is lh = 1 - lambda_v.
Monte Carlo estimates E log2 det(I2 + rho G Lambda G^H) and, from the same
draws, the all-V baseline E log2(1 + rho |G11|^2), with G_ij = s_ij z_ij,
s = sqrt(m / 2) and z_ij four standard complex normals per trial.  The
normals do not depend on the moments, so every row of a sweep uses the
same ones (common random numbers), read only through the per-trial
statistics that a process keeps (``_trial_statistics``); the moments
enter through coefficients formed once per draw (``ergodic_capacity_mc``).

Under the aligning phases the moments collapse to
((1-l) O_V, l O_H, l O_V, (1-l) O_H), with the quadratic forms of |s_P|

    O = sum_{n1,n2} A_n1 A_n2 |b_n1||b_n2| R(n1,n2) beta0
        sqrt(d_n1^-a d_n2^-a),

so an aligned point builds its moments from O_V and O_H with no further
FFT, and the moment bound is the only bound.  The optimal power split
across polarizations is the closed-form maximizer of that bound over one
configuration's moments; O_V and O_H give the cross-polarization threshold
above which the dual system more than doubles the single one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

import numpy as np

from .exceptions import ModelInconsistencyError

_LN2 = np.log(2.0)
#: The form each moment of G scales, in entry order: q_V, q_H, q_V, q_H.
_LAYOUT = np.array([0, 1, 0, 1])
#: Points held by the four buffers of one ``expected_gram_moments`` call,
#: which a chunk of c draws fills with c (4N + 3P), P = L_r L_c the lattice
#: of the spectrum: 2N phases and 2N phasors, and for each polarization
#: P / 2 in the FFT stage and P in the transform (at least one draw); 16N
#: when the lattice is (2 rows) x (2 cols).  The buffers are allocated once
#: per call and reused by every chunk.  The 1000-draw N = 400 row (40 x 40
#: lattice, 6400 points a draw), built in-process on one pinned core of a
#: shared 2-vCPU VM (best of 24 interleaved runs, measured twice), takes
#: 79 and 75 ms at 2**14 (2 draws a chunk), 66 and 64 ms at 2**15
#: (5 draws) and 67 and 60 ms at 2**16 (10 draws); 2**15 adds 0.3 MiB,
#: under 1%, to a bound-grid worker's peak RSS.
_FFT_LATTICE_POINTS = 2**15
#: Trials per random stream.  Chunk c of a Monte Carlo run draws from the
#: stream keyed (master_seed, c), so a fixed seed gives the same draws for
#: every trial whatever the trial count.
_CHUNK_TRIALS = 65_536


@dataclass(frozen=True)
class McCapacityResult:
    """Monte Carlo estimate with its standard error, and the all-V
    baseline's estimate log2(1 + rho |G11|^2) with its standard error, all
    from the same draws.  ``power`` holds the kept |z_ij|^2, shape (4, T),
    and ``half_moments`` the moments m / 2 of each of the D draws, shape
    (4, D), trial i taking draw i mod D; the per-trial |G_ij|^2, their
    means and the means' standard errors are formed from the two when
    read."""

    estimate: float
    standard_error: float
    single_pol_estimate: float
    single_pol_standard_error: float
    power: np.ndarray = field(repr=False)
    half_moments: np.ndarray = field(repr=False)

    @property
    def gram(self) -> np.ndarray:
        """Per-trial |G_ij|^2 = |z_ij|^2 m_ij / 2, shape (T, 4)."""
        draws = np.arange(self.power.shape[1]) % self.half_moments.shape[1]
        return (self.power * self.half_moments[:, draws]).T

    @property
    def moments(self) -> np.ndarray:
        return self.gram.mean(axis=0)

    @property
    def moment_standard_errors(self) -> np.ndarray:
        trials = self.power.shape[1]
        if trials == 1:
            return np.zeros(4)
        return np.std(self.gram, axis=0, ddof=1) / np.sqrt(trials)


def ergodic_capacity_mc(
    moments: np.ndarray, lambda_v: float, snr: float, trials: int, master_seed: int
) -> McCapacityResult:
    """Monte Carlo mean of log2 det(I2 + rho G Lambda G^H), and of
    log2(1 + rho |G11|^2) for the all-V baseline from the G11 entries of
    the same draws; rho = ``snr`` and Lambda = diag(lambda_v, 1 - lambda_v).

    G is drawn from its exact law: four independent entries
    G_ij = s_ij z_ij, s = sqrt(m / 2), with z_ij = z1 + j z2, z1 and z2
    standard normal, and m the ``moment_layout`` of a configuration, shape
    (4,).  For an ensemble of D phase draws, shape (D, 4), trial i uses the
    moments of draw i mod D: the ensemble that ``moment_upper_bound``
    bounds over those moments.

    The call reads the normals only through the kept statistics of
    ``_trial_statistics``, and computes per trial

        det(I2 + rho G Lambda G^H) - 1
            = sum_j w_j |z_j|^2 + rho^2 lv lh |s11 s22 z11 z22 - s12 s21 z12 z21|^2,

    w = rho (lv, lh, lv, lh) m / 2.  The expansion keeps full relative
    precision where the shift is tiny, and the determinant's scales stay
    products of square roots, so they underflow no sooner than G's entries.
    The weights w, the scales s11 s22 and s12 s21 and the all-V weight
    rho m11 / 2 are formed once per draw and selected per trial.  Trials
    come in fixed chunks of 65 536, chunk c from the stream keyed
    (master_seed, c), so a fixed seed gives bitwise identical results, and
    the first T trials of a longer run are those of a T-trial run.
    """
    half = _moment_rows(moments).T / 2.0
    root = np.sqrt(half)
    power, products = _trial_statistics(trials, master_seed)
    rho, lv, lh = snr, lambda_v, 1.0 - lambda_v
    # each draw's coefficients; for an ensemble, trial i takes those of draw i mod D
    weights = (rho * np.array([lv, lh, lv, lh]))[:, None] * half
    scales = root[0] * root[3], root[1] * root[2]
    single_weight = rho * half[0]
    if half.shape[1] > 1:
        draws = np.arange(trials) % half.shape[1]
        weights, single_weight, *scales = (
            c[..., draws] for c in (weights, single_weight, *scales)
        )
    # row 0 the dual link's shift, row 1 the all-V link's, then their logs
    values = np.empty((2, trials))
    shift, single = values
    np.add.reduce(weights * power, axis=0, out=shift)
    det = scales[0] * products[:2]
    det -= scales[1] * products[2:]
    np.square(det, out=det)
    shift += (rho * rho * lv * lh) * (det[0] + det[1])
    np.multiply(single_weight, power[0], out=single)
    # means and standard errors in nats, from sums, then in bits
    nats = np.log1p(values, out=values)
    means = nats.sum(axis=1) / trials
    nats -= means[:, None]
    np.square(nats, out=nats)
    # one trial leaves no spread: its deviations are exactly 0, and so is the SE
    se = np.sqrt(nats.sum(axis=1) / max(trials - 1, 1)) / (math.sqrt(trials) * _LN2)
    means /= _LN2
    return McCapacityResult(
        estimate=float(means[0]),
        standard_error=float(se[0]),
        single_pol_estimate=float(means[1]),
        single_pol_standard_error=float(se[1]),
        power=power,
        half_moments=half,
    )


def moment_upper_bound(moments: np.ndarray, lambda_v: float, snr: float) -> float:
    """Capacity upper bound from the four second moments of G, in entry
    order (E|G11|^2, E|G12|^2, E|G21|^2, E|G22|^2), under the split
    (lambda_v, 1 - lambda_v); for (D, 4) moments of D phase draws, the mean
    of the D bounds."""
    rows = _moment_rows(moments)
    m11, m12, m21, m22 = rows.T
    rho, lambda_h = snr, 1.0 - lambda_v
    shift = (
        rho * lambda_v * (m11 + m21)
        + rho * lambda_h * (m12 + m22)
        + rho * rho * lambda_v * lambda_h * (m11 * m22 + m12 * m21)
    )
    bits = np.log1p(shift) / _LN2
    return float(np.add.reduce(bits) / bits.size)


def single_pol_moment_bound(moments: np.ndarray, snr: float) -> float:
    """Upper bound log2(1 + rho m11) of the all-V baseline, averaged over
    the draws of (D, 4) moments like ``moment_upper_bound``."""
    rows = _moment_rows(moments)
    m11 = rows[:, 0]
    bits = np.log1p(snr * m11) / _LN2
    return float(np.add.reduce(bits) / bits.size)


def compute_O(surface: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Quadratic form |s|^T R |s| of each surface vector over the last two
    axes, a rows x cols grid, |s_n| = A_n |b_n| sqrt(beta0 d_n^-alpha): the
    maximized per-polarization received-power quantity.  ``spectrum`` is
    the lag-kernel spectrum S of ``kernel_spectrum``, on an L_r x L_c
    lattice.

    With v zero-padded to the lattice and T = FFT2(pad(v)),
    v^T R v = sum_k S_k |T_k|^2 / (L_r L_c).  That is exact: grid lags lie
    in (-rows, rows) x (-cols, cols) and each lattice axis is at least
    2 side - 1 long, so no circular lag between two grid points wraps, and
    the circulant matrix of S restricted to the grid is R entry for entry.
    v is real, so |T|^2 and S are even: the real FFT's half-plane, columns
    0 .. L_c / 2, carries the sum, with weight 1 on the DC and Nyquist
    columns and 2 on the columns between, which stand for their mirror
    images too.  T is the two 1-D transforms that ``np.fft.rfft2`` runs,
    called directly: ``rfft`` along the rows to L_c points, then ``fft``
    along the columns to L_r points.  The three sums are ``np.add.reduce``,
    the ufunc method that ``ndarray.sum`` calls: the same bits without its
    Python-level wrapper, which a cold surface runs once.
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


def expected_gram_moments(
    surface: np.ndarray, phases: Iterable[np.ndarray], spectrum: np.ndarray
) -> np.ndarray:
    """Per-polarization quadratic forms q = (q_V, q_H) under each of D
    phase draws, shape (D, 2), from which ``moment_layout`` gives the exact
    second moments of G under each draw.

    ``surface`` stacks the (V, H) weighted surface vectors on the grid,
    shape (2, rows, cols), and each draw the (V, H) phases, of the same
    shape; ``phases`` is read lazily, so a generator of draws is never held
    whole.  The forms are q_P = u_P^H R u_P, with u_P = e^{j theta_P} * s_P,
    every q exact as in ``compute_O``, on the same lattice but through the
    complex FFT, since u_P is complex.  Draws go through the FFT a chunk at
    a time, in four buffers (phases, phasors, FFT stage, transform)
    allocated once per call; a draw's forms do not depend on the chunk it
    falls in.  The phasors e^{j theta_P} are formed in place from
    t = tan(theta_P / 2), with no cos or sin: the chunk's phase buffer
    holds t, then t^2, then 1 / (1 + t^2), and the phasor buffer gets
    (1 - t^2, 2 t) scaled by it, before ``*= surface``.  FFT2 over the
    L_r x L_c lattice then runs one axis at a time, as ``np.fft.fft2``
    does: along the rows to L_c points, into the first ``rows`` rows of
    the stage buffer, shape (chunk, 2, L_r / 2, L_c), then along the
    columns to L_r points, into the transform buffer, shape
    (chunk, 2, L_r, L_c), both complex.  |T|^2 is formed in the spent
    stage buffer, which holds exactly L_r L_c reals a vector, and
    Re(u^H R u) = sum_k S_k |T_k|^2 / (L_r L_c).  Under the aligning
    phases the forms collapse to (O_V, O_H).
    """
    lattice_rows, lattice_cols = spectrum.shape
    size = max(1, _FFT_LATTICE_POINTS // (2 * surface.size + 3 * spectrum.size))
    phase = np.empty((size,) + surface.shape)
    phasor = np.empty((size,) + surface.shape, dtype=complex)
    stage = np.empty((size, 2, lattice_rows // 2, lattice_cols), dtype=complex)
    transform = np.empty((size, 2, lattice_rows, lattice_cols), dtype=complex)
    draws = iter(phases)
    q = []
    while True:
        k = 0
        for draw in islice(draws, size):
            if np.shape(draw) != surface.shape:
                raise ValueError(
                    f"phase draws must have the surface's shape {surface.shape}, "
                    f"got {np.shape(draw)}"
                )
            phase[k] = draw
            k += 1
        if k == 0:
            break
        u = _tangent_phasor(phase[:k], phasor[:k])
        u *= surface
        columns = np.fft.fft(u, n=lattice_cols, axis=-1, out=stage[:k, :, : surface.shape[-2]])
        fourier = np.fft.fft(columns, n=lattice_rows, axis=-2, out=transform[:k])
        power = stage[:k].view(float).reshape(fourier.shape)
        np.square(fourier.real, out=power)
        power += np.square(fourier.imag, out=fourier.imag)
        power *= spectrum
        q.append(power.sum(axis=(-2, -1)) / spectrum.size)
    return np.concatenate(q)


def moment_layout(q: np.ndarray, xpd_coeff: float) -> np.ndarray:
    """Second moments ((1-l) q_V, l q_H, l q_V, (1-l) q_H) of G from the
    per-polarization quadratic forms q = (q_V, q_H), shape (2,) or (D, 2);
    with q = (O_V, O_H) they are the moments under the aligning phases."""
    l = xpd_coeff
    return np.asarray(q).take(_LAYOUT, axis=-1) * np.array([1.0 - l, l, l, 1.0 - l])


def optimal_power_allocation(moments: np.ndarray, snr: float) -> float:
    """The lambda_v in [0, 1] that maximizes ``moment_upper_bound`` over
    the split (lambda_v, 1 - lambda_v) for one configuration's moments,
    shape (4,):

    lambda* = 1/2 + ((m11 + m21) - (m12 + m22)) / (2 rho (m11 m22 + m12 m21)),

    clipped to [0, 1].  At aligned moments it is the paper's
    lambda_0 = 1/2 + (O_V - O_H) / (2 rho (l^2 + (1-l)^2) O_V O_H).
    ModelInconsistencyError when m11 m22 + m12 m21 is not positive (a dead
    polarization, or a product that underflows).
    """
    m = np.asarray(moments, dtype=float)
    if m.shape != (4,):
        raise ValueError(f"the split reads one configuration's moments, shape (4,), not {m.shape}")
    m11, m12, m21, m22 = m
    cross = m11 * m22 + m12 * m21
    if not cross > 0.0:
        raise ModelInconsistencyError(
            "the split needs m11 m22 + m12 m21 positive",
            details={"moments": m, "cross": float(cross), "snr": snr},
        )
    lambda_v = 0.5 + ((m11 + m21) - (m12 + m22)) / (2.0 * snr * cross)
    return float(min(max(lambda_v, 0.0), 1.0))


def xpd_threshold(o_v: float, o_h: float, snr: float) -> float:
    """Cross-polarization coefficient above which the equal-allocation
    dual bound exceeds twice the single-polarized bound.

    The two bounds compared in the linear domain give a quadratic, scaled
    so that no coefficient overflows: with x = rho O_V, r = O_H / O_V,
    a = x (r/2 - 1), b = x (2 - r/2) + 2, c = x (r/4 - 1) + (r/2 - 3/2) for
    x <= 1, divided by x = 1 / ((1/rho) / O_V) for x > 1.  Its root
    (-b + sqrt(D)) / (2 a), D = b^2 - 4 a c, is taken in the form that does
    not cancel: c / q for b > 0 and q / a otherwise (where a > 0), with
    q = -(b + sign(b) sqrt(D)) / 2.  Raises ModelInconsistencyError when the
    root is non-real or falls outside (0, 1), with the coefficients attached.
    D is nan only where r overflows the coefficients; the quadratic divided
    by r is then a = s/2, b = -s/2, c = s/4 + i/2 to leading order, with
    (s, i) = (x, 1) or (1, 1/x), so D = -s^2/4 - s i < 0: not real either.
    """
    if not all(0.0 < x < math.inf for x in (o_v, o_h, snr)):
        raise ValueError(f"O_V, O_H, snr must be positive and finite: {o_v!r}, {o_h!r}, {snr!r}")
    x, r = snr * o_v, o_h / o_v
    scale, inverse = (x, 1.0) if x <= 1.0 else (1.0, 1.0 / snr / o_v)
    a = scale * (0.5 * r - 1.0)
    b = scale * (2.0 - 0.5 * r) + 2.0 * inverse
    c = scale * (0.25 * r - 1.0) + (0.5 * r - 1.5) * inverse
    details = {"a": a, "b": b, "c": c, "snr": snr, "o_v": o_v, "o_h": o_h}
    discriminant = b * b - 4.0 * a * c
    if not discriminant >= 0.0:
        raise ModelInconsistencyError("threshold root is not real", details=details)
    if b > 0.0:
        root = c / (-0.5 * (b + math.sqrt(discriminant)))
    else:
        root = 0.5 * (math.sqrt(discriminant) - b) / a
    details["root"] = root
    if not 0.0 < root < 1.0:
        raise ModelInconsistencyError(
            f"threshold {root:.6g} falls outside (0, 1)", details=details
        )
    return root


def kernel_spectrum(rows: int, cols: int, pitch: float, wavelength: float) -> np.ndarray:
    """Read-only spectrum S of the sinc lag kernel of the rows x cols grid
    at ``pitch``, on the lattice of ``_lattice_length(rows)`` x
    ``_lattice_length(cols)`` points.

    Lattice index (i, j) holds the kernel at the lag (min(i, L_r - i),
    min(j, L_c - j)).  That puts every grid lag at its index mod L with no
    wrap, and keeps k even in each axis, so S is real and even too: the
    sinc is evaluated once per distinct |lag| and gathered, and the real
    FFT's half-plane is mirrored into the rest.

    The sinc is ``np.sinc``'s arithmetic written out, y = pi x with x = 0
    read as 1e-20, then sin(y) / y, and the transform is the two calls that
    ``np.fft.rfft2`` makes, ``rfft`` along the rows and ``fft`` along the
    columns.  That gives the bits of ``np.sinc`` and ``rfft2`` without
    their Python-level wrappers, which each new lattice runs once, cold.
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


def _tangent_phasor(phase: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{j theta} = ((1 - t^2) + 2 j t) / (1 + t^2), t = tan(theta / 2), of
    the real ``phase`` into the complex ``out`` of its shape; ``phase`` is
    spent as the scratch for t, t^2 and 1 / (1 + t^2).  Each part lies
    within a few ulp of cos and sin: theta / 2 near pi / 2 gives a large
    t, but no double comes near enough for t^2 to overflow.  Returns
    ``out``.
    """
    phase *= 0.5
    t = np.tan(phase, out=phase)
    np.multiply(t, 2.0, out=out.imag)
    t2 = np.square(t, out=phase)
    np.subtract(1.0, t2, out=out.real)
    t2 += 1.0
    scale = np.reciprocal(t2, out=phase)
    out.real *= scale
    out.imag *= scale
    return out


def _moment_rows(moments: np.ndarray) -> np.ndarray:
    """Moments of shape (4,) or (D, 4) as a (D, 4) float array."""
    rows = np.asarray(moments, dtype=float)
    if rows.ndim not in (1, 2) or rows.shape[-1] != 4 or rows.size == 0:
        raise ValueError(f"moments must have shape (4,) or (D, 4), got {rows.shape}")
    return rows.reshape(-1, 4)


@functools.lru_cache(maxsize=1)
def _trial_statistics(trials: int, master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only statistics of ``trials`` draws of four standard complex
    normals z = z1 + j z2, in entry order (G11, G12, G21, G22): the powers
    |z_ij|^2, shape (4, trials), and the determinant's products
    (Re, Im z11 z22, Re, Im z12 z21), shape (4, trials), each a contiguous
    row; 64 bytes a trial.  The last result is kept for the next call with
    the same arguments.

    Chunk c holds trials [c C, (c + 1) C) with C = _CHUNK_TRIALS and draws
    them from its own stream as a prefix of that stream's draws, so buffers
    stay sized to the trials requested.
    """
    power = np.empty((4, trials))
    products = np.empty((4, trials))
    for start in range(0, trials, _CHUNK_TRIALS):
        stop = min(start + _CHUNK_TRIALS, trials)
        seq = np.random.SeedSequence(master_seed, spawn_key=(start // _CHUNK_TRIALS,))
        rng = np.random.Generator(np.random.PCG64(seq))
        normals = rng.standard_normal((stop - start, 4, 2))
        z = normals.view(complex)[..., 0]
        for row, (i, j) in ((0, (0, 3)), (2, (1, 2))):
            pair = z[:, i] * z[:, j]
            products[row, start:stop], products[row + 1, start:stop] = pair.real, pair.imag
        np.square(normals, out=normals)
        np.add(normals[..., 0].T, normals[..., 1].T, out=power[:, start:stop])
    power.setflags(write=False)
    products.setflags(write=False)
    return power, products
