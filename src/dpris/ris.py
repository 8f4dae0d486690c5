"""Per-element reflection on the rows x cols grid: the angle-dependent
amplitude map A_P and the seeded random phase draws.  Each polarization
sees the feed's tilt in the plane of the surface normal and its own dipole
axis (``axis-plane``; the frame is ``geometry``'s), so a feed raised toward
+z strengthens V, and a tilt depends on one grid axis only: V's on the
row, H's on the column.  ``transverse-plane`` reads each tilt in the other
axis's plane, which exchanges the V and H maps.
"""

from __future__ import annotations

from itertools import pairwise

import numpy as np

from .exceptions import DegenerateGeometryError

#: Seeds ``random_phase_chunks`` hashes per pass: the hash's hundred-odd
#: numpy calls cost nearly as much for a few seeds as for a thousand.
_SEED_BLOCK = 1024
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
#: SeedSequence's hash and mix constants, and PCG64's 128-bit multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def element_amplitudes(
    rays: tuple, distances: np.ndarray, normal_incidence_phase: float, tau_offset: float
) -> np.ndarray:
    """Reflection amplitudes (V, H), shape (2, rows, cols), from the
    components (x, y, z) and lengths D of the rays to the feed
    (``geometry.rays_to``): |exp(2ja) - exp(2jb)| / 2 = |sin(a - b)| with
    a, b = atan((t +- tau) / c), t = tan(phi0 / 2), phi0 the
    normal-incidence phase in radians (off pi), c = |x| / D the cosine of
    the elevation, and the tilt tangents tau_V = |z| / |x| and
    tau_H = |y| / |x| plus ``tau_offset``.  The sine is taken as
    2 |tau| c / sqrt((c^2 + (t + tau)^2) (c^2 + (t - tau)^2)), with full
    relative precision near tau = 0, where the map is exactly zero, so an
    on-axis ray reflects nothing at zero offset.  Both maps run as
    one stack, with the bits of one at a time.  DegenerateGeometryError
    at grazing incidence.
    """
    x, dy, dz = rays
    rows, cols = distances.shape
    cos_e = np.abs(x) / distances
    # arccos is decreasing: the smallest cosine has the largest elevation
    if np.arccos(min(np.minimum.reduce(cos_e, axis=None), 1.0)) >= np.pi / 2.0:
        raise DegenerateGeometryError("the feed meets the surface at grazing incidence")
    t = np.tan(normal_incidence_phase / 2.0)
    # per axis, V's tau over the rows then H's over the columns:
    # (t + tau)^2, (t - tau)^2 and 2 |tau|
    tau = np.abs(np.concatenate((dz[:, 0], dy))) / abs(x) + tau_offset
    parts = np.empty((3, rows + cols))
    np.square(t + tau, out=parts[0])
    np.square(t - tau, out=parts[1])
    np.multiply(2.0, np.abs(tau), out=parts[2])
    # the same three over the (2, rows, cols) stack of V and H
    plus, minus, numerator = terms = np.empty((3, 2, rows, cols))
    terms[:, 0] = parts[:, :rows, None]
    terms[:, 1] = parts[:, None, rows:]
    c2 = cos_e * cos_e
    terms[:2] += c2
    amplitudes = np.multiply(plus, minus)
    np.sqrt(amplitudes, out=amplitudes)
    numerator *= cos_e
    return np.divide(numerator, amplitudes, out=amplitudes)


def random_phase_chunks(out: np.ndarray, seeds: range):
    """Write the random scheme's phase draws of ``seeds``, a range of
    consecutive non-negative seeds, in turns (theta / 2 pi) into ``out``,
    shape (k, 2, rows, cols), k at a time: yields out[:j] once it holds the
    next j <= k draws.  The seeding contract: draw d of a row is that of
    seed phase_seed + d, and 2 pi times its turns has the bits of
    ``default_rng(seed).uniform(0, 2 pi, (2, rows, cols))``, V then H,
    each row-major: the doubles of the PCG64 stream that
    ``SeedSequence(seed)`` seeds.  That seeding (SeedSequence's hash, then
    PCG64's ``pcg_setseq_128_srandom_r``) runs over ``_SEED_BLOCK`` seeds
    at once in numpy's uint32 arithmetic, and one reused generator is set
    to each seed's state as its draw is written.  ValueError for seeds
    that are not consecutive and non-negative.
    """
    if seeds.step != 1 or seeds.start < 0:
        raise ValueError(f"phase seeds must be consecutive and non-negative, got {seeds}")
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    states = _pcg64_states(seeds.start, seeds.stop)
    for start in range(0, len(seeds), len(out)):
        chunk = out[: min(len(out), len(seeds) - start)]
        for draw in chunk:
            state, inc = next(states)
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            generator.random(out=draw)
        yield chunk


def _pcg64_states(first: int, stop: int):
    """PCG64's (state, inc) as seeded from ``SeedSequence(seed)``, for each
    seed of [first, stop), hashed ``_SEED_BLOCK`` seeds of one word count
    at a time: the 128-bit halves of its ``generate_state(4, uint64)`` are
    initstate and initseq, inc = 2 initseq + 1, and two LCG steps from 0
    add initstate between them (O'Neill, PCG, HMC-CS-2014-0905)."""
    while first < stop:
        # a seed of w >= 4 words mixes words 5..w into the pool after it is hashed
        words = max(4, -(-first.bit_length() // 32))
        end = min(stop, first + _SEED_BLOCK, 1 << 32 * words)
        for row in _seed_states(first, end - first, words):
            s0, s1, i0, i1 = row.tolist()
            inc = (i0 << 65 | i1 << 1 | 1) & _MASK128
            yield ((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _MASK128, inc
        first = end


def _seed_states(first: int, count: int, words: int) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of the ``count``
    seeds from ``first``, each ``words`` >= 4 little-endian 32-bit words
    long (0 words past a seed's own), shape (count, 4).  Only the lowest
    word can carry, so the higher ones are those of first >> 32 or one
    more.  Array arithmetic wraps without a floating-point error."""
    low = np.arange(count, dtype=np.uint64)
    low += first & _MASK32
    carry = (low >> 32).astype(bool)
    high = first >> 32
    entropy = [low.astype(np.uint32)]
    for w in range(words - 1):
        below, above = (np.uint32(h >> 32 * w & _MASK32) for h in (high, high + 1))
        entropy.append(np.where(carry, above, below))
    keys = pairwise(_powers(_INIT_A, _MULT_A))
    pool = [_hash(word, keys) for word in entropy[:4]]
    for source in range(4):
        for target in range(4):
            if target != source:
                pool[target] = _mix(pool[target], _hash(pool[source], keys))
    for word in entropy[4:]:
        for target in range(4):
            pool[target] = _mix(pool[target], _hash(word, keys))
    state = np.empty((count, 8), dtype="<u4")
    keys = pairwise(_powers(_INIT_B, _MULT_B))
    for i in range(8):
        state[:, i] = _hash(pool[i % 4], keys)
    return state.view("<u8")


def _powers(base: int, factor: int):
    """base, base factor, base factor^2, ... mod 2^32."""
    while True:
        yield base
        base = base * factor & _MASK32


def _hash(value: np.ndarray, keys) -> np.ndarray:
    """SeedSequence's hash of uint32 ``value`` under the next pair of
    ``keys``, consecutive powers (k, k m): x = (value ^ k) (k m), then
    x ^ (x >> 16)."""
    xor, multiplier = next(keys)
    value = value ^ xor
    value *= multiplier
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 words: r = L x - R y, r ^ (r >> 16)."""
    result = x * _MIX_L
    result -= y * _MIX_R
    result ^= result >> 16
    return result
