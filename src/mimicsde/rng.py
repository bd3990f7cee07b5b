"""Counter-based random number generation for reproducible parallel Monte Carlo.

Every random draw is a pure function of (seed, domain, path index, step index,
draw index), so ensembles are bit-reproducible regardless of how the path loop
is scheduled, and a path can be extended in time without re-drawing its past.
The generator is Philox2x64-10 (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3"), implemented directly on numpy uint64 arrays so a whole
vector of paths is advanced per call; the rounds run in place on buffers
reused across rounds.  The stream is pinned bit for bit by known-output
digests in ``tests/test_pins.py``.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_SHIFT32 = _U64(32)

# Philox2x64 multiplier; round keys advance by the golden-ratio Weyl constant.
_PHILOX_M = _U64(0xD2B74407B1CE6E93)
_M_LO = _PHILOX_M & _MASK32
_M_HI = _PHILOX_M >> _SHIFT32
_ROUNDS = 10

# Stream domains keep independent noise sources from colliding.
DOMAIN_BROWNIAN = 0
DOMAIN_DRIVER = 1
DOMAIN_DRIVER_INIT = 2


_M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    # key whitening in python ints so scalar uint64 overflow never warns
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _key_schedule(seed: int, domain: int) -> list[np.uint64]:
    k = _splitmix64(seed & _M64) ^ ((domain * 0x9E3779B97F4A7C15) & _M64)
    return [_U64((k + r * 0x9E3779B97F4A7C15) & _M64) for r in range(_ROUNDS)]


def philox2x64(c0: np.ndarray, c1: np.ndarray, keys: list[np.uint64]) -> tuple[np.ndarray, np.ndarray]:
    """Philox2x64-10 block cipher on counter arrays (c0, c1) under a key schedule.

    Each round is (c0, c1) <- (hi(M c0) ^ k ^ c1, lo(M c0)); the 128-bit
    product is assembled from 32-bit limbs, on buffers reused across rounds.
    """
    x0 = np.array(c0, dtype=np.uint64)
    x1 = np.array(c1, dtype=np.uint64)
    a_lo = np.empty_like(x0)
    hi = np.empty_like(x0)
    t = np.empty_like(x0)
    s = np.empty_like(x0)
    for k in keys:
        np.bitwise_and(x0, _MASK32, out=a_lo)
        np.right_shift(x0, _SHIFT32, out=hi)             # a_hi
        np.multiply(x0, _PHILOX_M, out=x0)               # lo, the next c1
        np.multiply(a_lo, _M_LO, out=t)
        np.right_shift(t, _SHIFT32, out=t)               # carry of a_lo * m_lo
        np.multiply(hi, _M_LO, out=s)
        np.add(s, t, out=s)
        np.bitwise_and(s, _MASK32, out=t)
        np.right_shift(s, _SHIFT32, out=s)
        np.multiply(a_lo, _M_HI, out=a_lo)
        np.add(t, a_lo, out=t)
        np.right_shift(t, _SHIFT32, out=t)
        np.multiply(hi, _M_HI, out=hi)
        np.add(hi, s, out=hi)
        np.add(hi, t, out=hi)                            # hi(M c0)
        np.bitwise_xor(hi, k, out=hi)
        np.bitwise_xor(hi, x1, out=hi)
        x0, x1, hi = hi, x0, x1
    return x0, x1


def _to_unit(u: np.ndarray) -> np.ndarray:
    # top 53 bits, shifted into the open interval (0, 1)
    return ((u >> _U64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def counters(paths: np.ndarray, step: int, block: int, blocks_per_step: int) -> tuple[np.ndarray, np.ndarray]:
    c0 = paths.astype(np.uint64)
    c1 = np.full_like(c0, _U64(step) * _U64(blocks_per_step) + _U64(block))
    return c0, c1


def normals(seed: int, domain: int, paths: np.ndarray, step: int, n: int) -> np.ndarray:
    """Standard normal draws of shape (len(paths), n) for one time step.

    Draw (p, step, j) is independent of every other (path, step, draw) triple;
    Box-Muller turns each Philox block into two exact normals.
    """
    keys = _key_schedule(seed, domain)
    n_blocks = (n + 1) // 2
    out = np.empty((paths.shape[0], 2 * n_blocks))
    for j in range(n_blocks):
        c0, c1 = counters(paths, step, j, n_blocks)
        w0, w1 = philox2x64(c0, c1, keys)
        u1 = _to_unit(w0)
        u2 = _to_unit(w1)
        r = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out[:, 2 * j] = r * np.cos(angle)
        out[:, 2 * j + 1] = r * np.sin(angle)
    return out[:, :n]


def uniforms(seed: int, domain: int, paths: np.ndarray, step: int, n: int) -> np.ndarray:
    """Uniform (0,1) draws of shape (len(paths), n) for one time step."""
    keys = _key_schedule(seed, domain)
    n_blocks = (n + 1) // 2
    out = np.empty((paths.shape[0], 2 * n_blocks))
    for j in range(n_blocks):
        c0, c1 = counters(paths, step, j, n_blocks)
        w0, w1 = philox2x64(c0, c1, keys)
        out[:, 2 * j] = _to_unit(w0)
        out[:, 2 * j + 1] = _to_unit(w1)
    return out[:, :n]
