"""Counter-based random number generation for reproducible parallel Monte Carlo.

Every random draw is a pure function of (seed, domain, path index, step index,
draw index), so ensembles are bit-reproducible regardless of how the path loop
is scheduled or batched, and a path can be extended in time without re-drawing
its past.

Generator: numpy's C bit generator ``np.random.Philox``, Philox4x64-10 (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3"), read as raw 64-bit
words.  A uniform is the top 53 bits of one word shifted into the open
interval (0, 1); a normal is the inverse normal CDF (``scipy.special.ndtri``)
of one uniform, so every draw takes exactly one word.

Keying and layout: paths are cut into blocks of 4096, one generator per
(seed, domain, step, block).  Its key is [splitmix64(seed) ^ domain * golden,
step] and its counter starts at [0, 0, 0, block].  Draw j of n for path p at
a step is word (p mod 4096) * n + j of block p // 4096, so a subset or an
offset range of paths draws only the prefix of each block up to its largest
word.

Version caveat: numpy keeps bit-generator streams fixed across versions
(NEP 19), but ``ndtri`` is scipy's and may move in the last bits with scipy.
``STREAM`` names this layout in every run's manifest next to both versions,
and the stream is pinned bit for bit by known-output digests in
``tests/test_pins.py``, which name the versions they were made at.
"""

from __future__ import annotations

import numpy as np

STREAM = "philox4x64-ndtri/1"

_U64 = np.uint64
_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK_BITS = 12  # 4096 paths per generator
_BLOCK_MASK = (1 << _BLOCK_BITS) - 1

# Stream domains keep independent noise sources from colliding.
DOMAIN_BROWNIAN = 0
DOMAIN_DRIVER = 1
DOMAIN_DRIVER_INIT = 2


def _splitmix64(z: int) -> int:
    # key whitening in python ints so scalar uint64 overflow never warns
    z = (z + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _to_unit(u: np.ndarray) -> np.ndarray:
    # top 53 bits, shifted into the open interval (0, 1)
    return ((u >> _U64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def _unit_draws(seed: int, domain: int, paths: np.ndarray, step: int, n: int) -> np.ndarray:
    """Uniforms of shape (len(paths), n): row i holds path paths[i]'s n draws at ``step``.

    Shared by :func:`normals` and :func:`uniforms`, so a wrapper of either
    public function sees only that function's own calls.
    """
    paths = np.asarray(paths, dtype=np.uint64)
    out = np.empty((paths.size, n))
    if out.size == 0:
        return out
    key = np.array([_splitmix64(seed & _M64) ^ ((domain * _GOLDEN) & _M64), step & _M64],
                   dtype=np.uint64)
    blocks = paths >> _U64(_BLOCK_BITS)
    # a range of paths takes one run of words from each block it meets; any
    # other array is grouped by block with a stable sort and gathered.  Every
    # caller in the package passes a range, and the gather alone measured
    # 1.88 against 1.22 ms per 3e4 x 2 call (2-CPU x86), so both are kept
    in_range = np.all(paths[1:] - paths[:-1] == _U64(1))
    order = None if in_range else np.argsort(blocks, kind="stable")
    by_block = blocks if order is None else blocks[order]
    cuts = [0, *(np.flatnonzero(by_block[1:] != by_block[:-1]) + 1), paths.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        bits = np.random.Philox(key=key, counter=[0, 0, 0, int(by_block[lo])])
        if order is None:
            first, last = int(paths[lo]) & _BLOCK_MASK, int(paths[hi - 1]) & _BLOCK_MASK
            out[lo:hi] = _to_unit(bits.random_raw((last + 1) * n)[first * n:]).reshape(-1, n)
        else:
            rows = order[lo:hi]
            off = (paths[rows] & _U64(_BLOCK_MASK)).astype(np.intp)
            words = bits.random_raw((int(off.max()) + 1) * n).reshape(-1, n)
            out[rows] = _to_unit(words[off])
    return out


def normals(seed: int, domain: int, paths: np.ndarray, step: int, n: int) -> np.ndarray:
    """Standard normal draws of shape (len(paths), n) for one time step.

    Draw (p, step, j) is independent of every other (path, step, draw) triple:
    the inverse normal CDF of that draw's uniform.
    """
    # imported on first use, after the package's own scipy imports: importing
    # it at the top reorders them and measured 7 ms more start-up (2-CPU x86)
    from scipy.special import ndtri

    z = _unit_draws(seed, domain, paths, step, n)
    return ndtri(z, out=z)


def uniforms(seed: int, domain: int, paths: np.ndarray, step: int, n: int) -> np.ndarray:
    """Uniform (0,1) draws of shape (len(paths), n) for one time step."""
    return _unit_draws(seed, domain, paths, step, n)
