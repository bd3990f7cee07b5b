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

Keying and layout: the generator of (seed, domain, step) is keyed
[splitmix64(seed) ^ domain * golden, step].  Paths are cut into blocks of
4096, and block b's words start from counter [0, 0, 0, b].  Draw j of n for
path p at a step is word (p mod 4096) * n + j of block p // 4096.  Draws are
taken by range of consecutive paths: a call builds one generator and re-keys
it for each block the range meets by setting its counter, then reads that
block's words only up to the range's last path in it.

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
_BLOCK = 4096  # paths per block of words

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


def _unit_draws(seed: int, domain: int, paths: range, step: int, n: int) -> np.ndarray:
    """Uniforms of shape (len(paths), n): row i holds path paths[i]'s n draws at ``step``.

    Shared by :func:`normals` and :func:`uniforms`, so a wrapper of either
    public function sees only that function's own calls.
    """
    if not isinstance(paths, range) or paths.step != 1:
        raise TypeError(f"paths must be a range of consecutive path indices, not {paths!r}")
    out = np.empty((len(paths), n))
    if out.size == 0:
        return out
    # one generator per call, so concurrent calls share no state; building
    # one per block would also draw an unused OS-entropy seed each time
    key = np.array([_splitmix64(seed & _M64) ^ ((domain * _GOLDEN) & _M64), step & _M64],
                   dtype=np.uint64)
    bits = np.random.Philox(key=key)
    state = bits.state
    for block in range(paths.start // _BLOCK, (paths.stop - 1) // _BLOCK + 1):
        base = block * _BLOCK
        lo, hi = max(paths.start, base), min(paths.stop, base + _BLOCK)
        state["state"]["counter"][3] = block
        bits.state = state
        words = bits.random_raw((hi - base) * n)[(lo - base) * n:]
        out[lo - paths.start:hi - paths.start] = _to_unit(words).reshape(-1, n)
    return out


def normals(seed: int, domain: int, paths: range, step: int, n: int) -> np.ndarray:
    """Standard normal draws of shape (len(paths), n) for one time step.

    Draw (p, step, j) is independent of every other (path, step, draw) triple:
    the inverse normal CDF of that draw's uniform.
    """
    # imported on first use, after the package's own scipy imports: importing
    # it at the top reorders them and measured 7 ms more start-up (2-CPU x86)
    from scipy.special import ndtri

    z = _unit_draws(seed, domain, paths, step, n)
    return ndtri(z, out=z)


def uniforms(seed: int, domain: int, paths: range, step: int, n: int) -> np.ndarray:
    """Uniform (0,1) draws of shape (len(paths), n) for one time step."""
    return _unit_draws(seed, domain, paths, step, n)
