"""Half-space geometry, cycloidal and parabolic distances, sampled Hölder seminorms.

State space is the closed half-space {x in R^d : x_d >= 0}; the last coordinate
is the degenerate direction.  The cycloidal distance

    s(P1, P2) = sum_i |x_i^1 - x_i^2|
                / (sqrt(x_d^1) + sqrt(x_d^2) + sqrt(sum_{i<d} |x_i^1 - x_i^2|))
              + sqrt(|t1 - t2|)

measures space-time separation in the scale natural to a sqrt(x_d) diffusion
degeneracy; the parabolic distance rho(P1, P2) = sum_i |x_i^1 - x_i^2| +
sqrt(|t1 - t2|) is the usual one.  The two are equivalent on slabs
x_d in [y0, y1] with 0 < y0 < y1 but not up to the boundary.

Hölder seminorms over a region are uncomputable exactly, so they are
estimated by maxima over indexed quasi-random point pairs: pair i
is a pure function of (seed, i), which makes estimates deterministic, monotone
in the pair budget, and safe to evaluate concurrently.  One scan draws and
evaluates each batch of pairs once and scores every column of a field at every
exponent from it, so a column's estimate is the one it would get alone: in a
batch a column takes its first maximal ratio |u1 - u2| / dist^alpha, a later
batch replaces it only with a strictly larger one, and its witness pair is
None while its seminorm is 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng

# Sampling domains for this module (distinct from simulation noise domains).
_DOMAIN_PAIR_U = 101
_DOMAIN_PAIR_G = 102

# Fraction of the x_d extent treated as the near-boundary stratum, and the
# share of the pair budget spent there.
_BOUNDARY_STRATUM = 0.1
_MIN_PAIR_SCALE = 1e-4

Field = Callable[[np.ndarray, np.ndarray], np.ndarray]
"""Scalar field over space-time: (ts of shape (n,), xs of shape (n, d)) -> (n,)."""


@dataclass(frozen=True)
class SpaceTimePoint:
    """A point (t, x) with x in the closed half-space (x_d >= 0)."""

    t: float
    x: tuple[float, ...]

    def __post_init__(self) -> None:
        x = tuple(float(v) for v in self.x)
        object.__setattr__(self, "x", x)
        if len(x) < 1:
            raise ValueError("spatial dimension must be >= 1")
        if x[-1] < 0.0:
            raise ValueError(f"x_d = {x[-1]} lies below the half-space boundary")
        if self.t < 0.0:
            raise ValueError("time must be nonnegative")

    @property
    def d(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class Region:
    """Space-time box [t0, t1] x prod_i [lower_i, upper_i], lower_d >= 0."""

    t0: float
    t1: float
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) != len(upper) or len(lower) < 1:
            raise ValueError("lower/upper bounds must share a dimension >= 1")
        if self.t0 > self.t1:
            raise ValueError("need t0 <= t1")
        if any(lo > hi for lo, hi in zip(lower, upper)):
            raise ValueError("need lower <= upper per coordinate")
        if lower[-1] < 0.0:
            raise ValueError("region must lie in the closed half-space (lower_d >= 0)")

    @property
    def d(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class HolderEstimate:
    """Sampled Hölder seminorm and sup-norm over a region.

    Both numbers are maxima over sampled admissible pairs/points, hence lower
    bounds for the true suprema.  ``pairs`` counts the admissible pairs that
    were actually scored; zero means the admissible set was empty and the
    estimate is vacuous.
    """

    seminorm: float
    sup_norm: float
    pairs: int
    metric: str
    alpha: float

    def to_json(self) -> dict:
        return asdict(self)


def cycloidal_distance_arrays(
    t1: np.ndarray, x1: np.ndarray, t2: np.ndarray, x2: np.ndarray
) -> np.ndarray:
    """Vectorized cycloidal distance for batches of points (x arrays (n, d))."""
    if np.any(x1[..., -1] < 0.0) or np.any(x2[..., -1] < 0.0):
        raise ValueError("cycloidal distance requires x_d >= 0")
    diff = np.abs(x1 - x2)
    num = diff.sum(axis=-1)
    tangential = diff[..., :-1].sum(axis=-1) if x1.shape[-1] > 1 else np.zeros_like(num)
    den = np.sqrt(x1[..., -1]) + np.sqrt(x2[..., -1]) + np.sqrt(tangential)
    spatial = np.where(num > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return spatial + np.sqrt(np.abs(np.asarray(t1) - np.asarray(t2)))


def parabolic_distance_arrays(
    t1: np.ndarray, x1: np.ndarray, t2: np.ndarray, x2: np.ndarray
) -> np.ndarray:
    diff = np.abs(x1 - x2).sum(axis=-1)
    return diff + np.sqrt(np.abs(np.asarray(t1) - np.asarray(t2)))


_METRICS = {
    "cycloidal": cycloidal_distance_arrays,
    "parabolic": parabolic_distance_arrays,
}


def region_points(
    region: Region, u: np.ndarray, stratify_from: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Map uniforms u of shape (n, >= d + 1) to points (ts, xs) of the region.

    x_i = lower_i + u_i (upper_i - lower_i) from the first d columns and
    t = t0 + u_d (t1 - t0) from column d.  With ``stratify_from`` set, row j
    is sample stratify_from + j, and the even-indexed samples are confined to
    the near-boundary stratum x_d < lower_d + 0.1 * slab height, where the
    degeneracy lives.
    """
    d = region.d
    lower = np.asarray(region.lower)
    width = np.asarray(region.upper) - lower
    xs = lower + u[:, :d] * width
    if stratify_from is not None:
        near = (np.arange(stratify_from, stratify_from + u.shape[0]) % 2) == 0
        xd_cap = lower[-1] + _BOUNDARY_STRATUM * width[-1]
        xs[near, -1] = lower[-1] + u[near, d - 1] * (xd_cap - lower[-1])
    ts = region.t0 + u[:, d] * (region.t1 - region.t0)
    return ts, xs


def _sample_pair_batch(
    region: Region, seed: int, index0: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pairs (P1, P2) for indices [index0, index0+count); pair i depends only on (seed, i).

    P1 is stratified as in :func:`region_points`.  P2 is P1
    displaced by a log-uniform scale along a random direction (time displaced
    quadratically so sqrt(|dt|) matches the spatial scale), then clipped back
    into the region.
    """
    d = region.d
    idx = range(index0, index0 + count)
    u = rng.uniforms(seed, _DOMAIN_PAIR_U, idx, 0, d + 2)
    g = rng.normals(seed, _DOMAIN_PAIR_G, idx, 0, d + 1)

    t1, x1 = region_points(region, u, stratify_from=index0)
    lower = np.asarray(region.lower)
    upper = np.asarray(region.upper)
    width = upper - lower
    diam = max(float(width.max(initial=0.0)), region.t1 - region.t0, 1e-12)
    scale = diam * np.exp(np.log(_MIN_PAIR_SCALE) + u[:, d + 1] * np.log(1.0 / _MIN_PAIR_SCALE))
    unit = g / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    x2 = x1 + scale[:, None] * unit[:, 1:]
    t2 = t1 + np.sign(unit[:, 0]) * (scale * unit[:, 0]) ** 2

    x2 = np.clip(x2, lower, upper)
    t2 = np.clip(t2, region.t0, region.t1)
    return t1, x1, t2, x2


def _holder_scan(
    field: Field,
    region: Region,
    alphas: Sequence[float],
    metric: str,
    pair_budget: int,
    seed: int,
) -> tuple[np.ndarray, float, int, list[list[dict | None]]]:
    """Seminorms (len(alphas), m) of an (n,) or (n, m) field, sup-norm, scored pairs, witnesses."""
    if not all(0.0 < alpha < 1.0 for alpha in alphas):
        raise ValueError("alpha must lie in (0, 1)")
    if pair_budget < 1:
        raise ValueError("pair_budget must be >= 1")
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    dist_fn = _METRICS[metric]

    sup_norm = 0.0
    scored = 0
    batch = 4096
    done = 0
    while done < pair_budget:
        count = min(batch, pair_budget - done)
        t1, x1, t2, x2 = _sample_pair_batch(region, seed, done, count)
        u1 = np.asarray(field(t1, x1), dtype=float).reshape(count, -1)
        u2 = np.asarray(field(t2, x2), dtype=float).reshape(count, -1)
        if done == 0:
            seminorms = np.zeros((len(alphas), u1.shape[1]))
            witnesses: list[list[dict | None]] = [[None] * u1.shape[1] for _ in alphas]
        sup_norm = max(sup_norm, float(np.abs(u1).max()), float(np.abs(u2).max()))
        dist = dist_fn(t1, x1, t2, x2)
        ok = (dist > 0.0) & (dist <= 1.0)
        scored += int(ok.sum())
        if np.any(ok):
            gap = np.abs(u1 - u2)
            for a, alpha in enumerate(alphas):
                ratios = gap / (np.where(ok, dist, 1.0) ** alpha)[:, None]
                ratios[~ok] = -np.inf
                top = ratios.max(axis=0)
                for j in np.flatnonzero(top > seminorms[a]):
                    k = int(np.argmax(ratios[:, j]))
                    seminorms[a, j] = top[j]
                    witnesses[a][j] = {
                        "p1": {"t": float(t1[k]), "x": [float(v) for v in x1[k]]},
                        "p2": {"t": float(t2[k]), "x": [float(v) for v in x2[k]]},
                        "distance": float(dist[k]),
                    }
        done += count
    return seminorms, sup_norm, scored, witnesses


def holder_seminorm_estimate(
    field: Field,
    region: Region,
    alpha: float,
    metric: str,
    pair_budget: int,
    seed: int,
) -> HolderEstimate:
    """Sampled Hölder seminorm sup |u(P1)-u(P2)| / dist(P1,P2)^alpha over the region.

    Only pairs with dist <= 1 are scored, so the estimate targets the local
    Hölder condition rather than an unrestricted seminorm.  Deterministic given
    the seed; nondecreasing in ``pair_budget`` for a fixed seed.
    """
    seminorms, sup_norm, pairs, _ = _holder_scan(field, region, [alpha], metric, pair_budget, seed)
    return HolderEstimate(seminorm=float(seminorms[0, 0]), sup_norm=sup_norm, pairs=pairs,
                          metric=metric, alpha=alpha)
