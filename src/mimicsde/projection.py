"""Conditional-expectation coefficients and marginal-law comparison.

Given an Itô ensemble with its driver sums per cell, the mimicking coefficients are

    b(t, x)     = E[ beta(t)        | X(t) = x ]
    D(t, x)     = E[ xi(t) xi*(t)   | X(t) = x ]     (D = x_d * a)

estimated by box-cell means on a space lattice at selected time nodes,
which :func:`.sdesim.simulate_ito_process` sums as it steps.  The
product D is the stable object near the boundary; a is derived by division
away from x_d = 0 and by linear extrapolation onto the boundary layer, then
eigenvalue-floored so the rebuilt model is usable by the simulator and the
PDE solver.  Cells with too little occupancy are masked, never silently
interpolated from: the fill policy copies the nearest unmasked cell into
them, in place, and records the distance, and the mask, recomputed from the
occupancy, still marks them in a saved and reloaded lattice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .coeffs import CoefficientModel, LatticeField, LatticeInterpolator, RegularityBudget
from .sdesim import PathEnsemble, write_csv

_DELTA_FLOOR_SCALE = 1e-6  # eigenvalue floor of a built model's a, relative to trace / d
_N_DIRECTIONS = 16  # random directions of the sliced Wasserstein-1 distance


@dataclass(frozen=True)
class BinningSpec:
    """Lattice and occupancy policy for the conditional-expectation estimate."""

    times: tuple[float, ...]
    edges: tuple  # one strictly increasing edge array per coordinate; x_d edges start at 0
    min_count: float = 20.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(self.times))
        if len(self.times) < 1:
            raise ValueError("need at least one time node")
        edges = tuple(np.asarray(e, dtype=float) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        for e in edges:
            if e.ndim != 1 or e.size < 2 or np.any(np.diff(e) <= 0):
                raise ValueError("each edge array must be strictly increasing with >= 2 entries")
        if edges[-1][0] != 0.0:
            raise ValueError("x_d edges must start at 0")
        if not self.min_count > 0:
            raise ValueError("min_count must be positive, or empty cells go unmasked")

    @property
    def d(self) -> int:
        return len(self.edges)

    @property
    def centers(self) -> tuple[np.ndarray, ...]:
        return tuple(0.5 * (e[:-1] + e[1:]) for e in self.edges)

    @property
    def cell_shape(self) -> tuple[int, ...]:
        return tuple(e.size - 1 for e in self.edges)

    def cell_index(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which points of ``x`` (n, d) lie in the lattice, and the C-order cells of those."""
        cells = self.cell_shape
        idx = np.zeros(x.shape[0], dtype=np.int64)
        inside = np.ones(x.shape[0], dtype=bool)
        for j in range(self.d):
            cj = np.searchsorted(self.edges[j], x[:, j], side="right") - 1
            inside &= (cj >= 0) & (cj < cells[j])
            idx = idx * cells[j] + np.clip(cj, 0, cells[j] - 1)
        return inside, idx[inside]


@dataclass
class MimickedCoefficients:
    """Gridded estimates of b and D = x_d * a with occupancy accounting.

    ``mask`` is True where occupancy fell below the spec minimum; masked
    values are NaN until a fill policy replaces them.  ``clip`` and
    ``fill_distance`` are populated by :func:`build_mimicking_model`.
    """

    spec: BinningSpec
    b_hat: np.ndarray       # (K, *cells, d)
    d_hat: np.ndarray       # (K, *cells, d, d), symmetric
    occupancy: np.ndarray   # (K, *cells)
    mask: np.ndarray        # (K, *cells) bool
    n_paths: int
    clip: np.ndarray = field(default=None)
    fill_distance: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        if self.clip is None:
            self.clip = np.zeros_like(self.occupancy)
        if self.fill_distance is None:
            self.fill_distance = np.zeros_like(self.occupancy)

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def masked_fraction(self) -> float:
        return float(self.mask.mean())

    @property
    def outside_fraction(self) -> np.ndarray:
        """Per binning time, the fraction of the paths that fell outside the lattice."""
        return 1.0 - self.occupancy.reshape(len(self.spec.times), -1).sum(axis=1) / self.n_paths


def estimate_mimicking_coefficients(ens: PathEnsemble) -> MimickedCoefficients:
    """Box-cell means of the driver sums of ``ens``, per binning time of their spec.

    A cell's b-hat and D-hat average beta and xi xi* over the paths in it, so the
    tower property holds exactly over full coverage.  D-hat is symmetrized; cells
    under the occupancy minimum are masked with NaN values.
    """
    sums = ens.drivers
    if sums is None:
        raise ValueError("ensemble carries no driver sums; simulate it with "
                         "simulate_ito_process")
    spec, occ = sums.spec, sums.occupancy
    mask = occ < spec.min_count
    good = ~mask
    b_hat = np.full(sums.beta.shape, np.nan)
    d_hat = np.full(sums.xi2.shape, np.nan)
    b_hat[good] = sums.beta[good] / occ[good, None]
    d_hat[good] = sums.xi2[good] / occ[good, None, None]
    d_hat = 0.5 * (d_hat + np.swapaxes(d_hat, -1, -2))

    shape = (len(spec.times), *spec.cell_shape)
    return MimickedCoefficients(
        spec=spec,
        b_hat=b_hat.reshape(shape + (spec.d,)),
        d_hat=d_hat.reshape(shape + (spec.d, spec.d)),
        occupancy=occ.reshape(shape),
        mask=mask.reshape(shape),
        n_paths=ens.n_paths,
    )


def _fill_masked(mc: MimickedCoefficients) -> None:
    """Replace masked cells by their nearest unmasked neighbor (same time layer)."""
    d = mc.d
    cells = mc.spec.cell_shape
    n_cells = int(np.prod(cells))
    centers = np.stack(np.meshgrid(*mc.spec.centers, indexing="ij"), axis=-1).reshape(n_cells, d)
    for kt in range(len(mc.spec.times)):
        mask = mc.mask[kt].reshape(n_cells)
        if not mask.any():
            continue
        if mask.all():
            raise ValueError(f"every cell masked at time index {kt}; cannot fill")
        tree = cKDTree(centers[~mask])
        dist, nearest = tree.query(centers[mask])
        src = np.where(~mask)[0][nearest]
        dst = np.where(mask)[0]
        bf = mc.b_hat[kt].reshape(n_cells, d)
        df = mc.d_hat[kt].reshape(n_cells, d, d)
        bf[dst] = bf[src]
        df[dst] = df[src]
        mc.fill_distance[kt].reshape(n_cells)[dst] = dist


def build_mimicking_model(mc: MimickedCoefficients,
                          max_masked_fraction: float = 0.5) -> CoefficientModel:
    """Turn gridded (b, D) estimates into an evaluable coefficient model.

    Masked cells of ``mc`` are filled in place first (nearest unmasked
    cell).  a = D / x_d at cell centers (all have x_d > 0); the boundary
    layer a(., x_d = 0) is linearly extrapolated from the two nearest center
    layers.  Each node's a is made positive semi-definite by flooring
    eigenvalues at 1e-6 * trace/d, and the total eigenvalue shift per node
    is recorded in ``mc.clip``, a model-quality metric that is reported, not
    gated.  The model's ``a`` and ``b`` are two :class:`LatticeField` views of
    one :class:`LatticeInterpolator` over (spec.times, cell centers with the
    x_d = 0 layer prepended), whose table stacks the d * d components of a
    and then the d of b: multilinear in (t, x) with edge clamping, a shared
    time bracketed once per call, so the layer times are the model's
    ``knots`` (one layer: constant in t).  Each view alone interpolates only
    its own rows; an Euler step interpolates both in one pass.  The diffusion evaluator is sqrt(x_d^+) * Cholesky(a).
    """
    if mc.masked_fraction > max_masked_fraction:
        raise ValueError(
            f"masked fraction {mc.masked_fraction:.2f} exceeds cap {max_masked_fraction:.2f}")
    _fill_masked(mc)

    d = mc.d
    k_times = len(mc.spec.times)
    centers = mc.spec.centers
    xd_centers = centers[-1]
    if xd_centers.size < 2:
        raise ValueError("need at least two x_d layers to extrapolate onto the boundary")

    a_cells = mc.d_hat / xd_centers.reshape((1,) * 1 + (1,) * (d - 1) + (-1, 1, 1))
    b_cells = mc.b_hat

    # extrapolate the x_d = 0 layer from the two nearest center layers
    c1, c2 = xd_centers[0], xd_centers[1]
    w = c1 / (c2 - c1)
    a0 = a_cells[..., 0, :, :] * (1.0 + w) - a_cells[..., 1, :, :] * w
    b0 = b_cells[..., 0, :] * (1.0 + w) - b_cells[..., 1, :] * w
    a_grid = np.concatenate([a0[..., None, :, :], a_cells], axis=-3)
    b_grid = np.concatenate([b0[..., None, :], b_cells], axis=-2)

    # eigenvalue floor, recorded per node
    flat = a_grid.reshape(-1, d, d)
    flat = 0.5 * (flat + np.swapaxes(flat, -1, -2))
    eigval, eigvec = np.linalg.eigh(flat)
    trace = eigval.sum(axis=1)
    ref = max(float(np.mean(np.maximum(trace, 0.0))), 1e-300)
    floor = _DELTA_FLOOR_SCALE * np.maximum(trace, 0.1 * ref) / d
    clipped = np.maximum(eigval, floor[:, None])
    clip_mag = (clipped - eigval).sum(axis=1)
    a_grid = np.einsum("nik,nk,njk->nij", eigvec, clipped, eigvec).reshape(a_grid.shape)
    clip_nodes = clip_mag.reshape((k_times,) + tuple(c.size for c in centers[:-1]) + (xd_centers.size + 1,))
    mc.clip = clip_nodes[..., 1:]  # cell layers only; layer 0 is synthetic

    axes = list(centers[:-1]) + [np.concatenate([[0.0], xd_centers])]
    times = np.asarray(mc.spec.times, dtype=float)
    lattice = LatticeInterpolator(
        times, axes, np.concatenate([a_grid.reshape(b_grid.shape[:-1] + (d * d,)), b_grid], -1))
    a_field = LatticeField(lattice, slice(0, d * d), (d, d))
    b_field = LatticeField(lattice, slice(d * d, None), (d,))

    eig_min = float(np.linalg.eigvalsh(a_grid.reshape(-1, d, d)).min())
    nu = float(np.min(b_grid[..., 0, -1]))  # drift component d on the x_d = 0 layer
    budget = RegularityBudget(
        delta=max(0.5 * eig_min, 1e-12),
        K=float(max(np.abs(a_grid).max(), np.abs(b_grid).max(), 1.0) * 4.0),
        nu=max(0.8 * nu, 1e-12),
        alpha=0.5,
    )

    def c_eval(t, x):
        return np.zeros(np.asarray(x).shape[0])

    return CoefficientModel(d=d, a=a_field, b=b_field, c=c_eval, budget=budget, knots=times)


@dataclass(frozen=True)
class MarginalComparison:
    """Per-time marginal agreement: coordinate KS, sliced W1, test-function gaps."""

    entries: tuple[dict, ...]
    thresholds: dict

    @property
    def passed(self) -> bool:
        return all(e["passed"] for e in self.entries)

    @property
    def max_ks(self) -> float:
        return max(max(e["ks"]) for e in self.entries)

    def to_json(self) -> dict:
        return {"passed": self.passed, "thresholds": self.thresholds,
                "entries": list(self.entries)}


def _merged_cdf_gap(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge two sorted samples; return the merge and F_a - F_b of their CDFs at its points.

    F counts the values <= a point (``searchsorted(..., 'right')``), so inside a
    run of equal values every point takes the count at the run's end.
    """
    if a.size == 0 or b.size == 0 or not np.isfinite([a[0], a[-1], b[0], b[-1]]).all():
        raise ValueError("marginal samples must be non-empty and finite")
    merged = np.concatenate((a, b))
    order = np.argsort(merged, kind="stable")  # one merge of the two sorted runs
    merged = merged[order]
    ends = np.flatnonzero(np.append(merged[1:] != merged[:-1], True))
    count_a = np.cumsum(order < a.size)[ends]
    lengths = np.diff(ends, prepend=-1)
    count_b = ends + 1 - count_a
    gap = count_a / a.size
    gap -= count_b / b.size
    return merged, np.repeat(gap, lengths)


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic of sorted samples: ``ks_2samp(a, b).statistic`` bit for bit."""
    gap = _merged_cdf_gap(a, b)[1]
    below, above = np.clip(-gap.min(), 0, 1), gap.max()
    return float(below if below > above else above)


def _w1(a: np.ndarray, b: np.ndarray) -> float:
    """Wasserstein-1 distance of sorted samples: ``wasserstein_distance(a, b)`` bit for bit."""
    merged, gap = _merged_cdf_gap(a, b)
    return float(np.vecdot(np.abs(gap[:-1]), np.diff(merged)))


def compare_marginals(
    ens_a: PathEnsemble,
    ens_b: PathEnsemble,
    times: Sequence[float],
    g_list: Sequence[tuple[str, Callable]] = (),
    seed: int = 0,
    thresholds: dict | None = None,
) -> MarginalComparison:
    """Empirical one-dimensional-marginal agreement at shared comparison times.

    Per time: per-coordinate two-sample KS, sliced Wasserstein-1 along 16
    seeded random directions, and |E[g(A)] - E[g(B)]| gaps in units of the
    pooled standard error.  Both ensembles must contain every comparison time
    as a stored node; an empty or non-finite sample there raises ``ValueError``.
    Each coordinate and projected sample is sorted once; KS and W1 from the
    merged CDFs equal scipy's ``ks_2samp`` and ``wasserstein_distance`` bit for bit.
    """
    thr = {"ks": 0.03, "gap_z": 3.0, "w1": None}
    if thresholds:
        thr.update(thresholds)
    d = ens_a.d
    if ens_b.d != d:
        raise ValueError("ensembles must share the state dimension")
    gen = np.random.default_rng(seed)
    dirs = gen.standard_normal((_N_DIRECTIONS, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    entries = []
    for t in times:
        xa = ens_a.states_at(t)
        xb = ens_b.states_at(t)
        ks = [_ks_statistic(np.sort(xa[:, j]), np.sort(xb[:, j])) for j in range(d)]
        w1 = float(np.mean([_w1(np.sort(xa @ u), np.sort(xb @ u)) for u in dirs]))
        gaps = []
        for name, g in g_list:
            ga = np.asarray(g(xa), dtype=float)
            gb = np.asarray(g(xb), dtype=float)
            gap = float(abs(ga.mean() - gb.mean()))
            se = float(np.sqrt(ga.var(ddof=1) / ga.size + gb.var(ddof=1) / gb.size))
            gaps.append({"g": name, "gap": gap, "pooled_se": se,
                         "z": gap / se if se > 0 else 0.0})
        passed = all(k <= thr["ks"] for k in ks)
        if thr["w1"] is not None:
            passed = passed and w1 <= thr["w1"]
        passed = passed and all(g["z"] <= thr["gap_z"] for g in gaps)
        entries.append({"t": float(t), "ks": ks, "sliced_w1": w1,
                        "gaps": gaps, "n_a": xa.shape[0], "n_b": xb.shape[0],
                        "passed": bool(passed)})
    return MarginalComparison(entries=tuple(entries), thresholds=thr)


def _mimicked_header(d: int) -> list[str]:
    return (["t_index"] + [f"cell_{j+1}" for j in range(d)]
            + [f"x_{j+1}" for j in range(d)] + ["occupancy"]
            + [f"b_{j+1}" for j in range(d)]
            + [f"D_{i+1}{j+1}" for i in range(d) for j in range(d)]
            + ["clip"])


def save_mimicked(mc: MimickedCoefficients, csv_path) -> None:
    """CSV of per-node estimates, one row per (t_index, cell) in C order, plus a JSON sidecar.

    Columns: ``t_index, cell_*`` (integers), ``x_*`` (the cell center), ``occupancy, b_*,
    D_*, clip``.  Masked estimates are written as ``mc`` holds them: ``nan`` as estimated,
    their nearest unmasked cell's values once :func:`build_mimicking_model` has filled
    them (the CLI saves after building).  The sidecar is ``<csv>.meta.json``.
    """
    d = mc.d
    index = np.indices((len(mc.spec.times), *mc.spec.cell_shape)).reshape(d + 1, -1)
    columns = [*index, *(c[i] for c, i in zip(mc.spec.centers, index[1:])),
               mc.occupancy.ravel(), *mc.b_hat.reshape(-1, d).T,
               *mc.d_hat.reshape(-1, d * d).T, mc.clip.ravel()]
    with open(csv_path, "w", newline="") as fh:
        write_csv(fh, _mimicked_header(d), [columns])
    meta = {
        "d": d,
        "times": [float(t) for t in mc.spec.times],
        "edges": [[float(v) for v in e] for e in mc.spec.edges],
        # the estimator is fixed; these keep the format of files already written
        "kernel": "box",
        "bandwidth": None,
        "bandwidths_used": np.zeros((len(mc.spec.times), d)).tolist(),
        "min_count": mc.spec.min_count,
        "n_paths": mc.n_paths,
    }
    with open(f"{csv_path}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_mimicked(csv_path) -> MimickedCoefficients:
    """Rebuild :class:`MimickedCoefficients` from the CSV and its sidecar
    ``<csv>.meta.json``, the pair :func:`save_mimicked` writes.

    The CSV must hold :func:`save_mimicked`'s header and exactly one row per (t_index, cell)
    of the sidecar's lattice, in any order, whose ``x_*`` columns are that cell's centre
    under the sidecar's edges; anything else raises ``ValueError``.
    """
    with open(f"{csv_path}.meta.json") as fh:
        meta = json.load(fh)
    if meta.get("kernel", "box") != "box":  # a kernel occupancy sums weights, not paths
        raise ValueError(f"{csv_path}: sidecar kernel {meta['kernel']!r} is not 'box'")
    spec = BinningSpec(**{k: meta[k] for k in ("times", "edges", "min_count")})
    d = spec.d
    shape = (len(spec.times), *spec.cell_shape)
    header = _mimicked_header(d)
    with open(csv_path) as fh:
        if fh.readline().rstrip("\n").split(",") != header:
            raise ValueError(f"{csv_path}: header is not {','.join(header)}")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    rows = rows[np.lexsort(rows[:, d::-1].T)]
    index = np.indices(shape).reshape(d + 1, -1)
    if rows.shape[1] != len(header) or not np.array_equal(rows[:, : d + 1], index.T):
        raise ValueError(f"{csv_path}: need one row of {len(header)} values per (t_index, cell) "
                         f"of the {shape} lattice; an index is missing, repeated or out of range")
    pos = 1 + 2 * d
    # save_mimicked writes the centres bit for bit, so they must match exactly
    centers = [c[i] for c, i in zip(spec.centers, index[1:])]
    if not np.array_equal(rows[:, d + 1 : pos], np.column_stack(centers)):
        raise ValueError(f"{csv_path}: the x_* columns are not the cell centres of the "
                         "sidecar's edges")
    # fresh C-contiguous arrays: the fill policy writes through reshape views
    occupancy = rows[:, pos].reshape(shape).copy()
    b_hat = rows[:, pos + 1 : pos + 1 + d].reshape(shape + (d,)).copy()
    d_hat = rows[:, pos + 1 + d : -1].reshape(shape + (d, d)).copy()
    clip = rows[:, -1].reshape(shape).copy()
    return MimickedCoefficients(
        spec=spec, b_hat=b_hat, d_hat=d_hat, occupancy=occupancy,
        mask=occupancy < spec.min_count,
        n_paths=int(meta.get("n_paths", 0)), clip=clip,
    )
