"""Finite differences for the boundary-degenerate Kolmogorov problems.

The marching equation is

    u_t = (1/2) x_d sum_ij a_ij u_{x_i x_j} + sum_i b_i u_{x_i} + c u - f

on a truncated box [-X', X']^{d-1} x [0, X_max].  The layer x_d = 0 is part of
the computational domain but carries *no* boundary data: every second-order
term vanishes there with its x_d weight, so the operator degenerates to
first-order transport, and the inward drift floor b_d > 0 means information
flows off the boundary into the domain.  The boundary layer is therefore
discretized with one-sided differences oriented inward, and the stencil never
reads a value below x_d = 0 — well-posedness without boundary conditions is
structural, not imposed.

Interior stencils: centered 3-point second differences (nonuniform-ready),
drift terms upwinded on the sign of b (which keeps I - dt*P an M-matrix in the
absence of cross terms), mixed derivatives by composed centered first
differences (a 9-point cross block).  The outer artificial boundaries close
with a vanishing second normal difference (linear extrapolation), which keeps
affine solutions exact.

Every step solves its linear system exactly, by one sparse LU (SuperLU).  The
unknowns are numbered once per grid in a nested-dissection order of the nodes
(George 1973, "Nested dissection of a regular finite element mesh"), in which
the LU of the stencil matrix fills far less than in SuperLU's default COLAMD
order; the order changes only the rounding of the solve, not the scheme.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sp_linalg

from .coeffs import CoefficientModel, LatticeInterpolator
from .geometry import SpaceTimePoint
from .sdesim import TimeGrid, simulate_sde

THETA = {"implicit_euler": 1.0, "crank_nicolson": 0.5}  # scheme -> implicit weight
SCHEMES = tuple(THETA)


@dataclass(frozen=True)
class Grid:
    """Space grid plus time step.  The x_d axis always contains the 0 layer."""

    dt: float
    axes: tuple

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        object.__setattr__(self, "axes", axes)
        for ax in axes:
            if ax.size < 3:
                raise ValueError("need at least 3 nodes per coordinate")
            if np.any(np.diff(ax) <= 0):
                raise ValueError("axes must be strictly increasing")
        if axes[-1][0] != 0.0:
            raise ValueError("the x_d axis must start at the boundary layer 0")

    @classmethod
    def build(
        cls,
        dt: float,
        x_prime_extent: float,
        x_max: float,
        counts: Sequence[int],
        xd_stretch: float = 1.0,
    ) -> "Grid":
        """Uniform x' axes on [-extent, extent]; x_d on [0, x_max], optionally
        refined toward 0 by the power mapping (j/n)^stretch."""
        counts = list(counts)
        axes = [np.linspace(-x_prime_extent, x_prime_extent, n) for n in counts[:-1]]
        n_d = counts[-1]
        j = np.arange(n_d) / (n_d - 1)
        axes.append(x_max * j**xd_stretch)
        return cls(dt=dt, axes=tuple(axes))

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def coarsen(self) -> "Grid":
        """Every-other-node subsampling (counts must be odd), dt doubled."""
        for ax in self.axes:
            if ax.size % 2 == 0:
                raise ValueError("coarsening by subsampling needs odd node counts")
        return Grid(dt=2.0 * self.dt, axes=tuple(ax[::2] for ax in self.axes))


def _diff_weights(ax: np.ndarray) -> dict[str, np.ndarray]:
    """Per-index nonuniform difference weights along one axis.

    Entries at indices lacking a neighbor are zero and must not be used.
    """
    n = ax.size
    hp = np.zeros(n)
    hm = np.zeros(n)
    hp[:-1] = np.diff(ax)
    hm[1:] = np.diff(ax)
    w2m = np.zeros(n)
    w2p = np.zeros(n)
    c1m = np.zeros(n)
    c10 = np.zeros(n)
    c1p = np.zeros(n)
    inner = slice(1, n - 1)
    hpi, hmi = hp[inner], hm[inner]
    w2m[inner] = 2.0 / (hmi * (hmi + hpi))
    w2p[inner] = 2.0 / (hpi * (hmi + hpi))
    c1m[inner] = -hpi / (hmi * (hmi + hpi))
    c1p[inner] = hmi / (hpi * (hmi + hpi))
    c10[inner] = (hpi - hmi) / (hpi * hmi)
    return {"hp": hp, "hm": hm, "w2m": w2m, "w20": -(w2m + w2p), "w2p": w2p,
            "c1m": c1m, "c10": c10, "c1p": c1p}


_ND_LEAF = 16  # boxes of at most this many nodes keep their natural order


def _dissection_order(shape: Sequence[int]) -> np.ndarray:
    """Grid (C-order) node indices in nested-dissection elimination order.

    The index box is bisected on its longest axis by a one-node-thick
    separator hyperplane, ordered after both halves; each half is dissected
    the same way down to boxes of at most ``_ND_LEAF`` nodes, which are
    ordered naturally.  The operator's stencil reaches one node along each
    axis, so it couples neither half to the other, and eliminating one half
    fills no entry of the other (only the outer closure rows reach two nodes).
    """
    parts = []

    def dissect(box: np.ndarray) -> None:
        if box.size <= _ND_LEAF:
            parts.append(box.ravel())
            return
        j = int(np.argmax(box.shape))
        mid = box.shape[j] // 2
        lo, sep, hi = np.split(box, [mid, mid + 1], axis=j)
        dissect(lo)
        dissect(hi)
        parts.append(sep.ravel())

    dissect(np.arange(int(np.prod(shape))).reshape(shape))
    return np.concatenate(parts)


class _Stencil:
    """Geometry-only assembly data shared across time steps.

    Node attributes (``index``, ``outer``, ``blayer``, ``full``) use grid
    numbering.  The linear systems use solver numbering: grid node g is
    unknown ``rank[g]``, and unknown p is grid node ``order[p]``.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        shape = grid.shape
        d = grid.d
        nn = grid.n_nodes
        self.nn = nn
        self.nodes = grid.nodes()
        self.strides = np.array(
            [int(np.prod(shape[j + 1:], dtype=np.int64)) for j in range(d)], dtype=np.int64)
        self.index = np.stack(np.unravel_index(np.arange(nn), shape))  # (d, nn)
        self.weights = [_diff_weights(ax) for ax in grid.axes]
        self.order = _dissection_order(shape)
        self.rank = np.empty(nn, dtype=np.int64)
        self.rank[self.order] = np.arange(nn)

        outer = np.zeros(nn, dtype=bool)
        for j in range(d - 1):
            outer |= (self.index[j] == 0) | (self.index[j] == shape[j] - 1)
        outer |= self.index[d - 1] == shape[d - 1] - 1
        blayer = (~outer) & (self.index[d - 1] == 0)
        self.outer = outer
        self.blayer = np.where(blayer)[0]
        self.full = np.where(~outer & ~blayer)[0]
        self.solver_outer = outer[self.order]

        # extrapolation rows: vanishing second normal difference along the
        # first outward axis, with nonuniform weights so affine data stay exact
        rows, cols, vals = [], [], []
        out_idx = np.where(outer)[0]
        remaining = out_idx
        for j in range(d):
            if remaining.size == 0:
                break
            ij = self.index[j][remaining]
            w = self.weights[j]
            at_lo = ij == 0
            if j < d - 1:
                sel = remaining[at_lo]
                if sel.size:
                    s = self.strides[j]
                    rows += [sel, sel, sel]
                    cols += [sel, sel + s, sel + 2 * s]
                    vals += [np.full(sel.size, w["w2m"][1]),
                             np.full(sel.size, w["w20"][1]),
                             np.full(sel.size, w["w2p"][1])]
            at_hi = ij == shape[j] - 1
            sel = remaining[at_hi]
            if sel.size:
                s = self.strides[j]
                n_j = shape[j]
                rows += [sel, sel, sel]
                cols += [sel, sel - s, sel - 2 * s]
                vals += [np.full(sel.size, w["w2p"][n_j - 2]),
                         np.full(sel.size, w["w20"][n_j - 2]),
                         np.full(sel.size, w["w2m"][n_j - 2])]
            handled = at_lo | at_hi if j < d - 1 else at_hi
            remaining = remaining[~handled]
        if remaining.size:
            raise AssertionError("unclosed outer nodes in stencil construction")
        self.outer_matrix = sparse.coo_matrix(
            (np.concatenate(vals),
             (self.rank[np.concatenate(rows)], self.rank[np.concatenate(cols)])),
            shape=(nn, nn)).tocsr()
        self.nonouter_diag = sparse.diags((~self.solver_outer).astype(float))


def _assemble_operator(model: CoefficientModel, t: float,
                       st: _Stencil) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Spatial operator P at time t in solver numbering, and b_d on the
    boundary-layer rows (``st.blayer``); rows at outer nodes of P are
    identically zero."""
    d = st.grid.d
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def emit(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    def upwind(sel: np.ndarray, bj: np.ndarray, j: int):
        ij = st.index[j][sel]
        w = st.weights[j]
        s = st.strides[j]
        pos = bj > 0
        if np.any(pos):
            r = sel[pos]
            hp = w["hp"][ij[pos]]
            emit(r, r, -bj[pos] / hp)
            emit(r, r + s, bj[pos] / hp)
        neg = bj < 0
        if np.any(neg):
            r = sel[neg]
            hm = w["hm"][ij[neg]]
            emit(r, r, bj[neg] / hm)
            emit(r, r - s, -bj[neg] / hm)

    # full-stencil nodes
    F = st.full
    if F.size:
        xf = st.nodes[F]
        av = np.asarray(model.a(t, xf), dtype=float)
        bv = np.asarray(model.b(t, xf), dtype=float)
        cv = np.asarray(model.c(t, xf), dtype=float)
        xd = xf[:, -1]
        emit(F, F, cv)
        for j in range(d):
            ij = st.index[j][F]
            w = st.weights[j]
            s = st.strides[j]
            coef2 = 0.5 * xd * av[:, j, j]
            emit(F, F - s, coef2 * w["w2m"][ij])
            emit(F, F, coef2 * w["w20"][ij])
            emit(F, F + s, coef2 * w["w2p"][ij])
            upwind(F, bv[:, j], j)
        # mixed derivatives: sign-dependent 7-point cross stencil built from
        # one-sided corner operators (exact on quadratics); choosing the
        # corner pair by the sign of the coefficient keeps every off-diagonal
        # entry nonnegative whenever the axis terms dominate the cross term
        for i in range(d):
            for j in range(i + 1, d):
                coefm = xd * av[:, i, j]
                if not np.any(coefm):
                    continue
                ii = st.index[i][F]
                jj = st.index[j][F]
                wi = st.weights[i]
                wj = st.weights[j]
                si = st.strides[i]
                sj = st.strides[j]
                hip, him = wi["hp"][ii], wi["hm"][ii]
                hjp, hjm = wj["hp"][jj], wj["hm"][jj]
                for sign, sj_dir in ((coefm >= 0, 1), (coefm < 0, -1)):
                    sel = np.where(sign & (coefm != 0))[0]
                    if sel.size == 0:
                        continue
                    r = F[sel]
                    cval = np.abs(coefm[sel])
                    hj1 = hjp[sel] if sj_dir == 1 else hjm[sel]
                    hj2 = hjm[sel] if sj_dir == 1 else hjp[sel]
                    w1 = 0.5 / (hip[sel] * hj1)  # corner (+e_i, sj_dir*e_j)
                    w2 = 0.5 / (him[sel] * hj2)  # corner (-e_i, -sj_dir*e_j)
                    emit(r, r + si + sj_dir * sj, cval * w1)
                    emit(r, r - si - sj_dir * sj, cval * w2)
                    emit(r, r + si, -cval * w1)
                    emit(r, r + sj_dir * sj, -cval * w1)
                    emit(r, r - si, -cval * w2)
                    emit(r, r - sj_dir * sj, -cval * w2)
                    emit(r, r, cval * (w1 + w2))

    # degenerate boundary layer: first-order transport, one-sided inward in x_d
    # (never empty, since every axis has at least 3 nodes)
    B = st.blayer
    xb = st.nodes[B]
    bv = np.asarray(model.b(t, xb), dtype=float)
    cv = np.asarray(model.c(t, xb), dtype=float)
    emit(B, B, cv)
    s = st.strides[d - 1]
    hp0 = st.weights[d - 1]["hp"][0]
    bd = bv[:, -1]
    emit(B, B, -bd / hp0)
    emit(B, B + s, bd / hp0)
    for j in range(d - 1):
        upwind(B, bv[:, j], j)

    p_mat = sparse.coo_matrix(
        (np.concatenate(vals), (st.rank[np.concatenate(rows)], st.rank[np.concatenate(cols)])),
        shape=(st.nn, st.nn)).tocsr()
    return p_mat, bd


@dataclass
class PdeSolution:
    """Grid function with per-layer extrema and multilinear evaluation.

    ``values`` holds the stored layers (shape (n_stored, *grid.shape)) at
    ``times``; ``layer_min``/``layer_max`` cover *every* computed layer, which
    is what the discrete maximum principle is checked against.  A march
    records in ``meta`` where it left the paper's class b_d > 0 on x_d = 0:
    ``downwind_rows``, the most boundary-layer rows with b_d < 0 that any
    step assembled, and ``min_boundary_bd``, the least boundary-layer b_d
    over all assembled steps (None when no step was taken).
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    layer_min: np.ndarray
    layer_max: np.ndarray
    scheme: str
    meta: dict = field(default_factory=dict)

    def interpolate(self, t, x: np.ndarray) -> np.ndarray:
        interp = LatticeInterpolator(self.times, self.grid.axes,
                                     self.values.reshape((self.times.size, *self.grid.shape)))
        return interp(t, np.asarray(x, dtype=float))

    def value_at(self, t: float, x: Sequence[float]) -> float:
        return float(self.interpolate(t, np.asarray(x, dtype=float)[None, :])[0])


def _march(model: CoefficientModel, f: Callable | None, u0: np.ndarray, grid: Grid,
           horizon: float, scheme: str, store: str) -> list[PdeSolution]:
    """March an (N, k) block of initial layers; one PdeSolution per column.

    Each step assembles and factors its matrix once (a time-independent model
    once in all) and solves all k columns in one ``SuperLU.solve``; the solve
    is exact, with no iteration.  The matrix is assembled directly in the
    stencil's nested-dissection numbering and factored in that order
    (``permc_spec="NATURAL"``), so the state ``u``, the source and the outer-row
    mask live in solver order; layers are stored back in grid order.  Every
    operation, the extrema ``u.min(axis=0)`` included, acts column by column,
    so column j has the bits of a march of column j alone.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; use one of {SCHEMES}")
    n_steps = int(round(horizon / grid.dt))
    if abs(n_steps * grid.dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be an integer number of time steps")
    st = _Stencil(grid)
    theta = THETA[scheme]

    if scheme == "crank_nicolson":
        probe = np.abs(np.asarray(model.b(0.0, st.nodes), dtype=float)).max()
        min_h = min(float(np.diff(ax).min()) for ax in grid.axes)
        if probe * grid.dt / min_h > 1.0:
            warnings.warn(
                "crank_nicolson with strong drift: |b| dt / h = "
                f"{probe * grid.dt / min_h:.2f} > 1 risks oscillations", RuntimeWarning)

    store_all = store == "all"
    stored = [u0.T.copy()]
    stored_times = [0.0]
    layer_min = [u0.min(axis=0)]
    layer_max = [u0.max(axis=0)]

    u = u0[st.order]
    lu = None
    p_mat = None
    downwind_rows, boundary_bd_min = [], []
    for n in range(n_steps):
        t_next = (n + 1) * grid.dt
        t_eval = t_next if theta == 1.0 else (n + 0.5) * grid.dt
        if p_mat is None or not model.time_independent:
            p_mat, bd = _assemble_operator(model, t_eval, st)
            downwind_rows.append(int(np.count_nonzero(bd < 0)))
            boundary_bd_min.append(float(bd.min()))
            a_mat = (st.nonouter_diag - (theta * grid.dt) * p_mat + st.outer_matrix).tocsc()
            lu = None
        rhs = u.copy()
        if theta != 1.0:
            rhs += (1.0 - theta) * grid.dt * (p_mat @ u)
        if f is not None:
            rhs -= grid.dt * np.asarray(f(t_eval, st.nodes), dtype=float)[st.order, None]
        rhs[st.solver_outer] = 0.0
        try:
            if lu is None:
                lu = sp_linalg.splu(a_mat, permc_spec="NATURAL")
            u = lu.solve(rhs)
        except RuntimeError as exc:
            raise RuntimeError(f"linear-system solve failure at step {n}: {exc}") from exc
        layer_min.append(u.min(axis=0))
        layer_max.append(u.max(axis=0))
        if store_all or n == n_steps - 1:
            stored.append(u[st.rank].T)
            stored_times.append(t_next)

    values, lo, hi = (np.stack(a, axis=1) for a in (stored, layer_min, layer_max))
    meta = {"n_steps": n_steps, "store": store, "downwind_rows": max(downwind_rows, default=0),
            "min_boundary_bd": min(boundary_bd_min, default=None)}
    return [PdeSolution(
        grid=grid, times=np.asarray(stored_times), values=values[j].reshape((-1, *grid.shape)),
        layer_min=lo[j], layer_max=hi[j], scheme=scheme, meta=dict(meta),
    ) for j in range(u0.shape[1])]


def solve_cauchy(
    model: CoefficientModel,
    f: Callable | None,
    g: Callable,
    grid: Grid,
    horizon: float,
    scheme: str = "implicit_euler",
    store: str = "all",
) -> PdeSolution:
    """March u_t = A u + c u - f forward from u(0, .) = g.

    The initial layer equals g at the nodes exactly.  No data is imposed on
    x_d = 0 (see module docstring); the outer box edges close with linear
    extrapolation.
    """
    nodes = grid.nodes()
    u0 = np.asarray(g(nodes), dtype=float)
    if u0.shape != (nodes.shape[0],):
        raise ValueError("initial data must evaluate to one value per grid node")
    return _march(model, f, u0[:, None], grid, horizon, scheme, store)[0]


def time_reversed_model(model: CoefficientModel, horizon: float) -> CoefficientModel:
    """Coefficients evaluated at horizon - t (the terminal-value reversal)."""
    return replace(
        model,
        a=lambda t, x: model.a(horizon - np.asarray(t), x),
        b=lambda t, x: model.b(horizon - np.asarray(t), x),
        c=lambda t, x: model.c(horizon - np.asarray(t), x),
        name=model.name + "|time-reversed",
    )


def solve_terminal_value(
    model: CoefficientModel,
    g: Callable,
    horizon: float,
    grid: Grid,
    scheme: str = "implicit_euler",
    f: Callable | None = None,
    store: str = "all",
) -> PdeSolution:
    """Solve v_t + A v + c v = f with v(horizon, .) = g by time reversal.

    Defined as exactly solve_cauchy on the time-reversed coefficients, with
    layers re-indexed so entry k is v at stored time t_k; the terminal layer
    equals g at the nodes exactly.
    """
    f_rev = None if f is None else (lambda t, x: f(horizon - np.asarray(t), x))
    um = solve_cauchy(time_reversed_model(model, horizon), f_rev, g, grid, horizon,
                      scheme=scheme, store=store)
    return replace(um, times=horizon - um.times[::-1], values=um.values[::-1],
                   layer_min=um.layer_min[::-1], layer_max=um.layer_max[::-1],
                   meta=dict(um.meta, reversed=True))


def killing_on_grid(model: CoefficientModel, grid: Grid,
                    times: Sequence[float]) -> tuple[bool, float | None]:
    """Whether c is nonzero at any node of ``grid`` at any of ``times``, and
    its common value.

    The rate is returned when c takes one value on every node at every one
    of ``times`` (constant in space and time), else None.  Deciding from the
    whole grid at every time a caller steps through, not from one point at
    t = 0, keeps a c that happens to vanish at the start point or at t = 0
    from silently dropping the discount.  The check is a sample: a c that is
    nonzero only off the grid nodes or between the given times goes unseen.
    """
    nodes = grid.nodes()
    cv = np.stack([np.asarray(model.c(float(t), nodes), dtype=float) for t in times])
    has_killing = bool(np.any(np.abs(cv) > 0))
    rate = float(cv.flat[0]) if np.all(cv == cv.flat[0]) else None
    return has_killing, rate


@dataclass(frozen=True)
class DualityReport:
    """PDE value at the start point vs the Monte Carlo expectation at the horizon."""

    pde_value: float
    mc_mean: float
    mc_se: float
    grid_error: float
    gap: float
    tolerance: float
    interpolated: bool
    passed: bool

    def to_json(self) -> dict:
        return {"pde_value": self.pde_value, "mc_mean": self.mc_mean,
                "mc_se": self.mc_se, "grid_error": self.grid_error,
                "gap": self.gap, "tolerance": self.tolerance,
                "interpolated": self.interpolated, "passed": self.passed}


def duality_check(
    model: CoefficientModel,
    g: Callable,
    x: Sequence[float],
    horizon: float,
    grid: Grid,
    mc_paths: int = 10_000,
    mc_step: float = 2.0**-9,
    mc_seed: int = 0,
    mc_scheme: str = "full_truncation",
    scheme: str = "implicit_euler",
    pde_eval_shift: Sequence[float] | None = None,
    mc_model: CoefficientModel | None = None,
) -> DualityReport:
    """Check E[exp(int c) g(X(T))] against the terminal-value solution at (0, x).

    The tolerance is 3 Monte Carlo standard errors plus a two-grid Richardson
    estimate of the discretization error against ``grid.coarsen()`` (with
    factor-2 headroom, since the plain grid difference matches the fine-grid
    error exactly for a first-order scheme).  ``pde_eval_shift`` moves only the PDE evaluation point and
    exists for the wrong-start negative control; ``mc_model`` lets the
    simulation side run a different model than the solver side (the broken-
    generator control corrupts only the solver's model).  Whether the Monte
    Carlo side accumulates the discount is decided from the simulated model's
    c on every node of ``grid`` at every Monte Carlo time node
    (:func:`killing_on_grid`).
    """
    x = np.asarray(x, dtype=float)
    sim_model = mc_model if mc_model is not None else model
    v_fine = solve_terminal_value(model, g, horizon, grid, scheme=scheme, store="ends")
    v_coarse = solve_terminal_value(model, g, horizon, grid.coarsen(), scheme=scheme, store="ends")

    x_eval = x if pde_eval_shift is None else x + np.asarray(pde_eval_shift, dtype=float)
    pde_value = v_fine.value_at(0.0, x_eval)
    grid_error = abs(pde_value - v_coarse.value_at(0.0, x_eval))
    on_node = all(np.any(np.isclose(ax, x_eval[j], atol=1e-12)) for j, ax in enumerate(grid.axes))

    tg = TimeGrid(0.0, horizon, mc_step)
    has_killing, _ = killing_on_grid(sim_model, grid, tg.nodes)
    stride = 1 if has_killing else tg.n_steps
    ens = simulate_sde(sim_model, SpaceTimePoint(0.0, tuple(x)), tg, mc_paths, mc_seed,
                       scheme=mc_scheme, store_stride=stride)
    payoff = np.asarray(g(ens.states[:, -1, :]), dtype=float)
    if has_killing:
        nodes = ens.grid.nodes
        acc = np.zeros(ens.n_paths)
        for k in range(nodes.size - 1):
            acc += np.asarray(sim_model.c(nodes[k], ens.states[:, k, :]), dtype=float) * ens.grid.step
        payoff = payoff * np.exp(acc)
    mc_mean = float(payoff.mean())
    mc_se = float(payoff.std(ddof=1) / np.sqrt(payoff.size))

    gap = abs(pde_value - mc_mean)
    # the two-grid difference estimates the fine-grid error exactly at order
    # 1, so give it the standard factor-2 headroom
    tol = 3.0 * mc_se + 2.0 * grid_error
    return DualityReport(pde_value=pde_value, mc_mean=mc_mean, mc_se=mc_se,
                         grid_error=grid_error, gap=gap, tolerance=tol,
                         interpolated=not on_node, passed=bool(gap <= tol))
