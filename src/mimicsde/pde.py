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
absence of cross terms), mixed derivatives by a sign-split 7-point cross
stencil of one-sided corner terms.  The outer artificial boundaries close
with a vanishing second normal difference (linear extrapolation), which keeps
affine solutions exact.

Time stepping splits P into line operators (locally one-dimensional Lie
splitting): one stage per axis and one per lattice diagonal e_i +- e_j that a
cross term uses.  A node's cross stencil is a 3-point second difference
along e_i + e_j (coefficient >= 0) or e_i - e_j (< 0) minus its corner
weights on the two axis stencils (Bonnans, Ottenwaelter & Zidani 2004), so
each off-diagonal entry of P lands in exactly one stage and the stages sum to
P.  Stage row sums are zero but for c, which sits with the source in stage 0,
so each I - theta*dt*P_k is an M-matrix wherever P's row is one, the step (a
product of their inverses) is monotone, and constants and affine data stay
exact.  Odd steps run the stages in reverse, so step pairs compose
symmetrically.  A stage is one tridiagonal system over all of its lines,
concatenated with no coupling between them, factored (LAPACK gttrf) once per
assembly and solved (gttrs) once per step; an outer node closes inside the
axis stage along which it extrapolates and is an identity row in the others,
and after every stage an explicit pass re-imposes all closures, so no stage
reads a stale outer value.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import lapack

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
    inner = slice(1, n - 1)
    hpi, hmi = hp[inner], hm[inner]
    w2m[inner] = 2.0 / (hmi * (hmi + hpi))
    w2p[inner] = 2.0 / (hpi * (hmi + hpi))
    return {"hp": hp, "hm": hm, "w2m": w2m, "w20": -(w2m + w2p), "w2p": w2p}


class _Lines:
    """The lattice lines of one direction, concatenated into one numbering.

    ``order[p]`` is the grid node at position p: consecutive positions on a
    line are neighbours along ``direction`` and no entry couples one line to
    the next.  ``closures`` are the outer-node closures that run along this
    direction, as (positions, step, e1, e2): row p reads
    u_p + e1 u_{p+step} + e2 u_{p+2 step} = 0.
    """

    def __init__(self, index: np.ndarray, direction: np.ndarray):
        lead = int(np.flatnonzero(direction)[0])
        # each line is named by where it crosses index 0 of its lead axis
        base = index - np.outer(direction, index[lead])
        self.order = np.lexsort((index[lead], *base[::-1]))
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(self.order.size)
        self.closures: list[tuple] = []


class _Stencil:
    """Geometry-only assembly data shared across time steps, in grid
    (C-order) numbering: the node classes, the outer closures in the order
    the closure pass applies them, and the lines of every stage direction."""

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
        unit = np.eye(d, dtype=np.int64)
        self.axes = [_Lines(self.index, unit[j]) for j in range(d)]
        self.diagonals = {(i, j, sign): _Lines(self.index, unit[i] + sign * unit[j])
                          for i in range(d) for j in range(i + 1, d) for sign in (1, -1)}

        outer = np.zeros(nn, dtype=bool)
        for j in range(d - 1):
            outer |= (self.index[j] == 0) | (self.index[j] == shape[j] - 1)
        outer |= self.index[d - 1] == shape[d - 1] - 1
        blayer = (~outer) & (self.index[d - 1] == 0)
        self.outer = outer
        self.blayer = np.where(blayer)[0]
        self.full = np.where(~outer & ~blayer)[0]

        # extrapolation closures: vanishing second normal difference along the
        # first outward axis, with nonuniform weights so affine data stay
        # exact, as (rows, offset, e1, e2): u_r + e1 u_{r+offset} + e2 u_{r+2 offset} = 0
        self.closures: list[tuple] = []
        remaining = np.where(outer)[0]
        for j in range(d):
            ij = self.index[j][remaining]
            w = self.weights[j]
            n_j = shape[j]
            at_lo = (ij == 0) if j < d - 1 else np.zeros(ij.size, dtype=bool)
            at_hi = ij == n_j - 1
            for sel, step, k, own, far in ((at_lo, 1, 1, "w2m", "w2p"),
                                           (at_hi, -1, n_j - 2, "w2p", "w2m")):
                rows = remaining[sel]
                if rows.size:
                    e1, e2 = w["w20"][k] / w[own][k], w[far][k] / w[own][k]
                    self.closures.append((rows, step * self.strides[j], e1, e2))
                    self.axes[j].closures.append((self.axes[j].rank[rows], step, e1, e2))
            remaining = remaining[~(at_lo | at_hi)]
        if remaining.size:
            raise AssertionError("unclosed outer nodes in stencil construction")
        # a closure reads only nodes that close along a later axis, or none:
        # the closure pass runs the x_d top edge first and axis 0 last
        self.closures.reverse()


def _assemble_stages(model: CoefficientModel, t: float,
                     st: _Stencil) -> tuple[list[tuple[_Lines, np.ndarray]], np.ndarray]:
    """The spatial operator P at time t as a sum of line operators, and b_d
    on the boundary-layer rows (``st.blayer``).

    Each stage is (lines, bands): ``bands[:, p]`` holds P_k's weights on the
    previous node of the line, the node itself and the next node, at
    position p of ``lines.order``.  The axis stages come first, stage 0 with
    c; then one stage per diagonal that a cross term uses.  Rows at outer
    nodes are zero in every stage.
    """
    d = st.grid.d
    axis = np.zeros((d, 3, st.nn))  # grid numbering; neighbours at -e_j, 0, +e_j
    diagonal = {}

    def upwind(sel: np.ndarray, bj: np.ndarray, j: int):
        ij = st.index[j][sel]
        fwd = np.maximum(bj, 0.0) / st.weights[j]["hp"][ij]
        bwd = np.maximum(-bj, 0.0) / st.weights[j]["hm"][ij]
        axis[j, 0, sel] += bwd
        axis[j, 1, sel] -= fwd + bwd
        axis[j, 2, sel] += fwd

    # full-stencil nodes
    F = st.full
    if F.size:
        xf = st.nodes[F]
        av = np.asarray(model.a(t, xf), dtype=float)
        bv = np.asarray(model.b(t, xf), dtype=float)
        cv = np.asarray(model.c(t, xf), dtype=float)
        xd = xf[:, -1]
        axis[0, 1, F] += cv
        for j in range(d):
            ij = st.index[j][F]
            w = st.weights[j]
            coef2 = 0.5 * xd * av[:, j, j]
            axis[j, 0, F] += coef2 * w["w2m"][ij]
            axis[j, 1, F] += coef2 * w["w20"][ij]
            axis[j, 2, F] += coef2 * w["w2p"][ij]
            upwind(F, bv[:, j], j)
        # mixed derivatives: the sign-split 7-point cross stencil is the
        # one-sided corner pair (+e_i + s e_j, -e_i - s e_j) with s the sign of
        # the coefficient, i.e. a 3-point second difference along e_i + s e_j
        # minus its corner weights on the axis stencils of e_i and e_j
        for i in range(d):
            for j in range(i + 1, d):
                coefm = xd * av[:, i, j]
                ii, jj = st.index[i][F], st.index[j][F]
                wi, wj = st.weights[i], st.weights[j]
                for sign in (1, -1):
                    sel = np.flatnonzero(sign * coefm > 0)
                    if sel.size == 0:
                        continue
                    r = F[sel]
                    cval = np.abs(coefm[sel])
                    hj_fwd, hj_bwd = (wj["hp"], wj["hm"]) if sign == 1 else (wj["hm"], wj["hp"])
                    bands = np.zeros((3, st.nn))
                    bands[0, r] = cval * (0.5 / (wi["hm"][ii[sel]] * hj_bwd[jj[sel]]))
                    bands[2, r] = cval * (0.5 / (wi["hp"][ii[sel]] * hj_fwd[jj[sel]]))
                    bands[1, r] = -(bands[0, r] + bands[2, r])
                    diagonal[(i, j, sign)] = bands
                    axis[i] -= bands
                    axis[j] -= bands if sign == 1 else bands[::-1]

    # degenerate boundary layer: first-order transport, one-sided inward in x_d
    # (never empty, since every axis has at least 3 nodes)
    B = st.blayer
    xb = st.nodes[B]
    bv = np.asarray(model.b(t, xb), dtype=float)
    axis[0, 1, B] += np.asarray(model.c(t, xb), dtype=float)
    for j in range(d - 1):
        upwind(B, bv[:, j], j)
    bd = bv[:, -1]
    hp0 = st.weights[d - 1]["hp"][0]
    axis[d - 1, 1, B] -= bd / hp0
    axis[d - 1, 2, B] += bd / hp0

    stages = [(lines, axis[j][:, lines.order]) for j, lines in enumerate(st.axes)]
    for key, bands in diagonal.items():
        lines = st.diagonals[key]
        stages.append((lines, bands[:, lines.order]))
    return stages, bd


def _stage_lu(lines: _Lines, bands: np.ndarray, h: float, n: int) -> list:
    """LAPACK gttrf's LU factors of I - h P_k, for gttrs; n is the step.

    Each closure row that ``lines`` owns, u_p = -(e1 u_q + e2 u_{q+step}) with
    q = p + step, is substituted into row q, the only row that reads u_p, and
    row p becomes an identity row whose value the closure pass after the
    stage replaces; this is the stage's closure system, solved at bandwidth 1.
    """
    ab = np.zeros((3, bands.shape[1]))
    ab[1] = 1.0 - h * bands[1]
    ab[0, 1:] = -h * bands[2, :-1]
    ab[2, :-1] = -h * bands[0, 1:]
    for pos, step, e1, e2 in lines.closures:
        q = pos + step
        weight = ab[1 + step, pos]  # row q's entry on u_p
        ab[1, q] -= weight * e1
        ab[1 - step, q + step] -= weight * e2
        ab[1 + step, pos] = 0.0
    *lu, info = lapack.dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info > 0:
        raise RuntimeError(f"linear-system solve failure at step {n}: singular stage matrix")
    return lu


def _apply(bands: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P_k v for an (N, k) block v in the stage's line order."""
    pv = bands[1, :, None] * v
    pv[1:] += bands[0, 1:, None] * v[:-1]
    pv[:-1] += bands[2, :-1, None] * v[1:]
    return pv


@dataclass
class PdeSolution:
    """Grid function with per-layer extrema and multilinear evaluation.

    ``values`` holds the stored layers (shape (n_stored, *grid.shape)) at
    ``times``; ``layer_min``/``layer_max`` cover *every* computed layer, which
    is what the discrete maximum principle is checked against.  A march
    records in ``meta`` where it left the paper's class b_d > 0 on x_d = 0:
    ``downwind_rows``, the most boundary-layer rows with b_d < 0 that any
    step assembled, and ``min_boundary_bd``, the least boundary-layer b_d
    over all assembled steps (None when no step was taken).  ``inner_min``
    and ``inner_max`` are the extrema over every computed layer at the
    non-outer nodes, which the outer extrapolation closure does not reach.
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

    Each step assembles and factors its line stages once (a time-independent
    model once in all) and applies them in turn, odd steps in reverse order so
    that step pairs compose symmetrically, each as one theta-step
    u <- (I - theta dt P_k)^{-1} (I + (1 - theta) dt P_k) u with the source in
    stage 0, solved exactly with the stage's tridiagonal LU over all lines
    and all k columns.  After each stage an explicit pass re-imposes the outer
    closures, x_d top edge first, then the x' edges and corners.  Every
    operation, the extrema ``u.min(axis=0)`` included, acts column by column,
    so column j has the bits of a march of column j alone.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; use one of {SCHEMES}")
    n_steps = int(round(horizon / grid.dt))
    if abs(n_steps * grid.dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be an integer number of time steps")
    if any(ax.size < 4 for ax in grid.axes[:-1]):
        raise ValueError("the outer closures need at least 4 nodes on each x' axis")
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
    inner = ~st.outer
    inner_min, inner_max = u0[inner].min(axis=0), u0[inner].max(axis=0)

    u = np.array(u0, dtype=float)
    stages = None
    downwind_rows, boundary_bd_min = [], []
    for n in range(n_steps):
        t_next = (n + 1) * grid.dt
        t_eval = t_next if theta == 1.0 else (n + 0.5) * grid.dt
        if stages is None or not model.time_independent:
            parts, bd = _assemble_stages(model, t_eval, st)
            downwind_rows.append(int(np.count_nonzero(bd < 0)))
            boundary_bd_min.append(float(bd.min()))
            stages = [(lines, bands, _stage_lu(lines, bands, theta * grid.dt, n))
                      for lines, bands in parts]
        for lines, bands, lu in stages if n % 2 == 0 else stages[::-1]:
            rhs = u[lines.order]
            if theta != 1.0:
                rhs += (1.0 - theta) * grid.dt * _apply(bands, rhs)
            if f is not None and lines is st.axes[0]:
                src = np.asarray(f(t_eval, st.nodes), dtype=float)
                rhs -= grid.dt * np.where(st.outer, 0.0, src)[lines.order, None]
            u[lines.order] = lapack.dgttrs(*lu, rhs, overwrite_b=True)[0]
            for rows, offset, e1, e2 in st.closures:
                u[rows] = -(e1 * u[rows + offset] + e2 * u[rows + 2 * offset])
        layer_min.append(u.min(axis=0))
        layer_max.append(u.max(axis=0))
        u_inner = u[inner]
        inner_min = np.minimum(inner_min, u_inner.min(axis=0))
        inner_max = np.maximum(inner_max, u_inner.max(axis=0))
        if store_all or n == n_steps - 1:
            stored.append(u.T.copy())
            stored_times.append(t_next)

    values, lo, hi = (np.stack(a, axis=1) for a in (stored, layer_min, layer_max))
    meta = {"n_steps": n_steps, "store": store, "downwind_rows": max(downwind_rows, default=0),
            "min_boundary_bd": min(boundary_bd_min, default=None)}
    return [PdeSolution(
        grid=grid, times=np.asarray(stored_times), values=values[j].reshape((-1, *grid.shape)),
        layer_min=lo[j], layer_max=hi[j], scheme=scheme,
        meta=dict(meta, inner_min=float(inner_min[j]), inner_max=float(inner_max[j])),
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
