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

Every axis is uniformly spaced, with one spacing per axis.  Interior
stencils: centered 3-point second differences, drift terms upwinded on the
sign of b (which keeps I - dt*P an M-matrix in the absence of cross terms),
mixed derivatives by a sign-split 7-point cross stencil of one-sided corner
terms.  The outer artificial boundaries close with a vanishing second normal
difference (linear extrapolation), which keeps affine solutions exact.

Time stepping splits P into line operators (locally one-dimensional Lie
splitting): one stage per axis and one per lattice diagonal e_i +- e_j that a
cross term uses.  A node's cross stencil is a 3-point second difference along
e_i + e_j (coefficient >= 0) or e_i - e_j (< 0) minus its corner weights on
the two axis stencils (Bonnans, Ottenwaelter & Zidani 2004), so each
off-diagonal entry of P lands in exactly one stage and the stages sum to P.
Stage row sums are zero but for c, which sits with the source in stage 0, so
each I - theta*dt*P_k is an M-matrix wherever P's row is one and the step (a
product of their inverses) is monotone.  On equal spacings each stage is zero
on affine data by itself, so constants and affine data stay exact on every
grid :class:`Grid` accepts, cross terms included.  Odd steps run the stages in
reverse, so step pairs compose symmetrically.  A stage is one tridiagonal
system over all of its lines, concatenated with no coupling between them,
factored (LAPACK gttrf) once per assembly and solved (gttrs) once per step; an
outer node closes inside the axis stage along which it extrapolates and is an
identity row in the others, and after every stage an explicit pass re-imposes
all closures, so no stage reads a stale outer value.  The march keeps the
(N, k) block in grid order and moves it into and out of a stage's line order
by gathers (``np.take`` by the line order, then by its inverse, the line rank).

Coefficients are read at fixed node sets, so a model that declares
``knots`` (a, b and c affine in t between them, constant outside) is
evaluated only at the knots the march reaches, and each step blends the two
that bracket its time: the same coefficients up to rounding, at one
evaluation per knot instead of one per step.  Steps that read one knot's
values unblended (with a single knot, every step) share one assembly.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import lapack

from .coeffs import CoefficientModel, LatticeInterpolator

THETA = {"implicit_euler": 1.0, "crank_nicolson": 0.5}  # scheme -> implicit weight
SCHEMES = tuple(THETA)


@dataclass(frozen=True)
class Grid:
    """Space grid plus time step.  Each axis has at least 3 nodes at one
    spacing (gaps equal to a relative 1e-9); the x_d axis starts at the 0 layer."""

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
            gaps = np.diff(ax)
            if np.any(gaps <= 0):
                raise ValueError("axes must be strictly increasing")
            if gaps.max() - gaps.min() > 1e-9 * gaps.mean():
                raise ValueError("axes must be uniformly spaced")
        if axes[-1][0] != 0.0:
            raise ValueError("the x_d axis must start at the boundary layer 0")

    @classmethod
    def build(
        cls,
        dt: float,
        x_prime_extent: float,
        x_max: float,
        counts: Sequence[int],
    ) -> "Grid":
        """Uniform axes: x' on [-extent, extent], x_d on [0, x_max]."""
        counts = list(counts)
        axes = [np.linspace(-x_prime_extent, x_prime_extent, n) for n in counts[:-1]]
        n_d = counts[-1]
        j = np.arange(n_d) / (n_d - 1)
        axes.append(x_max * j)
        return cls(dt=dt, axes=tuple(axes))

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(float(ax[-1] - ax[0]) / (ax.size - 1) for ax in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def check_inside(self, x: Sequence[float]) -> np.ndarray:
        """``x`` as an array, after checking that it is a point of the box.

        Raises ``ValueError`` naming the box when it is not, before any
        solve: a solution is only clamped outside its box, so a value read
        there would mean nothing.
        """
        x = np.asarray(x, dtype=float)
        axes = self.axes
        if x.shape != (len(axes),) or any(not ax[0] <= xj <= ax[-1] for ax, xj in zip(axes, x)):
            box = " x ".join(f"[{ax[0]:g}, {ax[-1]:g}]" for ax in axes)
            raise ValueError(f"the duality point {x.tolist()} lies outside the PDE box {box}")
        return x

    def coarsen(self) -> "Grid":
        """Every-other-node subsampling (counts must be odd), dt doubled."""
        for ax in self.axes:
            if ax.size % 2 == 0:
                raise ValueError("coarsening by subsampling needs odd node counts")
        return Grid(dt=2.0 * self.dt, axes=tuple(ax[::2] for ax in self.axes))


class _Lines:
    """The lattice lines of one direction, concatenated into one numbering.

    ``order[p]`` is the grid node at position p: consecutive positions on a
    line are neighbours along ``direction`` and no entry couples one line to
    the next.  ``closures`` are the outer-node closures that run along this
    direction, as (positions, step): row p reads
    u_p - 2 u_{p+step} + u_{p+2 step} = 0.
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
        # where the assembly reads coefficients: b and c at the full-stencil
        # nodes followed by the boundary layer, a at the former
        self.bc_rows = np.concatenate([self.full, self.blayer])
        self.bc_nodes = self.nodes[self.bc_rows]
        self.a_nodes = self.bc_nodes[:self.full.size]

        # extrapolation closures: vanishing second normal difference along the
        # first outward axis, as (rows, near, far) with near = rows + offset
        # and far = rows + 2 offset: u_r = 2 u_near - u_far
        self.closures: list[tuple] = []
        remaining = np.where(outer)[0]
        for j in range(d):
            ij = self.index[j][remaining]
            at_lo = (ij == 0) if j < d - 1 else np.zeros(ij.size, dtype=bool)
            at_hi = ij == shape[j] - 1
            for sel, step in ((at_lo, 1), (at_hi, -1)):
                rows = remaining[sel]
                if rows.size:
                    offset = step * self.strides[j]
                    self.closures.append((rows, rows + offset, rows + 2 * offset))
                    self.axes[j].closures.append((self.axes[j].rank[rows], step))
            remaining = remaining[~(at_lo | at_hi)]
        if remaining.size:
            raise AssertionError("unclosed outer nodes in stencil construction")
        # a closure reads only nodes that close along a later axis, or none:
        # the closure pass runs the x_d top edge first and axis 0 last
        self.closures.reverse()


def _node_coefficients(model: CoefficientModel, st: _Stencil) -> Callable:
    """t -> (a at ``st.a_nodes``, b and c at ``st.bc_nodes``), as float arrays.

    A model with ``knots`` is evaluated only at knots, and only the knots
    the last t needed are kept, at most two.  A t at a knot or outside the
    knots' range returns that knot's kept tuple itself, so calls in a row on
    one knot return one object, which the march's reuse rests on; a t
    strictly between two knots returns a fresh blend of theirs, the model
    itself up to rounding.  Other models return a fresh tuple at t itself.
    """

    def at(t) -> tuple:
        return (np.asarray(model.a(t, st.a_nodes), dtype=float),
                np.asarray(model.b(t, st.bc_nodes), dtype=float),
                np.asarray(model.c(t, st.bc_nodes), dtype=float))

    knots = model.knots
    if knots is None:
        return at
    kept: dict[int, tuple] = {}

    def blended(t) -> tuple:
        i = int(np.searchsorted(knots, t, side="right")) - 1  # knots[i] <= t < knots[i + 1]
        between = 0 <= i < knots.size - 1 and t != knots[i]
        i = max(i, 0)
        needed = {i, i + 1} if between else {i}
        for k in set(kept) - needed:
            del kept[k]
        for k in needed - set(kept):
            kept[k] = at(float(knots[k]))
        if not between:
            return kept[i]
        frac = (t - knots[i]) / (knots[i + 1] - knots[i])
        return tuple((1.0 - frac) * lo + frac * hi for lo, hi in zip(kept[i], kept[i + 1]))

    return blended


def _assemble_stages(st: _Stencil,
                     coefficients: tuple) -> tuple[list[tuple[_Lines, np.ndarray]], np.ndarray]:
    """The spatial operator P as a sum of line operators, and b_d on the
    boundary-layer rows (``st.blayer``), from one time's ``coefficients``
    as :func:`_node_coefficients` returns them.

    Each stage is (lines, bands): ``bands[:, p]`` holds P_k's weights on the
    previous node of the line, the node itself and the next node, at
    position p of ``lines.order``.  The axis stages come first, stage 0 with
    c; then one stage per diagonal that a cross term uses.  Rows at outer
    nodes are zero in every stage.
    """
    d = st.grid.d
    h = st.grid.spacing
    nf = st.full.size
    av, bv, cv = coefficients
    xd = st.a_nodes[:, -1]
    # the axis bands at st.bc_rows; neighbours at -e_j, 0, +e_j
    band = np.zeros((d, 3, st.bc_rows.size))
    band[0, 1] += cv

    def upwind(j: int, rows: slice) -> None:
        fwd = np.maximum(bv[rows, j], 0.0) / h[j]
        bwd = np.maximum(-bv[rows, j], 0.0) / h[j]
        band[j, 0, rows] += bwd
        band[j, 1, rows] -= fwd + bwd
        band[j, 2, rows] += fwd

    for j in range(d):
        w = 2.0 / (h[j] * (h[j] + h[j]))  # the centred second difference's outer weight
        band[j, :, :nf] += (0.5 * xd * av[:, j, j]) * np.array([[w], [-(w + w)], [w]])
        # the degenerate boundary layer is first-order transport: upwinded
        # along x', one-sided inward in x_d (below)
        upwind(j, slice(None) if j < d - 1 else slice(nf))
    bd = bv[nf:, -1]
    band[d - 1, 1, nf:] -= bd / h[-1]
    band[d - 1, 2, nf:] += bd / h[-1]
    axis = np.zeros((d, 3, st.nn))  # grid numbering
    axis[:, :, st.bc_rows] = band

    # mixed derivatives: the sign-split 7-point cross stencil is the
    # one-sided corner pair (+e_i + s e_j, -e_i - s e_j) with s the sign of
    # the coefficient, i.e. a 3-point second difference along e_i + s e_j
    # minus its corner weights on the axis stencils of e_i and e_j
    diagonal = {}
    for i in range(d):
        for j in range(i + 1, d):
            coefm = xd * av[:, i, j]
            w = 0.5 / (h[i] * h[j])
            for sign in (1, -1):
                sel = np.flatnonzero(sign * coefm > 0)
                if sel.size == 0:
                    continue
                r = st.full[sel]
                cval = np.abs(coefm[sel])
                bands = np.zeros((3, st.nn))
                bands[0, r] = bands[2, r] = cval * w
                bands[1, r] = -(bands[0, r] + bands[2, r])
                diagonal[(i, j, sign)] = bands
                # the corner weights are symmetric along either diagonal
                axis[i] -= bands
                axis[j] -= bands

    stages = [(lines, np.take(axis[j], lines.order, axis=1)) for j, lines in enumerate(st.axes)]
    for key, bands in diagonal.items():
        lines = st.diagonals[key]
        stages.append((lines, np.take(bands, lines.order, axis=1)))
    return stages, bd


def _stage_lu(lines: _Lines, bands: np.ndarray, h: float, n: int) -> list:
    """LAPACK gttrf's LU factors of I - h P_k, for gttrs; n is the step.

    Each closure row that ``lines`` owns, u_p = 2 u_q - u_{q+step} with
    q = p + step, is substituted into row q, the only row that reads u_p, and
    row p becomes an identity row whose value the closure pass after the
    stage replaces; this is the stage's closure system, solved at bandwidth 1.
    """
    ab = np.zeros((3, bands.shape[1]))
    ab[1] = 1.0 - h * bands[1]
    ab[0, 1:] = -h * bands[2, :-1]
    ab[2, :-1] = -h * bands[0, 1:]
    for pos, step in lines.closures:
        q = pos + step
        weight = ab[1 + step, pos]  # row q's entry on u_p
        ab[1, q] += 2.0 * weight
        ab[1 - step, q + step] -= weight
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
    """The final layer of a march, its extrema and multilinear evaluation.

    ``values`` is the layer at the march's horizon, of shape ``grid.shape``;
    ``layer_min``/``layer_max`` are the extrema over *every* computed layer,
    the initial one included, which is what the discrete maximum principle
    is checked against.  A march records in ``meta`` where it left the
    paper's class b_d > 0 on x_d = 0: ``downwind_rows``, the most
    boundary-layer rows with b_d < 0 that any step assembled, and
    ``min_boundary_bd``, the least boundary-layer b_d over all assembled
    steps; ``c_min`` and ``c_max``, the least and greatest c that any
    assembly applied (all three None when no step was taken; ``n_steps``
    counts the steps).  ``inner_min`` and ``inner_max`` are the extrema over
    every computed layer at the non-outer nodes, where the assembly reads c
    and which the outer extrapolation closure does not reach.
    """

    grid: Grid
    values: np.ndarray
    layer_min: float
    layer_max: float
    meta: dict = field(default_factory=dict)

    def value_at(self, x: Sequence[float]) -> float:
        """The final layer at x, multilinear between nodes and clamped to the box."""
        interp = LatticeInterpolator(np.zeros(1), self.grid.axes, self.values[None])
        return float(interp(0.0, np.asarray(x, dtype=float)[None, :])[0])


def _march(model: CoefficientModel, f: Callable | None, u0: np.ndarray, grid: Grid,
           horizon: float, scheme: str) -> list[PdeSolution]:
    """March an (N, k) block of initial layers; one PdeSolution per column.

    Each step reads its coefficients from :func:`_node_coefficients` (for a
    model with knots, the blend of the two bracketing knots' values) and,
    when that returns another tuple than the one last assembled, assembles
    and factors its line stages from them; it applies them in turn, each
    stage's right-hand side gathered into line order and its solution
    gathered back into grid order, odd steps in reverse order so
    that step pairs compose symmetrically, each as one theta-step
    u <- (I - theta dt P_k)^{-1} (I + (1 - theta) dt P_k) u with the source in
    stage 0, solved exactly with the stage's tridiagonal LU over all lines
    and all k columns.  After each stage an explicit pass re-imposes the outer
    closures, x_d top edge first, then the x' edges and corners.  Every
    operation, the per-column extrema included, acts column by column, so
    column j has the bits of a march of column j alone.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; use one of {SCHEMES}")
    if grid.d != model.d:
        raise ValueError(f"the grid has {grid.d} axes; the model's dimension is {model.d}")
    n_steps = int(round(horizon / grid.dt))
    if abs(n_steps * grid.dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be an integer number of time steps")
    if any(ax.size < 4 for ax in grid.axes[:-1]):
        raise ValueError("the outer closures need at least 4 nodes on each x' axis")
    st = _Stencil(grid)
    theta = THETA[scheme]

    if scheme == "crank_nicolson":
        probe = np.abs(np.asarray(model.b(0.0, st.nodes), dtype=float)).max()
        min_h = min(grid.spacing)
        if probe * grid.dt / min_h > 1.0:
            warnings.warn(
                "crank_nicolson with strong drift: |b| dt / h = "
                f"{probe * grid.dt / min_h:.2f} > 1 risks oscillations", RuntimeWarning)

    inner = np.flatnonzero(~st.outer)
    layer_min, layer_max, inner_min, inner_max = [], [], [], []

    def record(u: np.ndarray) -> None:
        # extrema over rows of one column-contiguous copy: a reduction along
        # the contiguous axis, much faster than along axis 0 of (N, k)
        cols = u.T.copy()
        layer_min.append(cols.min(axis=1))
        layer_max.append(cols.max(axis=1))
        cols_inner = np.take(cols, inner, axis=1)
        inner_min.append(cols_inner.min(axis=1))
        inner_max.append(cols_inner.max(axis=1))

    u = np.array(u0, dtype=float)
    record(u)
    coefficients = _node_coefficients(model, st)
    assembled = None
    downwind_rows, boundary_bd_min, c_min, c_max = [], [], [], []
    for n in range(n_steps):
        t_next = (n + 1) * grid.dt
        t_eval = t_next if theta == 1.0 else (n + 0.5) * grid.dt
        now = coefficients(t_eval)
        if now is not assembled:
            assembled = now
            parts, bd = _assemble_stages(st, now)
            downwind_rows.append(int(np.count_nonzero(bd < 0)))
            boundary_bd_min.append(float(bd.min()))
            c_min.append(float(now[2].min()))
            c_max.append(float(now[2].max()))
            stages = [(lines, bands, _stage_lu(lines, bands, theta * grid.dt, n))
                      for lines, bands in parts]
        for lines, bands, lu in stages if n % 2 == 0 else stages[::-1]:
            rhs = np.take(u, lines.order, axis=0)
            if theta != 1.0:
                rhs += (1.0 - theta) * grid.dt * _apply(bands, rhs)
            if f is not None and lines is st.axes[0]:
                src = np.asarray(f(t_eval, st.nodes), dtype=float)
                rhs -= grid.dt * np.take(np.where(st.outer, 0.0, src), lines.order)[:, None]
            u = np.take(lapack.dgttrs(*lu, rhs, overwrite_b=True)[0], lines.rank, axis=0)
            for rows, near, far in st.closures:
                u[rows] = 2.0 * np.take(u, near, axis=0) - np.take(u, far, axis=0)
        record(u)

    lo, hi = np.min(layer_min, axis=0), np.max(layer_max, axis=0)
    inner_min, inner_max = np.min(inner_min, axis=0), np.max(inner_max, axis=0)
    meta = {"n_steps": n_steps, "downwind_rows": max(downwind_rows, default=0),
            "min_boundary_bd": min(boundary_bd_min, default=None),
            "c_min": min(c_min, default=None), "c_max": max(c_max, default=None)}
    final = u.T.reshape((-1, *grid.shape))
    return [PdeSolution(
        grid=grid, values=final[j], layer_min=float(lo[j]), layer_max=float(hi[j]),
        meta=dict(meta, inner_min=float(inner_min[j]), inner_max=float(inner_max[j])),
    ) for j in range(u0.shape[1])]


def solve_cauchy(
    model: CoefficientModel,
    f: Callable | None,
    g: Callable,
    grid: Grid,
    horizon: float,
    scheme: str = "implicit_euler",
) -> PdeSolution:
    """March u_t = A u + c u - f forward from u(0, .) = g to u(horizon, .).

    The initial layer equals g at the nodes exactly (a horizon of 0 returns
    it).  No data is imposed on x_d = 0 (see module docstring); the outer box
    edges close with linear extrapolation.
    """
    nodes = grid.nodes()
    u0 = np.asarray(g(nodes), dtype=float)
    if u0.shape != (nodes.shape[0],):
        raise ValueError("initial data must evaluate to one value per grid node")
    return _march(model, f, u0[:, None], grid, horizon, scheme)[0]


def time_reversed_model(model: CoefficientModel, horizon: float) -> CoefficientModel:
    """Coefficients evaluated at horizon - t (the terminal-value reversal),
    with knots at horizon minus the model's knots."""
    return replace(
        model,
        a=lambda t, x: model.a(horizon - np.asarray(t), x),
        b=lambda t, x: model.b(horizon - np.asarray(t), x),
        c=lambda t, x: model.c(horizon - np.asarray(t), x),
        knots=None if model.knots is None else horizon - model.knots[::-1],
    )


def solve_terminal_value(
    model: CoefficientModel,
    g: Callable,
    horizon: float,
    grid: Grid,
    scheme: str = "implicit_euler",
) -> PdeSolution:
    """Solve v_t + A v + c v = 0 with v(horizon, .) = g by time reversal.

    Defined as exactly solve_cauchy on the time-reversed coefficients, so
    ``values`` is v(0, .) and the extrema cover every layer from the terminal
    one, which equals g at the nodes exactly, down to t = 0.
    """
    return solve_cauchy(time_reversed_model(model, horizon), None, g, grid, horizon,
                        scheme=scheme)


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
        return asdict(self)


@dataclass(frozen=True)
class TwoGridValue:
    """The PDE side of the duality check: the terminal-value solution at
    t = 0 on a grid and on its coarsening, read at any point without solving
    again."""

    fine: PdeSolution
    coarse: PdeSolution

    def report(self, x: Sequence[float], mc_mean: float, mc_se: float) -> DualityReport:
        """Score a Monte Carlo mean and standard error against v(0, x).

        The tolerance is 3 standard errors plus twice the two-grid difference
        at x: for a first-order scheme that difference matches the fine-grid
        error exactly, so it gets the standard factor-2 headroom.  An x
        outside the fine grid's box raises ``ValueError``
        (:meth:`Grid.check_inside`).
        """
        x = self.fine.grid.check_inside(x)
        pde_value = self.fine.value_at(x)
        grid_error = abs(pde_value - self.coarse.value_at(x))
        on_node = all(np.any(np.isclose(ax, x[j], atol=1e-12))
                      for j, ax in enumerate(self.fine.grid.axes))
        gap = abs(pde_value - mc_mean)
        tol = 3.0 * mc_se + 2.0 * grid_error
        return DualityReport(pde_value=pde_value, mc_mean=mc_mean, mc_se=mc_se,
                             grid_error=grid_error, gap=gap, tolerance=tol,
                             interpolated=not on_node, passed=bool(gap <= tol))


def solve_two_grid(model: CoefficientModel, g: Callable, horizon: float, grid: Grid,
                   scheme: str = "implicit_euler") -> TwoGridValue:
    """Terminal-value solutions with v(horizon, .) = g on ``grid`` and on
    ``grid.coarsen()``.

    The duality check E[exp(int c) g(X(T))] = v(0, x) composes this with
    :func:`.sdesim.discounted_mean`: ``solve_two_grid(...).report(x,
    *discounted_mean(...))``.  A negative control scores the same simulation
    at a shifted point or against the solution of a corrupted model.
    """
    return TwoGridValue(*(solve_terminal_value(model, g, horizon, gr, scheme=scheme)
                          for gr in (grid, grid.coarsen())))
