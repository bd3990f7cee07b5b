"""Path simulation for half-space SDEs and general Itô processes.

The stepping rule is Euler-Maruyama with the diffusion matrix in square-root
form sigma = sqrt(x_d^+) * varsigma, so the noise switches off exactly on the
boundary x_d = 0.  Two nonnegativity-preserving variants are provided:

* ``full_truncation`` propagates an internal state whose last coordinate may
  go negative, evaluates all coefficients at the clipped state, and stores the
  clipped state.  This is the default: it preserves nonnegativity without
  biasing the drift at the boundary.
* ``absorbed_euler`` clips the state itself after every step and propagates
  the clipped value.

Every stored state satisfies x_d >= 0; clipping is counted, never silent,
because a large clip rate invalidates downstream marginal claims.  Noise is
counter-based (see :mod:`.rng`): a step draws for the path range 0..n-1, and
path p's draws at step k depend on (seed, domain, k, p) alone, so ensembles
are reproducible regardless of batching and extendable in time.

One loop, :func:`_euler_paths`, steps every path and alone draws the
Brownian normals.  :func:`simulate_sde` replays a coefficient model as an
:class:`ItoDriver` and passes the loop's observation hook through, where
:func:`discounted_mean` sums the killing rate c and the martingale-problem
test and Itô-formula residual in :mod:`.martingale` sum the compensator or
both sides of Itô's formula along each path, storing endpoints only.
:func:`simulate_ito_process` runs a general driver under ``absorbed_euler``
and sums its drift and diffusion into lattice cells in that hook, storing no
per-path driver values; and the strong-Markov
restart in :mod:`.martingale` finds each path's stopping time in that hook,
storing endpoints only, then continues the paths from per-path start times.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import IO, TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from . import rng
from .coeffs import CoefficientModel, _dot, _rows_scaled
from .geometry import SpaceTimePoint

if TYPE_CHECKING:
    from .projection import BinningSpec

SCHEMES = ("full_truncation", "absorbed_euler")
_CSV_BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [start, end] with step h; (end-start)/h must be integral."""

    start: float
    end: float
    step: float

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.end < self.start:
            raise ValueError("need start <= end")
        n = (self.end - self.start) / self.step
        if abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
            raise ValueError("(end - start) / step must be an integer")

    @property
    def n_steps(self) -> int:
        return int(round((self.end - self.start) / self.step))

    @property
    def nodes(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.n_steps + 1)

    def node_index(self, t: float) -> int:
        k = (t - self.start) / self.step
        if abs(k - round(k)) > 1e-9:
            raise ValueError(f"time {t} is not a node of the time grid of step {self.step}")
        k = int(round(k))
        if not 0 <= k <= self.n_steps:
            raise ValueError(f"time {t} outside grid range")
        return k


@dataclass
class DriverSums:
    """Per binning time and (C-order) cell of ``spec``: path count, sums of beta and xi xi^*."""

    occupancy: np.ndarray  # (K, cells)
    beta: np.ndarray       # (K, cells, d)
    xi2: np.ndarray        # (K, cells, d, d)
    spec: BinningSpec


@dataclass
class PathEnsemble:
    """Sample paths on a stored grid, plus scheme bookkeeping.

    ``grid`` is the storage grid; the integrator may have used a finer
    internal step, n_internal_steps / n_paths steps in all.
    ``pre_clip_min_xd`` holds, per path, the minimum of the last coordinate
    *before* any clipping, which is the scheme-quality diagnostic behind
    :func:`support_check`.
    """

    grid: TimeGrid
    states: np.ndarray  # (n_paths, n_nodes, d)
    pre_clip_min_xd: np.ndarray
    n_clipped_steps: int
    n_internal_steps: int
    drivers: DriverSums | None = None
    integrability_mean: float | None = None
    boundary_row_violations: int = 0

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[2]

    def states_at(self, t: float) -> np.ndarray:
        return self.states[:, self.grid.node_index(t), :]


@dataclass
class ItoDriver:
    """Adapted coefficient process (beta(t), xi(t)) driven by an auxiliary state.

    ``coeffs(t, x, aux) -> (beta, xi)`` is pure (no noise), with beta of shape
    (n, d) and xi of shape (n, d, d), in any memory layout; the drivers here
    return them entry-major, as :meth:`.CoefficientModel.drift_and_sigma`
    does, so each entry is a contiguous column that the kernel's column
    arithmetic reads (sums from +0.0 in einsum's order, bit-identical to it
    at d <= 2).  The auxiliary state is created by
    ``init_aux(n, u0)`` and evolves through ``advance_aux(t, h, x, aux, u)``
    on uniforms u0 and u of shape (n, 1).  A driver must produce a vanishing
    d-th row of xi whenever x_d = 0, so the state can never diffuse across
    the boundary; :func:`simulate_ito_process` counts the rows that do not.
    """

    d: int
    coeffs: Callable
    advance_aux: Callable | None = None
    init_aux: Callable | None = None


def model_driver(model: CoefficientModel) -> ItoDriver:
    """Markov driver replaying a coefficient model: beta = b(t,X), xi = sigma(t,X)."""

    def coeffs(t, x, aux):
        return model.drift_and_sigma(t, x)

    return ItoDriver(d=model.d, coeffs=coeffs)


def regime_switching_driver(
    model: CoefficientModel,
    hi_factor: float = 1.5,
    switch_rate: float = 2.0,
) -> ItoDriver:
    """Two-regime diffusion scaling on top of a base model.

    The diffusion is sigma(t,X) in the low regime and hi_factor * sigma(t,X)
    in the high regime, with the hidden regime flipping at ``switch_rate``
    per unit time from an even start: each path begins in either regime with
    probability 1/2.  The state X alone is not Markov, which is what makes the
    mimicking construction a nontrivial exercise.
    """
    factors = np.array([1.0, hi_factor])

    def init_aux(n, u0):
        return (u0[:, 0] < 0.5).astype(np.int64)

    def coeffs(t, x, aux):
        beta, base = model.drift_and_sigma(t, x)
        return beta, _rows_scaled(factors[aux], base)

    def advance_aux(t, h, x, aux, u):
        flip = u[:, 0] < switch_rate * h
        return np.where(flip, 1 - aux, aux)

    return ItoDriver(d=model.d, coeffs=coeffs, advance_aux=advance_aux, init_aux=init_aux)


def _as_start_state(start, d: int, grid: TimeGrid) -> np.ndarray:
    """The start vector; a SpaceTimePoint start must sit at ``grid.start``."""
    if isinstance(start, SpaceTimePoint):
        if abs(grid.start - start.t) > 1e-12:
            raise ValueError("grid.start must equal the start time")
        x = np.asarray(start.x, dtype=float)
    else:
        x = np.asarray(start, dtype=float)
    if x.ndim != 1:
        raise ValueError("start state must be a single d-vector")
    if x.shape[0] != d:
        raise ValueError(f"start dimension {x.shape[0]} != expected {d}")
    if x[-1] < 0:
        raise ValueError("start lies outside the closed half-space")
    return x


def _eval_driver(driver: ItoDriver, t, x: np.ndarray, aux, label: str):
    """(beta, xi) at (t, x), shape-checked against (n, d) and (n, d, d)."""
    beta, xi = driver.coeffs(t, x, aux)
    beta = np.asarray(beta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n, d = x.shape[0], driver.d
    if beta.shape != (n, d) or xi.shape != (n, d, d):
        raise ValueError(
            f"driver output dimension mismatch at {label}: "
            f"beta {beta.shape}, xi {xi.shape}, expected ({n},{d}) and ({n},{d},{d})"
        )
    return beta, xi


def _euler_paths(
    driver: ItoDriver,
    x0: np.ndarray,
    t0,
    h: float,
    n_steps: int,
    seed: int,
    scheme: str,
    store_stride: int,
    observe: Callable | None = None,
):
    """The Euler-Maruyama loop behind every simulated path in the package.

    Steps n paths from the states ``x0`` (shape (n, d), x_d >= 0) at times
    t0 + k h, where ``t0`` is a scalar, kept scalar so a lattice brackets it
    once, or one start time per path.  Step k evaluates the driver at the
    clipped state, takes the d normals z of the path range 0..n-1 from the
    Brownian stream at (seed, step k), where path p's row depends on (seed,
    k, p) alone, and adds beta h + xi z sqrt(h): to the internal state under
    ``full_truncation``, to the clipped state under ``absorbed_euler``.  The
    driver's aux state is created from one column of ``DOMAIN_DRIVER_INIT``
    uniforms and advanced, after the step, on one column of ``DOMAIN_DRIVER``
    uniforms at step k.
    ``observe(k, x, beta, xi, z)`` sees every step's clipped state, driver
    values and normals before the increment.  The increment is formed one
    contiguous (n,) row per coordinate (:func:`_advance`), with xi z summed by
    :func:`.coeffs._dot` (left to right from +0.0, numpy einsum's bits at
    d <= 2, a rounding-level difference from it at d >= 3).

    Returns the clipped states at every stride-th node (start and end
    included), the per-path minimum of x_d before clipping, the number of
    clipped path-steps and the final aux state.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; use one of {SCHEMES}")
    if store_stride < 1 or n_steps % store_stride != 0:
        raise ValueError("store_stride must divide the number of steps")
    n, d = x0.shape
    states = np.empty((n, n_steps // store_stride + 1, d))
    sqrt_h = np.sqrt(h)
    paths = range(n)
    aux = None
    if driver.init_aux is not None:
        u0 = rng.uniforms(seed, rng.DOMAIN_DRIVER_INIT, paths, 0, 1)
        aux = driver.init_aux(n, u0)

    x_int = x0
    del x0  # so the start batch is freed once the first step replaces it
    x_eval = x_int.copy()
    x_eval[:, -1] = np.maximum(x_eval[:, -1], 0.0)
    states[:, 0, :] = x_eval
    pre_clip_min = x_int[:, -1].copy()
    n_clipped = 0
    for k in range(n_steps):
        t_k = t0 + k * h
        beta, xi = _eval_driver(driver, t_k, x_eval, aux, f"step {k}")
        z = rng.normals(seed, rng.DOMAIN_BROWNIAN, paths, k, driver.d)
        if observe is not None:
            observe(k, x_eval, beta, xi, z)
        x_int = _advance(x_int if scheme == "full_truncation" else x_eval, beta, xi, z, h, sqrt_h)
        del beta, xi, z  # not held through the next evaluation, where memory peaks
        np.minimum(pre_clip_min, x_int[:, -1], out=pre_clip_min)
        n_clipped += int(np.count_nonzero(x_int[:, -1] < 0.0))
        x_eval = x_int.copy()
        x_eval[:, -1] = np.maximum(x_eval[:, -1], 0.0)
        if driver.advance_aux is not None:
            u = rng.uniforms(seed, rng.DOMAIN_DRIVER, paths, k, 1)
            aux = driver.advance_aux(t_k, h, x_eval, aux, u)
        if (k + 1) % store_stride == 0:
            states[:, (k + 1) // store_stride, :] = x_eval
    return states, pre_clip_min, n_clipped, aux


def _advance(x: np.ndarray, beta, xi, z, h: float, sqrt_h: float) -> np.ndarray:
    """x + (beta h + xi z sqrt(h)), coordinate by coordinate: each increment is
    one contiguous (n,) row, added into that column of a new (n, d) state."""
    out = np.empty_like(x)
    for i in range(x.shape[1]):
        np.add(x[:, i], beta[:, i] * h + _dot(xi[:, i], z) * sqrt_h, out=out[:, i])
    return out


def _simulate(driver, x0, grid, n_paths, seed, scheme, store_stride, observe=None):
    """Kernel run of n_paths copies of x0 over ``grid``, as an ensemble; also the final aux."""
    states, pre_clip_min, n_clipped, aux = _euler_paths(
        driver, np.tile(x0, (n_paths, 1)), grid.start, grid.step, grid.n_steps, seed,
        scheme, store_stride, observe)
    ens = PathEnsemble(
        grid=TimeGrid(grid.start, grid.end, grid.step * store_stride), states=states,
        pre_clip_min_xd=pre_clip_min, n_clipped_steps=n_clipped,
        n_internal_steps=grid.n_steps * n_paths,
    )
    return ens, aux


def simulate_sde(
    model: CoefficientModel,
    start: SpaceTimePoint | np.ndarray,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    scheme: str = "full_truncation",
    store_stride: int = 1,
    observe: Callable | None = None,
) -> PathEnsemble:
    """Euler-Maruyama ensemble for dX = b dt + sqrt(x_d^+) varsigma dW.

    Deterministic given (config, seed); every stored state has x_d >= 0.
    ``store_stride`` keeps every stride-th node (endpoints always included) so
    long fine-step runs stay within memory.  ``observe`` is the kernel's
    observation hook, called at every step as :func:`_euler_paths` describes.
    """
    x0 = _as_start_state(start, model.d, grid)
    model.check_symmetry()
    return _simulate(model_driver(model), x0, grid, n_paths, seed, scheme, store_stride,
                     observe)[0]


def discounted_mean(model: CoefficientModel, g: Callable, x, horizon: float, n_paths: int,
                    step: float, seed: int, scheme: str = "full_truncation") -> tuple[float, float]:
    """Monte Carlo mean and standard error of exp(sum_k c(t_k, X_k) h) g(X_T).

    The paths are :func:`simulate_sde`'s from (0, x) at step h, stored at the
    endpoints only; the discount sums c along each path at the left endpoint
    t_k = k h of every step, at the clipped state the kernel's observation
    hook sees, so a c that vanishes on some lattice or at t = 0 still counts.
    """
    if n_paths < 2:
        raise ValueError("the standard error needs at least 2 paths")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    grid = TimeGrid(0.0, horizon, step)
    log_discount = np.zeros(n_paths)

    def observe(k, x_k, beta, xi, z):
        nonlocal log_discount
        log_discount += np.asarray(model.c(k * step, x_k), dtype=float) * step

    ens = simulate_sde(model, x, grid, n_paths, seed, scheme, grid.n_steps, observe)
    payoff = np.asarray(g(ens.states[:, -1, :]), dtype=float) * np.exp(log_discount)
    return float(payoff.mean()), float(payoff.std(ddof=1) / np.sqrt(n_paths))


def _outer_square(xi: np.ndarray) -> np.ndarray:
    """xi xi^* for a batch of (d, r) matrices, shape (n, d, d).

    One dot-product einsum per entry i <= j, mirrored to (j, i): bitwise
    equal to ``np.einsum("nik,njk->nij", xi, xi)`` (checked for d <= 3,
    r <= 4 in the tests) and several times faster for small d and r.
    """
    n, d, _ = xi.shape
    out = np.empty((n, d, d))
    for i in range(d):
        for j in range(i, d):
            out[:, i, j] = np.einsum("nk,nk->n", xi[:, i], xi[:, j])
            if j != i:
                out[:, j, i] = out[:, i, j]
    return out


def simulate_ito_process(
    driver: ItoDriver,
    start,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    spec: BinningSpec,
    store_stride: int = 1,
) -> PathEnsemble:
    """Euler ensemble for dX = beta dt + xi dW with half-space clipping.

    The kernel's ``absorbed_euler`` step, always (there is no ``scheme``), so
    a model-replay driver reproduces :func:`simulate_sde`'s absorbed-Euler
    ensemble bit for bit; the CLI's project and full-mimic driver ensembles
    step it whatever their ``ensemble.scheme``.  At each binning time of
    ``spec``, a node of ``grid`` (stored or not), the observation hook counts
    each path into its lattice cell and adds its beta and xi xi^* there, in
    path order, one ``np.bincount`` per entry (the bits of ``np.add.at``):
    these :class:`DriverSums` are what the estimator consumes.  xi xi^* is
    formed entry by entry (:func:`_outer_square`), with the same bits as one
    batched einsum.  The sample mean of int (|beta| + |xi xi^*|) dt is
    reported as an empirical integrability diagnostic, each norm summed
    column by column, row-major from +0.0 (``np.add.reduce``'s bits at
    d <= 2), and a high clip rate flags a driver whose noise does not vanish
    on the boundary.
    """
    x0 = _as_start_state(start, driver.d, grid)
    if spec.d != driver.d:
        raise ValueError(f"binning spec dimension {spec.d} != driver dimension {driver.d}")
    try:
        nodes = np.array([grid.node_index(t) for t in spec.times])
    except ValueError as err:
        raise ValueError(f"binning {err}") from None
    d, h = driver.d, grid.step
    n_cells = int(np.prod(spec.cell_shape))
    shape = (len(nodes), n_cells)
    sums = DriverSums(np.zeros(shape), np.zeros(shape + (d,)), np.zeros(shape + (d, d)), spec)
    boundary_viol = 0
    integrability = np.zeros(n_paths)

    def add_to_cells(k, x, beta, xi2):
        # each binning time is one node, so its cells are summed once, from 0
        for kt in np.flatnonzero(nodes == k):
            inside, idx = spec.cell_index(x)
            sums.occupancy[kt] = np.bincount(idx, minlength=n_cells)
            for i in range(d):
                sums.beta[kt, :, i] = np.bincount(idx, beta[:, i][inside], n_cells)
                for j in range(i, d):
                    sums.xi2[kt, :, i, j] = sums.xi2[kt, :, j, i] = np.bincount(
                        idx, xi2[:, i, j][inside], n_cells)

    def observe(k, x, beta, xi, z):
        nonlocal boundary_viol, integrability
        xi2 = _outer_square(xi)
        on_boundary = x[:, -1] == 0.0
        if np.any(on_boundary):
            boundary_viol += int(np.count_nonzero(
                np.abs(xi[on_boundary, -1, :]).max(axis=1) > 1e-12))
        add_to_cells(k, x, beta, xi2)
        # numpy.linalg.norm's Frobenius and 2-norms, without its conj() copy
        integrability += (np.sqrt(_dot(beta, beta))
                          + np.sqrt(_dot(xi2.reshape(-1, d * d), xi2.reshape(-1, d * d)))) * h

    ens, aux = _simulate(driver, x0, grid, n_paths, seed, "absorbed_euler", store_stride,
                         observe)
    if grid.n_steps in nodes:  # the hook does not see the final node
        x_end = np.ascontiguousarray(ens.states[:, -1, :])
        beta, xi = _eval_driver(driver, grid.end, x_end, aux, "final node")
        add_to_cells(grid.n_steps, x_end, beta, _outer_square(xi))
    return replace(ens, drivers=sums, integrability_mean=float(integrability.mean()),
                   boundary_row_violations=boundary_viol)


@dataclass(frozen=True)
class SupportReport:
    """Half-space support accounting for one ensemble."""

    violations: int
    max_negative_excursion_pre_clip: float
    p99_negative_excursion_pre_clip: float
    clip_fraction: float
    boundary_row_violations: int

    def to_json(self) -> dict:
        return asdict(self)


def support_check(ens: PathEnsemble) -> SupportReport:
    """Count stored states with x_d < 0 and summarize pre-clip excursions.

    Stored violations must be zero for any ensemble produced by this module;
    the pre-clip excursion distribution is a scheme-quality diagnostic, not a
    support violation.
    """
    violations = int(np.count_nonzero(ens.states[:, :, -1] < 0.0))
    excursions = np.maximum(-ens.pre_clip_min_xd, 0.0)
    return SupportReport(
        violations=violations,
        max_negative_excursion_pre_clip=float(excursions.max(initial=0.0)),
        p99_negative_excursion_pre_clip=float(np.percentile(excursions, 99.0)),
        clip_fraction=ens.n_clipped_steps / max(ens.n_internal_steps, 1),
        boundary_row_violations=ens.boundary_row_violations,
    )


def write_csv(fh: IO[str], header: Sequence[str], blocks: Iterable[Sequence[np.ndarray]]) -> None:
    """Write a CSV data artifact: the header, then one row per entry of each block of columns.

    A block holds equal-length 1-D arrays, one per header name.  Each value is written as
    the ``%r`` of its ``.tolist()`` int or float, so floats round-trip exactly.
    """
    fh.write(",".join(header) + "\n")
    row = ",".join(["%r"] * len(header)) + "\n"
    for columns in blocks:
        fh.write("".join(map(row.__mod__, zip(*(c.tolist() for c in columns)))))


def ensemble_to_csv(ens: PathEnsemble, fh: IO[str]) -> None:
    """Long-format CSV: (path_id, t, x_1..x_d) per stored node.

    Written by :func:`write_csv`, so the file round-trips exactly.  Paths are
    formatted and written a block at a time, which keeps the text held in
    memory to about ``_CSV_BLOCK_ROWS`` rows.
    """
    d, n_nodes = ens.d, ens.grid.n_steps + 1
    header = ["path_id", "t"] + [f"x_{i+1}" for i in range(d)]
    n_rows = ens.n_paths * n_nodes
    columns = [np.repeat(np.arange(ens.n_paths), n_nodes), np.tile(ens.grid.nodes, ens.n_paths),
               *ens.states.reshape(n_rows, d).T]
    block = max(1, _CSV_BLOCK_ROWS // n_nodes) * n_nodes
    write_csv(fh, header, ([c[r:r + block] for c in columns] for r in range(0, n_rows, block)))
