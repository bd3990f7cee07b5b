"""Statistical checks of the martingale problem along simulated paths.

For a smooth test function v, the compensated process

    M^v_t = v(X_t) - v(X_s) - sum_k A v(t_k, X_k) h        (left-endpoint sum)

must be a martingale when X solves the SDE generated by A.  The tests here
work with the discrete chain directly: left-endpoint quadrature makes M^v an
exact discrete martingale for linear v, so positive and negative controls are
sharp.  A probe is a function of (t, X_t) at an interval's left endpoint, so
it is adapted by construction, and calibration and testing use disjoint
halves of the ensemble.  M^v of all test functions is summed in the Euler
kernel's observation hook during the one pass that simulates the paths: a and
b are evaluated once per step, M^v and the state are kept only at the
requested nodes, and no path is stored beyond its endpoints.

A test function is one jet: ``jet(t, x)`` returns v, Dv and D^2 v at the
rows of x, of shapes (n,), (n, d) and (n, d, d), from one evaluation, and
every consumer reads that one evaluator.  The boundary Itô-formula check also
consumes the product x_d * Hessian as a single continuous evaluator, so
nothing is ever evaluated as 0 * infinity on the boundary; it too sums along
the kernel's pass in the observation hook, from the very normals and sigma
each step used.  The strong-Markov restart finds its stopping time in that
hook too, and restarts the kernel from each path's (tau, X(tau)).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng
from .coeffs import CoefficientModel, _dot, _entry_major, _frobenius, _generator_contract
from .geometry import SpaceTimePoint
from .projection import _ks_statistic
from .sdesim import TimeGrid, _euler_paths, model_driver, simulate_sde

_FD_TOL = 1e-4
_FD_TIME = 0.37  # the time at which derivatives are probed
_RESTART_SEED_OFFSET = 0x517CC1B7  # the restart runs at seed + this
_FAIL_CRIT = 5.0  # |z| beyond which a martingale-test entry fails rather than reads inconclusive


@dataclass
class TestFunction:
    """Evaluable v with analytic derivatives, self-checked at construction.

    ``jet(t, x)`` takes x of shape (n, d) and returns ``(value, grad, hess)``
    of shapes (n,), (n, d) and (n, d, d) from one evaluation, in any memory
    layout: the bumps return entry-major (d, n) and (d, d, n) storage as
    transposed views, and the linear function broadcast derivatives, so the
    compensator's column arithmetic reads contiguous or constant columns; its
    sums run from +0.0 in einsum's order, bit-identical to einsum at d <= 2
    and at rounding level from it at d >= 3.  Spatial functions simply
    ignore t.  A function is time-dependent exactly when it
    supplies ``dt`` (v_t); to be usable at the degenerate boundary it also
    supplies ``xd_hess`` — the product x_d * Hessian as one continuous
    evaluator.  The jet's derivatives are probed against its own finite
    differences at construction (relative tolerance 1e-4) at
    ``check_points`` and t = 0.37.
    """

    name: str
    d: int
    jet: Callable
    dt: Callable | None = None
    xd_hess: Callable | None = None
    check_points: np.ndarray | None = None

    def __post_init__(self) -> None:
        self._self_check()

    @property
    def time_dependent(self) -> bool:
        return self.dt is not None

    def _self_check(self) -> None:
        pts = self.check_points
        if pts is None:
            u = rng.uniforms(7, 105, range(8), 0, self.d)
            pts = 0.2 + 0.6 * u
        pts = np.asarray(pts, dtype=float)
        t = _FD_TIME
        eps = 1e-5
        val, g_an, h_an = (np.asarray(a, dtype=float) for a in self.jet(t, pts))
        scale = max(1.0, float(np.abs(val).max()))

        g_fd = np.empty_like(g_an)
        h_fd = np.empty((pts.shape[0], self.d, self.d))
        for i in range(self.d):
            e = np.zeros(self.d)
            e[i] = eps
            v_hi, g_hi, _ = self.jet(t, pts + e)
            v_lo, g_lo, _ = self.jet(t, pts - e)
            g_fd[:, i] = (v_hi - v_lo) / (2 * eps)
            h_fd[:, :, i] = (np.asarray(g_hi) - np.asarray(g_lo)) / (2 * eps)
        if np.abs(g_fd - g_an).max() > _FD_TOL * max(scale, np.abs(g_an).max()):
            raise ValueError(f"test function {self.name!r}: gradient fails finite-difference check")
        if np.abs(h_fd - h_an).max() > _FD_TOL * max(scale, np.abs(h_an).max(), 1.0):
            raise ValueError(f"test function {self.name!r}: hessian fails finite-difference check")
        if self.time_dependent:
            d_fd = (np.asarray(self.jet(t + eps, pts)[0])
                    - np.asarray(self.jet(t - eps, pts)[0])) / (2 * eps)
            d_an = np.asarray(self.dt(t, pts), dtype=float)
            if np.abs(d_fd - d_an).max() > _FD_TOL * max(scale, np.abs(d_an).max(), 1.0):
                raise ValueError(f"test function {self.name!r}: dt fails finite-difference check")
        if self.xd_hess is not None:
            prod_an = np.asarray(self.xd_hess(t, pts), dtype=float)
            prod_ref = pts[:, -1][:, None, None] * h_an
            if np.abs(prod_an - prod_ref).max() > _FD_TOL * max(1.0, np.abs(prod_ref).max()):
                raise ValueError(f"test function {self.name!r}: xd_hess inconsistent with x_d * hess")


def linear_function(weights: Sequence[float]) -> TestFunction:
    """v(x) = <w, x>.  Unbounded, so a harness extension rather than a compactly
    supported test function; kept because it makes the discrete martingale exact."""
    w = np.asarray(weights, dtype=float)
    d = w.shape[0]
    return TestFunction(
        name="linear(" + ",".join(f"{v:g}" for v in w) + ")",
        d=d,
        jet=lambda t, x: (x @ w, np.broadcast_to(w, x.shape),
                          np.broadcast_to(np.zeros((d, d)), (x.shape[0], d, d))),
        xd_hess=lambda t, x: np.zeros((x.shape[0], d, d)),
    )


def _bump_psi(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi(u) = exp(1 - 1/(1-u)) on [0,1), 0 beyond, with first two derivatives."""
    inside = u < 1.0
    om = np.where(inside, 1.0 - u, 1.0)
    with np.errstate(over="ignore", under="ignore"):
        psi = np.where(inside, np.exp(1.0 - 1.0 / om), 0.0)
    p1 = -psi / om**2
    p2 = psi / om**4 - 2.0 * psi / om**3
    return psi, p1, p2


def radial_bump(center: Sequence[float], radius: float, name: str | None = None) -> TestFunction:
    """Smooth bump psi(|x-c|^2 / R^2) with compact support in the ball of radius R."""
    c = np.asarray(center, dtype=float)
    d = c.shape[0]
    r2 = radius * radius

    def jet(t, x):
        # 1-D columns with the bits of the (n, d) broadcast form the tests
        # compare against: squares summed left to right; outer products added
        # to +0.0, as einsum does (a -0.0 becomes +0.0); off the diagonal no
        # p1 * 0 term, which is -0.0 (p1 <= 0) and so would change no bit.
        # The derivatives are stored entry-major.
        delta = [x[:, i] - c[i] for i in range(d)]
        psi, p1, p2 = _bump_psi(sum(col * col for col in delta) / r2)
        grad = np.empty((d, x.shape[0])).T
        hess = _entry_major(x.shape[0], d)
        for i in range(d):
            np.multiply(p1, 2.0 * delta[i] / r2, out=grad[:, i])
            for j in range(i + 1):
                hij = np.multiply(p2, (delta[i] * delta[j] + 0.0) * (4.0 / (r2 * r2)),
                                  out=hess[:, i, j])
                if i == j:
                    hij += p1 * (2.0 / r2)
                else:
                    hess[:, j, i] = hij
        return psi, grad, hess

    # probe points inside the support, kept at x_d > 0
    u8 = rng.uniforms(11, 105, range(8), 0, d)
    pts = c + (u8 - 0.5) * radius
    pts[:, -1] = np.maximum(np.abs(pts[:, -1] - c[-1]) * 0.5 + max(c[-1], 0.05), 1e-3)

    return TestFunction(
        name=name or "bump(c=(" + ",".join(f"{v:g}" for v in c) + f"),R={radius:g})",
        d=d, jet=jet,
        xd_hess=lambda t, x: x[:, -1][:, None, None] * jet(t, x)[2],
        check_points=pts,
    )


def boundary_bump(center_prime: Sequence[float], radius: float) -> TestFunction:
    """Bump centered on the boundary x_d = 0; compact support in the closed half-space."""
    c = tuple(center_prime) + (0.0,)
    label = ("boundary_bump(c'=(" + ",".join(f"{float(v):g}" for v in center_prime)
             + f"),R={radius:g})")
    return radial_bump(c, radius, name=label)


def martingale_increments(model: CoefficientModel, generator: CoefficientModel,
                          test_functions: Sequence[TestFunction], nodes: Sequence[int],
                          start: SpaceTimePoint, grid: TimeGrid, n_paths: int, seed: int,
                          scheme: str = "full_truncation") -> tuple[np.ndarray, list]:
    """M^v of every test function at the grid nodes ``nodes``, from one kernel pass.

    The paths are :func:`simulate_sde`'s of ``model``, stored at the endpoints
    only; ``generator`` compensates.  At step k the observation hook sees the
    clipped state at t_k = t0 + k h: a and b are evaluated there once for all
    functions (b is the step's own drift when ``generator`` is ``model``, and
    the generator's b otherwise, so a broken generator still compensates with
    its own), and each jet closes M^v at node k and drives step k's
    left-endpoint compensator, contracted column by column
    (:func:`.coeffs._generator_contract`).  The final node is closed from the stored
    endpoint.  Returns M^v, (len(test_functions), n_paths, len(nodes)) and 0
    at node 0, and the states (n_paths, d) at the nodes, which the kernel
    never writes again.
    """
    if any(v.time_dependent for v in test_functions):
        raise ValueError("martingale increments are defined for spatial test functions")
    m, h = grid.n_steps, grid.step
    slot = {int(k): j for j, k in enumerate(nodes)}
    if len(slot) != len(nodes) or not all(0 <= k <= m for k in slot):
        raise ValueError(f"nodes must be distinct nodes 0..{m} of the grid")
    out = np.empty((len(test_functions), n_paths, len(slot)))
    states = [None] * len(slot)
    v0 = [None] * len(test_functions)
    comp = np.zeros((len(test_functions), n_paths))

    def close(k, x, beta):  # beta: step k's drift, None at the final node
        t = grid.start + k * h
        step = beta is not None
        if step:
            bv = beta if generator is model else generator.b(t, x)
            av, xd = generator.a(t, x), np.maximum(x[:, -1], 0.0)
        if k in slot:
            states[slot[k]] = x
        for i, v in enumerate(test_functions):
            val, g, hs = (np.asarray(a, dtype=float) for a in v.jet(t, x))
            if k == 0:
                v0[i] = val
            if k in slot:
                out[i, :, slot[k]] = 0.0 if k == 0 else val - v0[i] - comp[i]
            if step:
                comp[i] += _generator_contract(av, bv, xd, g, hs) * h

    # endpoints only; a grid of no steps stores its one node
    ens = simulate_sde(model, start, grid, n_paths, seed, scheme, max(m, 1),
                       observe=lambda k, x, beta, xi, z: close(k, x, beta))
    close(m, np.ascontiguousarray(ens.states[:, -1, :]), None)
    return out, states


@dataclass(frozen=True)
class AdaptedProbe:
    """A function of the state at an interval's left endpoint, so adapted by construction.

    ``fn(t, x)`` receives the left endpoint's time t and states x of shape
    (n_paths, d) and returns (n_paths,).
    """

    name: str
    fn: Callable


def constant_probe() -> AdaptedProbe:
    return AdaptedProbe("const", lambda t, x: np.ones(x.shape[0]))


def left_coordinate_probe(i: int) -> AdaptedProbe:
    return AdaptedProbe(f"x_{i+1}(left)", lambda t, x: x[:, i])


@dataclass(frozen=True)
class MartingaleTestEntry:
    probe: str
    t_lo: float
    t_hi: float
    mean: float
    se: float
    z: float
    n_test: int
    status: str  # pass | inconclusive | fail | excluded

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MartingaleReport:
    """Orthogonality statistics E[phi * (M_{t+} - M_t)] per interval and probe."""

    test_function: str
    entries: tuple[MartingaleTestEntry, ...]
    z_crit: float

    @property
    def overall(self) -> str:
        statuses = [e.status for e in self.entries if e.status != "excluded"]
        if any(s == "fail" for s in statuses):
            return "fail"
        if any(s == "inconclusive" for s in statuses):
            return "inconclusive"
        return "pass"

    @property
    def passed(self) -> bool:
        return self.overall == "pass"

    @property
    def max_abs_z(self) -> float:
        zs = [abs(e.z) for e in self.entries if e.status != "excluded"]
        return max(zs, default=0.0)

    def to_json(self) -> dict:
        return {"test_function": self.test_function,
                "overall": self.overall, "max_abs_z": self.max_abs_z,
                "z_crit": self.z_crit, "fail_crit": _FAIL_CRIT,
                "entries": [e.to_json() for e in self.entries]}


def martingale_test(model: CoefficientModel, generator: CoefficientModel,
                    test_functions: Sequence[TestFunction], probes: Sequence[AdaptedProbe],
                    start: SpaceTimePoint, grid: TimeGrid, n_paths: int, seed: int,
                    scheme: str = "full_truncation", n_intervals: int = 4,
                    z_crit: float = 3.0) -> list[MartingaleReport]:
    """Standardized test of E[phi * (M^v_{t_{i+1}} - M^v_{t_i})] = 0 for each v.

    One report per test function, labelled ``v.name``, on ``model``'s paths
    compensated by ``generator``: M^v and the states the probes read are
    :func:`martingale_increments`' at the interval bounds.  Even-indexed paths
    calibrate the variance, odd-indexed paths supply the tested mean, so no
    path is reused between estimation and testing.  |z| beyond ``z_crit`` but
    within 5 is flagged inconclusive rather than failed; probes
    with degenerate variance are excluded and reported.
    """
    if not test_functions or not probes:
        raise ValueError("need at least one test function and one probe")
    if n_intervals < 2:
        raise ValueError("need at least 2 sub-intervals")
    if grid.n_steps < n_intervals:  # else rounded interval bounds coincide
        raise ValueError(f"the time grid's {grid.n_steps} steps cannot bound "
                         f"{n_intervals} sub-intervals")
    nodes = grid.nodes
    bounds = np.round(np.linspace(0, grid.n_steps, n_intervals + 1)).astype(int)
    mv, states = martingale_increments(model, generator, test_functions, bounds, start, grid,
                                       n_paths, seed, scheme)
    cal = np.arange(n_paths) % 2 == 0
    test = ~cal
    n_test = int(test.sum())

    entries = [[] for _ in test_functions]
    for j, (i0, i1) in enumerate(zip(bounds[:-1], bounds[1:])):
        phis = [np.asarray(p.fn(nodes[i0], states[j]), dtype=float) for p in probes]
        for m_v, rows in zip(mv, entries):
            dm = m_v[:, j + 1] - m_v[:, j]
            for probe, phi in zip(probes, phis):
                y = phi * dm
                var_cal = float(np.var(y[cal], ddof=1))
                mean = float(np.mean(y[test]))
                if not np.isfinite(var_cal) or var_cal <= 0.0:
                    se, z, status = 0.0, 0.0, "excluded"
                else:
                    se = float(np.sqrt(var_cal / n_test))
                    z = mean / se
                    if abs(z) <= z_crit:
                        status = "pass"
                    elif abs(z) <= _FAIL_CRIT:
                        status = "inconclusive"
                    else:
                        status = "fail"
                rows.append(MartingaleTestEntry(
                    probe=probe.name, t_lo=float(nodes[i0]), t_hi=float(nodes[i1]),
                    mean=mean, se=se, z=float(z), n_test=n_test, status=status))
    return [MartingaleReport(test_function=v.name, entries=tuple(rows),
                             z_crit=z_crit)
            for v, rows in zip(test_functions, entries)]


@dataclass(frozen=True)
class ItoResidualReport:
    """Gap between the two sides of the boundary Itô identity along paths."""

    step: float
    mean_abs_residual: float
    rms_residual: float
    max_abs_residual: float

    def to_json(self) -> dict:
        return asdict(self)


def ito_formula_residual(model: CoefficientModel, v: TestFunction, start: SpaceTimePoint,
                         grid: TimeGrid, n_paths: int, seed: int, scheme: str) -> ItoResidualReport:
    """Both sides of the Itô identity for boundary-regular v along simulated paths.

    The paths are :func:`simulate_sde`'s from ``start`` over ``grid``, stored
    at the endpoints only.  The kernel's observation hook sums both sides at
    the left endpoint t_k = t0 + k h of every step, from the state, drift, sigma
    and normals that the step itself used; v must expose v_t and the product
    x_d * Hessian as continuous evaluators.  The quadratic variation is
    booked as (1/2) x_d <a, Hess>, matching the generator convention used
    everywhere else.  Both sides are summed in column arithmetic
    (:func:`.coeffs._dot`, :func:`.coeffs._frobenius`), einsum's bits at d <= 2.
    """
    if not v.time_dependent:
        raise ValueError("ito_formula_residual needs a time-dependent test function")
    if v.xd_hess is None:
        raise ValueError("v must expose x_d * hessian as a single continuous evaluator")
    h = grid.step
    sqrt_h = np.sqrt(h)
    stoch = np.zeros(n_paths)
    quad = np.zeros(n_paths)

    def observe(k, x, beta, xi, z):
        nonlocal stoch, quad
        t = grid.start + k * h
        g = np.asarray(v.jet(t, x)[1], dtype=float)
        # g . xi z as the products (g_i xi_ij) z_j, summed row-major in (i, j)
        g_xi = (g[:, :, None] * xi).reshape(len(g), -1)
        stoch += _dot(g_xi, np.tile(z, (1, z.shape[1]))) * sqrt_h
        quad += (np.asarray(v.dt(t, x), dtype=float) + _dot(beta, g)
                 + 0.5 * _frobenius(np.asarray(model.a(t, x), dtype=float),
                                    np.asarray(v.xd_hess(t, x), dtype=float))) * h

    # endpoints only; a grid of no steps stores its one node
    ens = simulate_sde(model, start, grid, n_paths, seed, scheme, max(grid.n_steps, 1), observe)
    lhs = (np.asarray(v.jet(grid.start + grid.n_steps * h, ens.states[:, -1, :])[0], dtype=float)
           - np.asarray(v.jet(grid.start, ens.states[:, 0, :])[0], dtype=float))
    resid = lhs - stoch - quad
    return ItoResidualReport(
        step=h,
        mean_abs_residual=float(np.mean(np.abs(resid))),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        max_abs_residual=float(np.abs(resid).max()),
    )


@dataclass(frozen=True)
class RestartBinEntry:
    g: str
    bin_lo: float
    bin_hi: float
    count: int
    ks: float
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RestartReport:
    """Continuation vs fresh-restart comparison at a stopping time."""

    n_hits: int
    n_capped: int
    entries: tuple[RestartBinEntry, ...]
    merged_bins: int
    ks_threshold: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_ks(self) -> float:
        return max((e.ks for e in self.entries), default=0.0)

    def to_json(self) -> dict:
        return {"n_hits": self.n_hits, "n_capped": self.n_capped,
                "merged_bins": self.merged_bins, "ks_threshold": self.ks_threshold,
                "passed": self.passed, "max_ks": self.max_ks,
                "entries": [e.to_json() for e in self.entries]}


def strong_markov_restart_test(
    model: CoefficientModel,
    start: SpaceTimePoint,
    level: float,
    t_cap: float,
    u: float,
    g_list: Sequence[tuple[str, Callable]],
    n_paths: int,
    h: float,
    seed: int,
    scheme: str = "full_truncation",
    n_bins: int = 4,
    min_bin: int = 200,
    ks_threshold: float = 0.05,
    perturb: Sequence[float] | None = None,
) -> RestartReport:
    """Compare continuation beyond a stopping time with an independent restart.

    The stopping rule is tau = first node with x_d <= level, capped at t_cap
    (capped paths record a hit at the cap); t_cap and t_cap + u must be grid
    nodes, checked before any path is simulated.  One :func:`simulate_sde`
    pass stores endpoints only and keeps X(tau) and X(tau+u) in its hook.
    Each path's continuation value g(X(tau+u)) is compared with a fresh
    simulation of length u restarted at (tau, X(tau)) under the independent
    seed seed + 0x517CC1B7, stratified into occupancy bins of X_d(tau);
    distributional agreement per bin is the pass criterion.
    ``perturb`` shifts the restart state and serves as the negative control.
    """
    if u < h / 2:  # u is a whole number of steps once the check below passes
        raise ValueError("continuation horizon u must be at least one step h")
    for name, value, end in (("t_cap", t_cap, t_cap), ("u", u, t_cap + u)):
        k = end / h
        if abs(k - round(k)) > 1e-9 * max(1.0, k):
            raise ValueError(f"{name} = {value:g} makes t = {start.t + end:g} not a node of the "
                             f"time grid of step h = {h:g}")
    grid = TimeGrid(start.t, start.t + t_cap + u, h)
    k_cap = grid.node_index(start.t + t_cap)
    u_steps = grid.n_steps - k_cap
    stop = np.full(n_paths, grid.n_steps + 1)  # above k_cap until the path stops
    x_tau = np.empty((n_paths, start.d))
    x_cont = np.empty((n_paths, start.d))

    def observe(k, x, beta, xi, z):
        if k <= k_cap:
            now = (stop > k_cap) & ((x[:, -1] <= level) | (k == k_cap))
            stop[now] = k
            x_tau[now] = x[now]
        due = stop + u_steps == k
        x_cont[due] = x[due]

    # endpoints only: paths stopped at the cap continue to the last node
    ens = simulate_sde(model, start, grid, n_paths, seed, scheme, grid.n_steps, observe)
    last = stop == k_cap
    x_cont[last] = ens.states[last, -1, :]
    n_capped = int(np.count_nonzero(x_tau[:, -1] > level))
    t_tau = grid.nodes[stop]

    x_restart0 = x_tau
    if perturb is not None:
        x_restart0 = x_restart0 + np.asarray(perturb, dtype=float)
        x_restart0[:, -1] = np.maximum(x_restart0[:, -1], 0.0)
    # the simulator's own kernel, from per-path (tau, X(tau)), keeping only the end
    x_rest = _euler_paths(model_driver(model), x_restart0, t_tau, h, u_steps,
                          seed + _RESTART_SEED_OFFSET, scheme, store_stride=u_steps)[0][:, -1, :]

    # occupancy bins of X_d(tau); undersized bins merge rightward
    qs = np.quantile(x_tau[:, -1], np.linspace(0.0, 1.0, n_bins + 1))
    qs[0], qs[-1] = -np.inf, np.inf
    assign = np.clip(np.searchsorted(qs, x_tau[:, -1], side="right") - 1, 0, n_bins - 1)
    merged = 0
    counts = np.bincount(assign, minlength=n_bins)
    relabel = np.arange(n_bins)
    for b in range(n_bins - 1):
        if counts[b] < min_bin:
            counts[b + 1] += counts[b]
            counts[b] = 0
            relabel[relabel == b] = b + 1
            merged += 1
    if counts[n_bins - 1] < min_bin and n_bins > 1:
        keep = np.where(counts[: n_bins - 1] > 0)[0]
        if keep.size:
            relabel[relabel == n_bins - 1] = keep[-1]
            merged += 1
    assign = relabel[assign]

    entries = []
    for b in np.unique(assign):
        sel = assign == b
        lo = float(x_tau[sel, -1].min())
        hi = float(x_tau[sel, -1].max())
        for gname, g in g_list:
            gc = np.asarray(g(x_cont[sel]), dtype=float)
            gr = np.asarray(g(x_rest[sel]), dtype=float)
            ks = _ks_statistic(np.sort(gc), np.sort(gr))
            entries.append(RestartBinEntry(g=gname, bin_lo=lo, bin_hi=hi,
                                           count=int(sel.sum()), ks=ks,
                                           passed=bool(ks <= ks_threshold)))
    return RestartReport(n_hits=n_paths, n_capped=n_capped,
                         entries=tuple(entries), merged_bins=merged,
                         ks_threshold=ks_threshold)
