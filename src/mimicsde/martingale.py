"""Statistical checks of the martingale problem along simulated paths.

For a smooth test function v, the compensated process

    M^v_t = v(X_t) - v(X_s) - sum_k A v(t_k, X_k) h        (left-endpoint sum)

must be a martingale when X solves the SDE generated by A.  The tests here
work with the discrete chain directly: left-endpoint quadrature makes M^v an
exact discrete martingale for linear v, so positive and negative controls are
sharp.  Orthogonality against adapted probes is enforced structurally (probes
only ever see the path truncated at the interval's left endpoint), and
calibration and testing use disjoint halves of the ensemble.  M^v is
accumulated in one pass over the stored nodes for all test functions at once:
a and b are evaluated once per node, and ``martingale_test`` keeps M^v only at
its interval bounds.

A test function is one jet: ``jet(t, x)`` returns v, Dv and D^2 v at the
rows of x, of shapes (n,), (n, d) and (n, d, d), from one evaluation, and
every consumer reads that one evaluator.  The boundary Itô-formula check also
consumes the product x_d * Hessian as a single continuous evaluator, so
nothing is ever evaluated as 0 * infinity on the boundary; the stochastic
integral is accumulated from the same counter-based noise the simulator
consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng
from .coeffs import CoefficientModel, _generator_contract, diffusion_root
from .geometry import SpaceTimePoint
from .projection import _ks_statistic
from .sdesim import PathEnsemble, TimeGrid, _euler_paths, model_driver, simulate_sde

_FD_TOL = 1e-4
_FD_TIME = 0.37  # the time at which derivatives are probed
_RESTART_SEED_OFFSET = 0x517CC1B7  # the restart runs at seed + this


@dataclass
class TestFunction:
    """Evaluable v with analytic derivatives, self-checked at construction.

    ``jet(t, x)`` takes x of shape (n, d) and returns ``(value, grad, hess)``
    of shapes (n,), (n, d) and (n, d, d) from one evaluation; spatial
    functions simply ignore t.  A function is time-dependent exactly when it
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
            u = rng.uniforms(7, 105, np.arange(8, dtype=np.uint64), 0, self.d)
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


def linear_function(weights: Sequence[float], name: str | None = None) -> TestFunction:
    """v(x) = <w, x>.  Unbounded, so a harness extension rather than a compactly
    supported test function; kept because it makes the discrete martingale exact."""
    w = np.asarray(weights, dtype=float)
    d = w.shape[0]
    return TestFunction(
        name=name or "linear(" + ",".join(f"{v:g}" for v in w) + ")",
        d=d,
        jet=lambda t, x: (x @ w, np.broadcast_to(w, x.shape).copy(), np.zeros((x.shape[0], d, d))),
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
        # p1 * 0 term, which is -0.0 (p1 <= 0) and so would change no bit
        delta = [x[:, i] - c[i] for i in range(d)]
        psi, p1, p2 = _bump_psi(sum(col * col for col in delta) / r2)
        grad = np.empty((x.shape[0], d))
        hess = np.empty((x.shape[0], d, d))
        for i in range(d):
            grad[:, i] = p1 * (2.0 * delta[i] / r2)
            for j in range(i + 1):
                hij = p2 * ((delta[i] * delta[j] + 0.0) * (4.0 / (r2 * r2)))
                hess[:, i, j] = hess[:, j, i] = hij + p1 * (2.0 / r2) if i == j else hij
        return psi, grad, hess

    # probe points inside the support, kept at x_d > 0
    u8 = rng.uniforms(11, 105, np.arange(8, dtype=np.uint64), 0, d)
    pts = c + (u8 - 0.5) * radius
    pts[:, -1] = np.maximum(np.abs(pts[:, -1] - c[-1]) * 0.5 + max(c[-1], 0.05), 1e-3)

    return TestFunction(
        name=name or "bump(c=(" + ",".join(f"{v:g}" for v in c) + f"),R={radius:g})",
        d=d, jet=jet,
        xd_hess=lambda t, x: x[:, -1][:, None, None] * jet(t, x)[2],
        check_points=pts,
    )


def boundary_bump(center_prime: Sequence[float], radius: float, name: str | None = None) -> TestFunction:
    """Bump centered on the boundary x_d = 0; compact support in the closed half-space."""
    c = tuple(center_prime) + (0.0,)
    label = name or ("boundary_bump(c'=(" + ",".join(f"{float(v):g}" for v in center_prime)
                     + f"),R={radius:g})")
    return radial_bump(c, radius, name=label)


def time_weighted_xd(horizon: float) -> TestFunction:
    """v(t, x) = (horizon - t) * x_d: the canonical boundary-regular space-time function.

    Its raw hessian is zero, so x_d * hess is identically zero and the
    boundary evaluation never forms 0 * infinity.
    """

    def jet(t, x):
        w = horizon - np.asarray(t)
        g = np.zeros_like(x)
        g[:, -1] = w
        return w * x[:, -1], g, np.zeros((x.shape[0], x.shape[1], x.shape[1]))

    return TestFunction(
        name=f"(T-t)*x_d, T={horizon}",
        d=2,
        jet=jet,
        dt=lambda t, x: -x[:, -1],
        xd_hess=lambda t, x: np.zeros((x.shape[0], x.shape[1], x.shape[1])),
    )


def martingale_increments(ens: PathEnsemble, model: CoefficientModel, v: TestFunction) -> np.ndarray:
    """Per-path trajectory of M^v on the stored grid; M^v at the start is exactly 0.

    The compensator is summed at the stored step, which is the integrator's
    step only for stride-1 storage; coarser storage is rejected.
    """
    return _compensated(ens, model, [v], np.arange(ens.states.shape[1]))[0]


def _compensated(ens: PathEnsemble, model: CoefficientModel, vs: Sequence[TestFunction],
                 cols: np.ndarray) -> np.ndarray:
    """M^v of every v in ``vs`` at the stored nodes ``cols``: shape (len(vs), n, len(cols)).

    One pass over the stored nodes.  Node k's states are copied into one
    contiguous block reused at every node; a and b are evaluated on it once
    for all functions, and each function's jet there closes M^v at node k and
    drives step k's left-endpoint compensator.  Only the requested columns
    are kept; the node-0 values are copied, since a jet may return a view of
    the block.
    """
    if any(v.time_dependent for v in vs):
        raise ValueError("martingale increments are defined for spatial test functions")
    if ens.store_stride != 1:
        raise ValueError("ensemble must be stored at stride 1 for an exact compensator")
    nodes = ens.grid.nodes
    h = ens.grid.step
    n, m1, _ = ens.states.shape
    slot = {int(k): j for j, k in enumerate(cols)}
    out = np.empty((len(vs), n, len(slot)))
    v0 = [None] * len(vs)
    comp = np.zeros((len(vs), n))
    x = np.empty((n, ens.states.shape[2]), dtype=ens.states.dtype)
    for k in range(m1):
        t = nodes[k]
        np.copyto(x, ens.states[:, k, :])
        if k < m1 - 1:
            av, bv, xd = model.a(t, x), model.b(t, x), np.maximum(x[:, -1], 0.0)
        for i, v in enumerate(vs):
            val, g, hs = (np.asarray(a, dtype=float) for a in v.jet(t, x))
            if k == 0:
                v0[i] = val.copy()
            if k in slot:
                out[i, :, slot[k]] = 0.0 if k == 0 else val - v0[i] - comp[i]
            if k < m1 - 1:
                comp[i] += _generator_contract(av, bv, xd, g, hs) * h
    return out


@dataclass(frozen=True)
class AdaptedProbe:
    """A functional of the truncated path; adaptedness is enforced by shape.

    ``fn(times, states)`` receives only nodes up to the interval's left
    endpoint (states of shape (n_paths, k+1, d)) and returns (n_paths,).
    """

    name: str
    fn: Callable


def constant_probe() -> AdaptedProbe:
    return AdaptedProbe("const", lambda times, states: np.ones(states.shape[0]))


def left_coordinate_probe(i: int) -> AdaptedProbe:
    return AdaptedProbe(f"x_{i+1}(left)", lambda times, states: states[:, -1, i])


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
        return {"probe": self.probe, "t_lo": self.t_lo, "t_hi": self.t_hi,
                "mean": self.mean, "se": self.se, "z": self.z,
                "n_test": self.n_test, "status": self.status}


@dataclass(frozen=True)
class MartingaleReport:
    """Orthogonality statistics E[phi * (M_{t+} - M_t)] per interval and probe."""

    test_function: str
    entries: tuple[MartingaleTestEntry, ...]
    z_crit: float
    fail_crit: float

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
                "z_crit": self.z_crit, "fail_crit": self.fail_crit,
                "entries": [e.to_json() for e in self.entries]}


def martingale_test(
    ens: PathEnsemble,
    model: CoefficientModel,
    test_functions: Sequence[TestFunction],
    probes: Sequence[AdaptedProbe],
    n_intervals: int = 4,
    z_crit: float = 3.0,
    fail_crit: float = 5.0,
) -> list[MartingaleReport]:
    """Standardized test of E[phi * (M^v_{t_{i+1}} - M^v_{t_i})] = 0 for each v.

    One report per test function, labelled ``v.name``.  M^v of all the
    functions comes from one pass over the stored nodes and is kept only at
    the interval bounds, never as an (n_paths, n_nodes) array.  Even-indexed
    paths calibrate the variance, odd-indexed paths supply the tested mean, so
    no path is reused between estimation and testing.  |z| beyond ``z_crit``
    but within ``fail_crit`` is flagged inconclusive rather than failed; probes
    with degenerate variance are excluded and reported.
    """
    if n_intervals < 2:
        raise ValueError("need at least 2 sub-intervals")
    n, m1, _ = ens.states.shape
    nodes = ens.grid.nodes
    bounds = np.unique(np.round(np.linspace(0, m1 - 1, n_intervals + 1)).astype(int))
    mv = _compensated(ens, model, test_functions, bounds)
    cal = np.arange(n) % 2 == 0
    test = ~cal
    n_test = int(test.sum())

    entries = [[] for _ in test_functions]
    for j, (i0, i1) in enumerate(zip(bounds[:-1], bounds[1:])):
        phis = [np.asarray(p.fn(nodes[: i0 + 1], ens.states[:, : i0 + 1, :]), dtype=float)
                for p in probes]
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
                    elif abs(z) <= fail_crit:
                        status = "inconclusive"
                    else:
                        status = "fail"
                rows.append(MartingaleTestEntry(
                    probe=probe.name, t_lo=float(nodes[i0]), t_hi=float(nodes[i1]),
                    mean=mean, se=se, z=float(z), n_test=n_test, status=status))
    return [MartingaleReport(test_function=v.name, entries=tuple(rows),
                             z_crit=z_crit, fail_crit=fail_crit)
            for v, rows in zip(test_functions, entries)]


@dataclass(frozen=True)
class ItoResidualReport:
    """Gap between the two sides of the boundary Itô identity along paths."""

    step: float
    mean_abs_residual: float
    rms_residual: float
    max_abs_residual: float

    def to_json(self) -> dict:
        return {"step": self.step, "mean_abs_residual": self.mean_abs_residual,
                "rms_residual": self.rms_residual, "max_abs_residual": self.max_abs_residual}


def ito_formula_residual(ens: PathEnsemble, model: CoefficientModel, v: TestFunction) -> ItoResidualReport:
    """Both sides of the Itô identity for boundary-regular v, on the same noise.

    Requires stride-1 storage (the stochastic integral is rebuilt from the
    exact per-step normals the simulator consumed) and a v exposing v_t and
    the product x_d * Hessian as continuous evaluators.  The quadratic
    variation is booked as (1/2) x_d <a, Hess>, matching the generator
    convention used everywhere else.
    """
    if not v.time_dependent:
        raise ValueError("ito_formula_residual needs a time-dependent test function")
    if v.xd_hess is None:
        raise ValueError("v must expose x_d * hessian as a single continuous evaluator")
    if ens.store_stride != 1:
        raise ValueError("ensemble must be stored at stride 1 to rebuild the noise")
    nodes = ens.grid.nodes
    h = ens.grid.step
    sqrt_h = np.sqrt(h)
    n, m1, d = ens.states.shape
    paths = np.arange(n, dtype=np.uint64)

    stoch = np.zeros(n)
    quad = np.zeros(n)
    for k in range(m1 - 1):
        t = float(nodes[k])
        xk = np.ascontiguousarray(ens.states[:, k, :])
        g = np.asarray(v.jet(t, xk)[1], dtype=float)
        av = np.asarray(model.a(t, xk), dtype=float)
        sig = np.sqrt(np.maximum(xk[:, -1], 0.0))[:, None, None] * diffusion_root(av)
        z = rng.normals(ens.seed, rng.DOMAIN_BROWNIAN, paths, k, d)
        stoch += np.einsum("ni,nij,nj->n", g, sig, z) * sqrt_h
        xdh = np.asarray(v.xd_hess(t, xk), dtype=float)
        quad += (np.asarray(v.dt(t, xk), dtype=float)
                 + np.einsum("ni,ni->n", np.asarray(model.b(t, xk), dtype=float), g)
                 + 0.5 * np.einsum("nij,nij->n", av, xdh)) * h

    lhs = (np.asarray(v.jet(nodes[-1], ens.states[:, -1, :])[0], dtype=float)
           - np.asarray(v.jet(nodes[0], ens.states[:, 0, :])[0], dtype=float))
    resid = lhs - stoch - quad
    return ItoResidualReport(
        step=h,
        mean_abs_residual=float(np.mean(np.abs(resid))),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        max_abs_residual=float(np.abs(resid).max()),
    )


def ito_residual_ladder(
    model: CoefficientModel,
    v: TestFunction,
    start: SpaceTimePoint,
    horizon: float,
    steps: Sequence[float],
    n_paths: int,
    seed: int,
    scheme: str = "full_truncation",
) -> dict:
    """Residual decay of `ito_formula_residual` across a step-size ladder."""
    reports = []
    for h in steps:
        grid = TimeGrid(start.t, start.t + horizon, h)
        ens = simulate_sde(model, start, grid, n_paths, seed, scheme)
        reports.append(ito_formula_residual(ens, model, v))
    means = [r.mean_abs_residual for r in reports]
    ratios = [means[i] / means[i + 1] for i in range(len(means) - 1)]
    return {"steps": list(steps), "mean_abs_residuals": means,
            "halving_ratios": ratios,
            "reports": [r.to_json() for r in reports]}


@dataclass(frozen=True)
class RestartBinEntry:
    g: str
    bin_lo: float
    bin_hi: float
    count: int
    ks: float
    passed: bool

    def to_json(self) -> dict:
        return {"g": self.g, "bin_lo": self.bin_lo, "bin_hi": self.bin_hi,
                "count": self.count, "ks": self.ks, "passed": self.passed}


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
    (capped paths record a hit at the cap).  Each path's continuation value
    g(X(tau+u)) is compared with a fresh simulation of length u restarted at
    (tau, X(tau)) under the independent seed seed + 0x517CC1B7, stratified
    into occupancy bins of X_d(tau); distributional agreement per bin is the
    pass criterion.
    ``perturb`` shifts the restart state and serves as the negative control.
    """
    if u <= 0:
        raise ValueError("continuation horizon u must be positive")
    grid = TimeGrid(start.t, start.t + t_cap + u, h)
    ens = simulate_sde(model, start, grid, n_paths, seed, scheme)
    nodes = ens.grid.nodes
    k_cap = ens.grid.node_index(start.t + t_cap)
    u_steps = int(round(u / h))
    if abs(u_steps * h - u) > 1e-9:
        raise ValueError("u must be a multiple of the step h")

    xd = ens.states[:, : k_cap + 1, -1]
    hit = xd <= level
    any_hit = hit.any(axis=1)
    first = np.where(any_hit, hit.argmax(axis=1), k_cap)
    n_capped = int(np.count_nonzero(~any_hit))

    rows = np.arange(n_paths)
    x_tau = ens.states[rows, first, :]
    t_tau = nodes[first]
    x_cont = ens.states[rows, first + u_steps, :]

    x_restart0 = x_tau.copy()
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
