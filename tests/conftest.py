from dataclasses import asdict, dataclass

import numpy as np
import pytest

import mimicsde as m
from mimicsde import geometry
from mimicsde.coeffs import _generator_contract
from mimicsde.projection import _ks_statistic


# the acceptance suite's Heston parameters
HESTON = {"kappa": 1.5, "theta": 0.04, "zeta": 0.3, "rho": -0.5, "r": 0.02, "q": 0.0}


@pytest.fixture(scope="session")
def heston():
    return m.heston_model(**HESTON)


@pytest.fixture(scope="session")
def heston_killing():
    return m.heston_model(**HESTON, with_killing=True)


def heston_cf(u, t: float, x0) -> complex:
    """E[exp(i u . X_t) | X_0 = x0] for the ``heston`` fixture's model, in closed form.

    Heston is affine: the transform is exp(A(t) + i u_1 x0_1 + B(t) x0_2), where
    B solves the Riccati equation B' = (phi^2 - phi)/2 + (rho zeta phi - kappa) B
    + zeta^2 B^2 / 2 from B(0) = i u_2, phi = i u_1, and A' = (r - q) phi + kappa
    theta B.  With roots lo, hi = (kappa - rho zeta phi -+ d) / zeta^2, the ratio
    w = (B - lo) / (B - hi) decays as w0 e^{-d t}.  This is the stable branch of
    Albrecher et al. (2007), "The little Heston trap", with w0 = g at u_2 = 0:
    while |w0| < 1, 1 - w stays in the right half-plane and the principal log
    is continuous in t.
    """
    kappa, theta, zeta, rho, r, q = HESTON.values()
    phi, b0 = 1j * u[0], 1j * u[1]
    beta = kappa - rho * zeta * phi
    d = np.sqrt(beta**2 - zeta**2 * (phi * phi - phi))
    lo, hi = (beta - d) / zeta**2, (beta + d) / zeta**2
    w0 = (b0 - lo) / (b0 - hi)
    assert abs(w0) < 1, "u is off the stable branch"
    w = w0 * np.exp(-d * t)
    b = (lo - hi * w) / (1 - w)
    a = (r - q) * phi * t + kappa * theta * (lo * t - 2 / zeta**2 * np.log((1 - w) / (1 - w0)))
    return complex(np.exp(a + phi * x0[0] + b * x0[1]))


def generator_apply_batch(model: m.CoefficientModel, t, x: np.ndarray, grads: np.ndarray,
                          hesss: np.ndarray) -> np.ndarray:
    """Vectorized generator: (1/2) x_d <a, H> + b . grad over a batch of points."""
    return _generator_contract(model.a(t, x), model.b(t, x), np.maximum(x[..., -1], 0.0),
                               grads, hesss)


def time_weighted_xd(horizon: float) -> m.TestFunction:
    """v(t, x) = (horizon - t) * x_d: the canonical boundary-regular space-time function.

    Its raw hessian is zero, so x_d * hess is identically zero and the
    boundary evaluation never forms 0 * infinity.
    """

    def jet(t, x):
        w = horizon - np.asarray(t)
        g = np.zeros_like(x)
        g[:, -1] = w
        return w * x[:, -1], g, np.zeros((x.shape[0], x.shape[1], x.shape[1]))

    return m.TestFunction(
        name=f"(T-t)*x_d, T={horizon}",
        d=2,
        jet=jet,
        dt=lambda t, x: -x[:, -1],
        xd_hess=lambda t, x: np.zeros((x.shape[0], x.shape[1], x.shape[1])),
    )


def ito_residual_ladder(model: m.CoefficientModel, v: m.TestFunction, start: m.SpaceTimePoint,
                        horizon: float, steps, n_paths: int, seed: int,
                        scheme: str = "full_truncation") -> dict:
    """Residual decay of ``ito_formula_residual`` across a step-size ladder."""
    reports = [m.ito_formula_residual(model, v, start, m.TimeGrid(start.t, start.t + horizon, h),
                                      n_paths, seed, scheme) for h in steps]
    means = [r.mean_abs_residual for r in reports]
    ratios = [means[i] / means[i + 1] for i in range(len(means) - 1)]
    return {"steps": list(steps), "mean_abs_residuals": means,
            "halving_ratios": ratios,
            "reports": [r.to_json() for r in reports]}


def same_law_ks_quantile(x: np.ndarray, y: np.ndarray, n_boot: int = 200, q: float = 0.99,
                         seed: int = 0) -> float:
    """Permutation quantile of the two-sample KS statistic under the same-law null.

    Raises ``ValueError`` on an empty or non-finite sample.
    """
    pool = np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    nx = len(x)
    gen = np.random.default_rng(seed)
    stats = np.empty(n_boot)
    for b in range(n_boot):
        perm = gen.permutation(pool)
        stats[b] = _ks_statistic(np.sort(perm[:nx]), np.sort(perm[nx:]))
    return float(np.quantile(stats, q))


@pytest.fixture(scope="session")
def start():
    return m.SpaceTimePoint(0.0, (0.0, 0.09))


@pytest.fixture(scope="session")
def gridded_model(heston):
    """A time-dependent mimicking model: 4 time layers on an 8 x 8-cell lattice."""
    grid = m.TimeGrid(0.0, 1.0, 2.0**-4)
    e1 = np.linspace(-1.5, 1.5, 9)
    e2 = np.concatenate([[0.0], 0.5 * np.linspace(0.05, 1.0, 8) ** 1.3])
    spec = m.BinningSpec(times=(0.25, 0.5, 0.75, 1.0), edges=(e1, e2), min_count=5)
    ens = m.simulate_ito_process(m.model_driver(heston), np.array([0.0, 0.09]),
                                 grid, 2000, 31, spec, store_stride=2)
    return m.build_mimicking_model(m.estimate_mimicking_coefficients(ens),
                                   max_masked_fraction=0.99)


def zero_model(d: int = 2) -> m.CoefficientModel:
    return m.CoefficientModel(
        d=d,
        a=lambda t, x: np.zeros((np.asarray(x).shape[0], d, d)),
        b=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        c=lambda t, x: np.zeros(np.asarray(x).shape[0]),
        budget=m.RegularityBudget(1e-9, 1.0, 1e-9, 0.5),
        knots=[0.0],
    )


def constant_model(b_vec, a_mat=None, d=None) -> m.CoefficientModel:
    b_vec = np.asarray(b_vec, dtype=float)
    d = d or b_vec.shape[0]
    a_mat = np.eye(d) if a_mat is None else np.asarray(a_mat, dtype=float)
    return m.CoefficientModel(
        d=d,
        a=lambda t, x: np.broadcast_to(a_mat, (np.asarray(x).shape[0], d, d)).copy(),
        b=lambda t, x: np.broadcast_to(b_vec, np.asarray(x).shape).copy(),
        c=lambda t, x: np.zeros(np.asarray(x).shape[0]),
        budget=m.RegularityBudget(0.5, 10.0, max(float(b_vec[-1]), 1e-9), 0.5),
        knots=[0.0],
    )


def kinked_model(d: int = 2) -> m.CoefficientModel:
    """a = s I + (1 - s) 11^T with s = clip(1 - |x_1|, 0, 1): singular where |x_1| >= 1."""

    def a(t, x):
        s = np.clip(1.0 - np.abs(np.asarray(x, dtype=float)[:, 0]), 0.0, 1.0)[:, None, None]
        return s * np.eye(d) + (1.0 - s) * np.ones((d, d))

    def b(t, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        out[:, -1] = 0.5 - np.asarray(x)[:, -1]
        return out

    return m.CoefficientModel(
        d=d, a=a, b=b, c=lambda t, x: np.zeros(np.asarray(x).shape[0]),
        budget=m.RegularityBudget(1e-9, 10.0, 0.4, 0.5),
        knots=[0.0],
    )


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


def holder_seminorm_estimate(field, region: m.Region, alpha: float, metric: str,
                             pair_budget: int, seed: int) -> HolderEstimate:
    """Sampled Hölder seminorm sup |u(P1)-u(P2)| / dist(P1,P2)^alpha over the region.

    One :func:`geometry._holder_scan` at one exponent: only pairs with
    dist <= 1 are scored, deterministic given the seed and nondecreasing in
    ``pair_budget``.  The sup-norm is the largest |value| the scan read from
    ``field``, at every drawn point, scored or not.
    """
    sup_norm = 0.0

    def recorded(t, x):
        nonlocal sup_norm
        u = np.asarray(field(t, x), dtype=float)
        sup_norm = max(sup_norm, float(np.abs(u).max()))
        return u

    seminorms, pairs, _ = geometry._holder_scan(recorded, region, [alpha], metric,
                                                pair_budget, seed)
    return HolderEstimate(seminorm=float(seminorms[0, 0]), sup_norm=sup_norm, pairs=pairs,
                          metric=metric, alpha=alpha)


def record_holder_pair_distances(monkeypatch) -> list[np.ndarray]:
    """Record, per pair batch, the distances of the pairs the validator's Hölder clauses draw.

    The validator draws the near-boundary clause's pairs first (cycloidal
    distance), then the interior clause's (parabolic); at ``pair_budget=1``
    each clause draws one batch of one pair.
    """
    distances = []
    draw = geometry._sample_pair_batch
    metrics = iter([geometry.cycloidal_distance_arrays, geometry.parabolic_distance_arrays])

    def recorded(*args):
        pairs = draw(*args)
        distances.append(next(metrics)(*pairs))
        return pairs

    monkeypatch.setattr(geometry, "_sample_pair_batch", recorded)
    return distances


def affine_cell_error_ratio(mc, field, estimate) -> float:
    """Worst |estimate - field(t, centre)| / bound over the unmasked cells of every layer.

    When the driver's coefficient is field(t, X) with field affine in x, a
    cell's box mean is field at its paths' mean state, which lies in the cell,
    so it is within bound = sum_j |d_j field| * half the cell's width in x_j
    of field at the centre.  A ratio above 1 is an estimator fault, not Monte
    Carlo noise; a cell with bound 0 counts as ratio 0 if exact, else inf.
    """
    centers = np.stack(np.meshgrid(*mc.spec.centers, indexing="ij"), axis=-1)
    half = np.stack(np.meshgrid(*(0.5 * np.diff(e) for e in mc.spec.edges), indexing="ij"),
                    axis=-1)
    worst = 0.0
    for kt, t in enumerate(mc.spec.times):
        good = ~mc.mask[kt]
        pts, width = centers[good], half[good]
        exact = field(t, pts)
        per_row = (-1,) + (1,) * (exact.ndim - 1)
        bound = sum(np.abs(field(t, pts + e) - exact) * width[:, j].reshape(per_row)
                    for j, e in enumerate(np.eye(pts.shape[1])))
        err = np.abs(estimate[kt][good] - exact)
        ratio = np.divide(err, bound, out=np.where(err > 0.0, np.inf, 0.0), where=bound > 0.0)
        worst = max(worst, float(ratio.max(initial=0.0)))
    return worst
