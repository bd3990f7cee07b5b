"""Coefficient models, the degenerate generator, and the regularity validator.

A model carries evaluators for a d x d symmetric matrix field a(t,x), a drift
b(t,x), and a killing rate c(t,x) on [0,inf) x closed half-space, together with
a declared regularity budget (delta, K, nu, alpha).  The generator acts on
(gradient, hessian) data as

    A v = (1/2) x_d <a(t,x), H> + b(t,x) . grad v,

so the second-order part vanishes identically on the boundary x_d = 0 and the
inward drift floor b_d(t, x', 0) >= nu > 0 is what carries information off the
boundary.  The validator checks the budget clause by clause on sampled points
and pairs: it can certify a failure (a violated inequality at a concrete
witness) but only ever provides evidence of success.  Each Hölder clause draws
its pairs once and scores every coefficient entry at every exponent from them.

Evaluators are vectorized: they accept t as a scalar or (n,) array and x as an
(n, d) array, returning (n, d, d), (n, d), (n,) respectively, and must be pure
(safe to call concurrently).  A returned array may be a read-only view, such
as one matrix broadcast over the batch, or any other strided view.

The per-path matrices and vectors an Euler step builds (the root of a, sigma,
the drift of a lattice model) are stored entry-major: (d, d, n) and (d, n)
arrays returned as transposed (n, d, d) and (n, d) views, so each entry is
one contiguous column.  Small contractions over the d axis are written as
column arithmetic (:func:`_dot`, :func:`_frobenius`): every sum starts from
+0.0, so a sum of -0.0 terms is +0.0, and runs in the order numpy's einsum
uses at d <= 2, where the bits are the same (proven by the tests); at d >= 3
einsum's SIMD order is not a plain left-to-right sum, so there the column
sums differ from it at rounding level.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import rng
from .geometry import Region, _holder_scan, region_points

_DOMAIN_VALIDATE = 104
_XD_SPLIT = 2.0  # near/far split of the regularity conditions
_X_PRIME_EXTENT, _XD_FAR_TOP = 3.0, 6.0  # the validator's box: |x_i| <= 3 (i < d), x_d <= 6
_T_MAX = 1.0  # and its time range [0, 1], the range check_symmetry samples too
_SYMMETRY_SAMPLES = 64  # points of a model's symmetry check
# A lattice axis of at most _COUNT_BRACKET_MAX_NODES nodes, evaluated at
# _COUNT_BRACKET_MIN_POINTS or more points, is bracketed by counting nodes
# (one vectorised pass per interior node); otherwise by binary search.
# Measured on one x86 core (numpy 2.4, random points): counting is 1.5x or more
# faster at 4225-30000 points on axes of 3-32 nodes, but slower than
# searchsorted at 2048 points or fewer on axes of 16 nodes or more (0.2-0.8x
# at 16-64 nodes, 0.03-0.4x at a single point).  The uint8 counter holds at
# most _COUNT_BRACKET_MAX_NODES - 2 < 256.
_COUNT_BRACKET_MAX_NODES = 32
_COUNT_BRACKET_MIN_POINTS = 4096

MatrixField = Callable[[np.ndarray, np.ndarray], np.ndarray]
VectorField = Callable[[np.ndarray, np.ndarray], np.ndarray]
ScalarField = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RegularityBudget:
    """Declared constants: ellipticity floor, uniform bound, boundary drift floor, Hölder exponent."""

    delta: float
    K: float
    nu: float
    alpha: float

    def __post_init__(self) -> None:
        if self.delta <= 0 or self.K <= 0 or self.nu <= 0:
            raise ValueError("delta, K, nu must be strictly positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class CoefficientModel:
    """Evaluable coefficient triple (a, b, c) with a declared regularity budget.

    A model carries no label; the reports built from it name what they check.
    ``knots``, a finite strictly increasing 1-d array when set, is the
    model's one declaration of how a, b and c depend on t: affine between
    consecutive knots and constant before the first and after the last, so
    their values at the knots determine them at every t.  A single knot
    declares them constant in t; ``None`` declares nothing.  It is a claim
    about the fields: a ``dataclasses.replace`` of a, b or c must reset it
    (``knots=None``) unless the new fields keep it true.

    Evaluation reads nothing else about the fields, only what they return
    (:meth:`varsigma`) or are (:meth:`drift_and_sigma`), so a replaced
    evaluator can never be taken for the one it replaced.
    """

    d: int
    a: MatrixField
    b: VectorField
    c: ScalarField
    budget: RegularityBudget
    knots: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.knots is not None:
            self.knots = np.asarray(self.knots, dtype=float)
            if (self.knots.ndim != 1 or self.knots.size == 0 or not np.all(np.isfinite(self.knots))
                    or np.any(np.diff(self.knots) <= 0)):
                raise ValueError("knots must be a non-empty, finite, strictly increasing 1-d array")

    def varsigma(self, t, x: np.ndarray) -> np.ndarray:
        """Pointwise square root of a(t, x), batched: an (n, d, d) view of
        entry-major (d, d, n) storage, one contiguous column per entry.

        The lower Cholesky factor wherever a is positive definite: in closed
        form for d <= 2 (the same operations, in the same order, as LAPACK's
        unblocked factorisation, so the bits agree) and by LAPACK for d >= 3.
        Only the rows that are not positive definite fall back to a symmetric
        eigendecomposition root, which also covers semidefinite models (e.g.
        a = 0 for deterministic test configurations); each row's root is
        therefore independent of the batch it is evaluated in.  Eigenvalues
        below a scale-relative negative tolerance are an evaluation error.

        An evaluator may return one matrix broadcast over the batch (a
        leading stride of 0, as ``heston_model``'s constant a does): that
        matrix is factored once and its root broadcast, read-only, over the
        batch, unless it is not positive definite.
        """
        return _matrix_root(np.asarray(self.a(t, x), dtype=float))

    def sigma(self, t, x: np.ndarray) -> np.ndarray:
        """Diffusion matrix sqrt(x_d^+) * varsigma(t, x), batched, as an (n, d, d)
        view of entry-major (d, d, n) storage.  Each entry is one elementwise
        product, so the bits are those of the row-major product at every d;
        the sums that read it (the Euler increment, xi xi^*) run from +0.0 in
        einsum's order, bit-identical to it at d <= 2 (see the module docstring)."""
        return _rows_scaled(_sqrt_xd(x), self.varsigma(t, x))

    def drift_and_sigma(self, t, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(b(t, x), sigma(t, x)), as one Euler step needs them; sigma is
        entry-major, as :meth:`sigma` says, with the same bits.

        When a and b are :class:`LatticeField` views of one lattice table, as
        a built mimicking model's are, (t, x) is bracketed and the corner
        weights are formed once for both, and a and b are read as views of
        the interpolated (C, n) rows, so b comes back entry-major too.
        """
        a, b = self.a, self.b
        if isinstance(a, LatticeField) and isinstance(b, LatticeField) and a.lattice is b.lattice:
            x = np.asarray(x, dtype=float)
            rows = a.lattice._combine(t, x, slice(None))
            av, bv = (_points_view(rows[f.rows], f.shape) for f in (a, b))
            return bv, _rows_scaled(_sqrt_xd(x), _matrix_root(av))
        return b(t, x), self.sigma(t, x)

    def check_symmetry(self) -> None:
        """Verify a(t,x) is symmetric at 64 sampled points of [0, 1] x [-3, 3]^d
        with x_d >= 0, to a relative 1e-10; raises on violation."""
        region = Region(0.0, 1.0, (-3.0,) * (self.d - 1) + (0.0,), (3.0,) * self.d)
        u = rng.uniforms(0, _DOMAIN_VALIDATE, range(_SYMMETRY_SAMPLES), 0, self.d + 1)
        ts, xs = region_points(region, u)
        av = np.asarray(self.a(ts, xs), dtype=float)
        gap = np.abs(av - np.swapaxes(av, -1, -2)).max()
        if gap > 1e-10 * max(1.0, np.abs(av).max()):
            raise ValueError(f"a(t,x) fails symmetry sampling: max asymmetry {gap:.3e}")


def _sqrt_xd(x: np.ndarray) -> np.ndarray:
    """sqrt(x_d^+) per row of x."""
    return np.sqrt(np.maximum(x[:, -1], 0.0))


def _entry_major(n: int, d: int) -> np.ndarray:
    """An uninitialised batch of n d x d matrices: (d, d, n) storage as an (n, d, d) view."""
    return np.empty((d, d, n)).transpose(2, 0, 1)


def _rows_scaled(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """s[p] * m[p] for n matrices m (n, d, d) and scalars s (n,), entry-major."""
    out = _entry_major(*m.shape[:2])
    np.multiply(s, m.transpose(1, 2, 0), out=out.transpose(1, 2, 0))
    return out


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_i u[..., i] v[..., i], left to right from +0.0: einsum's bits at d <= 2."""
    out = np.zeros(np.broadcast_shapes(u.shape[:-1], v.shape[:-1]))
    for i in range(u.shape[-1]):
        out += u[..., i] * v[..., i]
    return out


def _frobenius(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """<a, h> = sum_ij a_ij h_ij: each column j summed down i, the column sums
    added left to right from +0.0; at d = 2 that is (a00 h00 + a10 h10) +
    (a01 h01 + a11 h11), einsum's order, for a per-row or a broadcast a."""
    d = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-2], h.shape[:-2]))
    for j in range(d):
        col = a[..., 0, j] * h[..., 0, j]
        for i in range(1, d):
            col += a[..., i, j] * h[..., i, j]
        out += col
    return out


def _matrix_root(av: np.ndarray) -> np.ndarray:
    """:meth:`CoefficientModel.varsigma` of evaluated matrices ``av`` (n, d, d)."""
    if av.shape[0] > 1 and av.strides[0] == 0:
        root, failed = _cholesky_rows(av[:1])
        if not failed[0]:
            return np.broadcast_to(root, av.shape)
    root, failed = _cholesky_rows(av)
    if failed.any():
        w, v = np.linalg.eigh(av[failed])
        scale = np.maximum(np.abs(w).max(axis=-1), 1.0)
        w_min = w.min(axis=-1)
        if np.any(w_min < -1e-10 * scale):
            raise ValueError(
                f"a(t,x) has a negative eigenvalue {w_min.min():.3e}; not a diffusion matrix")
        # each eigenvector column scaled by its root, then + 0.0 as einsum adds it
        root[failed] = v * np.sqrt(np.maximum(w, 0.0))[:, None, :] + 0.0
    return root


def _cholesky_rows(av: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of n matrices (n, d, d), entry-major, and the rows that are not PD.

    Failed rows are left unspecified for the caller to fill.  For d <= 2 the
    factor is written out column by column: the pivot reciprocal is
    multiplied, not divided, because that is how LAPACK's potf2 scales the
    column.
    """
    n, d = av.shape[0], av.shape[-1]
    root = _entry_major(n, d)
    if d > 2:
        failed = np.zeros(n, dtype=bool)
        try:
            root[...] = np.linalg.cholesky(av)
        except np.linalg.LinAlgError:
            root[...] = 0.0
            for i, a_i in enumerate(av):
                try:
                    root[i] = np.linalg.cholesky(a_i)
                except np.linalg.LinAlgError:
                    failed[i] = True
        return root, failed
    with np.errstate(invalid="ignore", divide="ignore"):
        l11 = np.sqrt(av[:, 0, 0], out=root[:, 0, 0])
        ok = l11 > 0.0
        if d == 2:
            root[:, 0, 1] = 0.0
            l21 = np.multiply(av[:, 1, 0], 1.0 / l11, out=root[:, 1, 0])
            l22 = np.sqrt(av[:, 1, 1] - l21 * l21, out=root[:, 1, 1])
            ok &= l22 > 0.0
    return root, ~ok


def _generator_contract(av, bv, xd, grads, hesss) -> np.ndarray:
    """(1/2) xd <av, H> + bv . grad from evaluated coefficients, with xd = x_d^+,
    in column arithmetic (:func:`_frobenius`, :func:`_dot`)."""
    return 0.5 * xd * _frobenius(av, hesss) + _dot(bv, grads)


class LatticeInterpolator:
    """Multilinear interpolation over a (time, x-lattice) grid with edge clamping.

    ``values`` has shape (K, n_1, ..., n_m, *trailing): one lattice of
    trailing-shaped entries per time layer.  A call with t a scalar, a 0-d or
    an (n,) array and x of shape (n, m) returns shape (n, *trailing):

        sum over corners 0, ..., 2^(m+1) - 1 of ((w_t w_1) w_2 ...) V[corner],

    accumulated in corner order, where bit a of a corner picks the lower
    (weight 1 - f) or upper (weight f) bracketing node on axis a (time is axis
    0).  Coordinates outside an axis are clamped to its end nodes; a size-1
    axis has f = 0 and both corners on its only node.

    The values are held once as a component-major flat table of shape
    (C, N): C = prod(trailing) components by N = K n_1 ... n_m nodes.  Lower
    brackets are clipped to size - 2, so every corner sits a constant flat
    offset from the lower corner and is gathered from a shifted view of the
    table with the lower corner's flat index.  A scalar or 0-d t, which every
    Euler step and the time-reversed PDE pass, is bracketed once.  Calls keep
    no state, so concurrent evaluation is safe.
    """

    def __init__(self, times: np.ndarray, axes: Sequence[np.ndarray], values: np.ndarray):
        self.times = np.asarray(times, dtype=float)
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        grid = [self.times, *self.axes]
        shape = tuple(ax.size for ax in grid)
        values = np.asarray(values, dtype=float)
        if values.shape[:len(shape)] != shape:
            raise ValueError(f"values shape {values.shape} does not start with the grid shape {shape}")
        self.trailing = values.shape[len(shape):]
        n_nodes = int(np.prod(shape))
        self._table = np.ascontiguousarray(values.reshape(n_nodes, -1).T)
        self._gaps = [np.diff(ax) for ax in grid]
        self._strides = [int(np.prod(shape[a + 1:])) for a in range(len(shape))]
        # flat offset of each corner from the lower corner; a size-1 axis has
        # its upper corner on the lower node
        steps = [s if n > 1 else 0 for s, n in zip(self._strides, shape)]
        self._offsets = [sum(s for a, s in enumerate(steps) if (corner >> a) & 1)
                         for corner in range(1 << len(shape))]

    @staticmethod
    def _bracket(ax: np.ndarray, gaps: np.ndarray, v) -> tuple:
        """Lower node index clip(searchsorted(ax, v, "right") - 1, 0, size - 2)
        and the clipped fraction of v in its cell.

        On short axes at many points the index is counted as size - 2 minus
        the interior nodes above v (NaN counts none, as in searchsorted),
        which is faster than a binary search there.
        """
        if ax.size == 1:
            return np.zeros(np.shape(v), dtype=np.int64), np.zeros(np.shape(v))
        if ax.size <= _COUNT_BRACKET_MAX_NODES and np.size(v) >= _COUNT_BRACKET_MIN_POINTS:
            above = np.zeros(np.shape(v), dtype=np.uint8)
            for node in ax[1:-1]:
                above += v < node
            i = (ax.size - 2) - above.astype(np.intp)
        else:
            i = np.clip(np.searchsorted(ax, v, side="right") - 1, 0, ax.size - 2)
        frac = (v - ax[i]) / gaps[i]
        return i, np.clip(frac, 0.0, 1.0)

    def __call__(self, t, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _points_first(self._combine(t, x, slice(None)), self.trailing)

    def _combine(self, t, x: np.ndarray, rows: slice) -> np.ndarray:
        """The table's component ``rows`` interpolated at (t, x), shape (rows, n)."""
        n = x.shape[0]
        t = np.asarray(t, dtype=float)
        if t.ndim != 0 or not self.axes:
            t = np.broadcast_to(t, (n,))
        i_t, f_t = self._bracket(self.times, self._gaps[0], t)
        # corner weights in corner order: ((w_t w_1) w_2 ...) per corner
        weights = [1.0 - f_t, f_t]
        base = i_t * self._strides[0]
        for j, ax in enumerate(self.axes):
            i, f = self._bracket(ax, self._gaps[j + 1], np.ascontiguousarray(x[:, j]))
            lo = 1.0 - f
            weights = [w * lo for w in weights] + [w * f for w in weights]
            base = base + i * self._strides[j + 1]
        table = self._table[rows]
        out = np.empty((table.shape[0], n))
        term = np.empty_like(out)
        for corner, (k, w) in enumerate(zip(self._offsets, weights)):
            dst = out if corner == 0 else term
            # base + k is in range by construction; mode="clip" lets take
            # write straight into dst instead of through a buffer
            np.take(table[:, k:], base, axis=1, out=dst, mode="clip")
            np.multiply(w, dst, out=dst)
            if corner:
                out += term
        return out


def _points_view(components: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Component-major (C, n) values as a view of n points of the given shape."""
    return np.moveaxis(components.reshape(shape + (components.shape[1],)), -1, 0)


def _points_first(components: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Component-major (C, n) values as n C-contiguous points of the given shape."""
    return np.ascontiguousarray(_points_view(components, shape))


class LatticeField:
    """A field of the given shape stored as the component ``rows`` of a
    :class:`LatticeInterpolator` whose trailing shape is (C,).

    A call interpolates only its own rows and returns C-contiguous points;
    :meth:`CoefficientModel.drift_and_sigma` brackets (t, x) once for the a
    and b views of one lattice.
    """

    __slots__ = ("lattice", "rows", "shape")

    def __init__(self, lattice: LatticeInterpolator, rows: slice, shape: tuple[int, ...]):
        self.lattice, self.rows, self.shape = lattice, rows, shape

    def __call__(self, t, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _points_first(self.lattice._combine(t, x, self.rows), self.shape)


def heston_model(
    kappa: float,
    theta: float,
    zeta: float,
    rho: float,
    r: float = 0.0,
    q: float = 0.0,
    with_killing: bool = False,
) -> CoefficientModel:
    """The d = 2 log-price / variance model.

        dX_1 = (r - q - x_2/2) dt + sqrt(x_2) dW_1
        dX_2 = kappa (theta - x_2) dt + zeta sqrt(x_2) (rho dW_1 + sqrt(1-rho^2) dW_2)

    stored so that sigma sigma^* = x_2 * a with a = [[1, rho zeta],
    [rho zeta, zeta^2]]; the killing rate is c = -r when enabled.  ``a``
    returns that one matrix as a read-only view broadcast over the batch, so
    :meth:`CoefficientModel.varsigma` factors it once.  The declared budget
    is always derived from the parameters (delta = 0.8 lambda_min(a), nu = 0.8 kappa theta).
    """
    if kappa <= 0 or theta <= 0:
        raise ValueError("need kappa > 0 and theta > 0")
    if zeta == 0:
        raise ValueError("need zeta != 0")
    if not -1.0 < rho < 1.0:
        raise ValueError("need rho in (-1, 1)")
    if r < 0:
        raise ValueError("need r >= 0")

    a_const = np.array([[1.0, rho * zeta], [rho * zeta, zeta * zeta]])

    def a_eval(t, x):
        return np.broadcast_to(a_const, (np.asarray(x).shape[0], 2, 2))

    def b_eval(t, x):  # entry-major
        x = np.asarray(x)
        out = np.empty((2, x.shape[0]))
        out[0] = (r - q) - 0.5 * x[:, 1]
        out[1] = kappa * (theta - x[:, 1])
        return out.T

    c_val = -r if with_killing else 0.0

    def c_eval(t, x):
        return np.full(np.asarray(x).shape[0], c_val)

    lam_min = float(np.linalg.eigvalsh(a_const)[0])
    lip = max(kappa, 0.5)
    k_bound = 4.0 * max(
        1.0,
        zeta * zeta,
        1.0 + 2.0 * abs(rho * zeta) + zeta * zeta,
        6.0 * lip,
        abs(r - q) + kappa * theta + r,
    )
    budget = RegularityBudget(delta=0.8 * lam_min, K=k_bound, nu=0.8 * kappa * theta, alpha=0.5)

    return CoefficientModel(d=2, a=a_eval, b=b_eval, c=c_eval, budget=budget, knots=(0.0,))


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one clause: the empirical extremum, its witness, and pass/fail."""

    name: str
    passed: bool
    observed: float
    bound: float
    kind: str  # "min>=bound" or "max<=bound"
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ValidationReport:
    """Clause-by-clause check of a declared budget, with empirical constants.

    A failed clause is a certificate (the witness violates the inequality);
    a passed clause is sampling evidence only.
    """

    conditions: tuple[ConditionCheck, ...]
    declared: RegularityBudget
    empirical: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionCheck:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "declared_budget": self.declared.to_json(),
            "empirical_budget": self.empirical,
            "clauses": [c.to_json() for c in self.conditions],
            "note": "failures are certified by witnesses; passes are sampling evidence only",
        }


def _extremum_clause(name: str, values: np.ndarray, bound: float, kind: str,
                     ts: np.ndarray, xs: np.ndarray) -> ConditionCheck:
    """One sampled clause: the worst of ``values`` against ``bound``, with its witness point.

    ``kind`` "max<=bound" takes the largest value, "min>=bound" the smallest.
    Values of shape (n, m) are searched over every component, and the
    worst one's index goes into the details.
    """
    flat = values.reshape(values.shape[0], -1)
    upper = kind == "max<=bound"
    k, comp = divmod(int(np.argmax(flat) if upper else np.argmin(flat)), flat.shape[1])
    observed = float(flat[k, comp])
    return ConditionCheck(
        name=name, passed=bool(observed <= bound if upper else observed >= bound),
        observed=observed, bound=bound, kind=kind,
        witness={"t": float(ts[k]), "x": [float(v) for v in xs[k]]},
        details={"component_index": comp} if values.ndim > 1 else {},
    )


def validate_coefficients(
    model: CoefficientModel,
    n_samples: int = 4096,
    pair_budget: int = 4096,
    seed: int = 0,
    alphas: Sequence[float] | None = None,
) -> ValidationReport:
    """Check every regularity clause of ``model.budget`` on sampled data.

    Points are sampled in [0, 1] x [-3, 3]^(d-1) x [0, 6].  The state
    space splits at x_d = 2: below it the ellipticity/boundedness/
    Hölder conditions are imposed on `a` itself with the cycloidal metric;
    above it they are imposed on the product x_d * a with the parabolic
    metric.  The Hölder exponent is taken from the budget; extra exponents in
    ``alphas`` are scored and reported without affecting pass/fail.

    Each Hölder clause draws its pairs once and scores a[i,j] (x_d*a[i,j] far
    from the boundary) for i <= j row-major, then b[0..d-1], then c at every
    exponent.  It reports the last entry at the maximum with its witness (None
    if every seminorm is 0), and each extra exponent's maximum over entries.
    """
    budget = model.budget
    d = model.d
    ext = _X_PRIME_EXTENT
    report_alphas = list(alphas) if alphas is not None else []

    near = Region(0.0, _T_MAX, (-ext,) * (d - 1) + (0.0,), (ext,) * (d - 1) + (_XD_SPLIT,))
    far = Region(0.0, _T_MAX, (-ext,) * (d - 1) + (_XD_SPLIT,), (ext,) * (d - 1) + (_XD_FAR_TOP,))
    wide = Region(0.0, _T_MAX, (-ext,) * (d - 1) + (0.0,), (ext,) * (d - 1) + (_XD_FAR_TOP,))

    conditions: list[ConditionCheck] = []

    def sample_region(region: Region, salt: int) -> tuple[np.ndarray, np.ndarray]:
        u = rng.uniforms(seed + salt, _DOMAIN_VALIDATE, range(n_samples), 0, d + 1)
        return region_points(region, u)

    # clause: c(t,x) <= K everywhere sampled
    ts, xs = sample_region(wide, 1)
    cv = np.asarray(model.c(ts, xs), dtype=float)
    conditions.append(_extremum_clause("killing_upper_bound", cv, budget.K, "max<=bound", ts, xs))

    # clause: b_d(t, x', 0) >= nu on the boundary
    ts, xs = sample_region(near, 2)
    xs = xs.copy()
    xs[:, -1] = 0.0
    bv = np.asarray(model.b(ts, xs), dtype=float)
    conditions.append(_extremum_clause("boundary_drift_floor", bv[:, -1], budget.nu,
                                       "min>=bound", ts, xs))

    # clause: a elliptic near the boundary (x_d <= 2)
    ts, xs = sample_region(near, 3)
    av = np.asarray(model.a(ts, xs), dtype=float)
    eigs = np.linalg.eigvalsh(av)[:, 0]
    conditions.append(_extremum_clause("near_boundary_ellipticity", eigs, budget.delta,
                                       "min>=bound", ts, xs))

    # clause: sup bounds on a_ij, b_i, c near the boundary
    bv = np.asarray(model.b(ts, xs), dtype=float)
    cv = np.asarray(model.c(ts, xs), dtype=float)
    stacked = np.concatenate([np.abs(av).reshape(n_samples, -1),
                              np.abs(bv), np.abs(cv)[:, None]], axis=1)
    conditions.append(_extremum_clause("near_boundary_sup_bounds", stacked, budget.K,
                                       "max<=bound", ts, xs))

    # Hölder clauses: near the boundary on a, b, c (cycloidal), far from it on
    # x_d * a, b, c (parabolic); one scan scores every entry at every exponent
    rows, cols = np.triu_indices(d)

    def holder_clause(name: str, region: Region, metric: str, product: bool, salt: int):
        labels = ([f"{'xd*a' if product else 'a'}[{i},{j}]" for i, j in zip(rows, cols)]
                  + [f"b[{i}]" for i in range(d)] + ["c"])

        def entries(t, x):
            av = np.asarray(model.a(t, x), dtype=float) * (x[:, -1:, None] if product else 1.0)
            return np.column_stack([av[:, rows, cols], np.asarray(model.b(t, x), dtype=float),
                                    np.asarray(model.c(t, x), dtype=float)])

        semi, pairs, witnesses = _holder_scan(entries, region, [budget.alpha, *report_alphas],
                                              metric, pair_budget, seed + salt)
        if pairs == 0:  # no scored pair: the clause would pass vacuously
            raise ValueError(f"{name}: no admissible pair among pair_budget={pair_budget}")
        k = len(labels) - 1 - int(np.argmax(semi[0, ::-1]))  # the last entry at the maximum
        details = {"component": labels[k], "metric": metric}
        if report_alphas:
            details["reported_alphas"] = {f"alpha={extra}": float(row.max())
                                          for extra, row in zip(report_alphas, semi[1:])}
        conditions.append(ConditionCheck(
            name=name, passed=bool(semi[0, k] <= budget.K),
            observed=float(semi[0, k]), bound=budget.K, kind="max<=bound",
            witness=witnesses[0][k], details=details,
        ))

    holder_clause("near_boundary_holder_cycloidal", near, "cycloidal", False, 4)

    # clause: x_d * a elliptic away from the boundary (x_d >= 2)
    ts, xs = sample_region(far, 5)
    av = np.asarray(model.a(ts, xs), dtype=float)
    eigs = np.linalg.eigvalsh(xs[:, -1][:, None, None] * av)[:, 0]
    conditions.append(_extremum_clause("interior_ellipticity", eigs, budget.delta,
                                       "min>=bound", ts, xs))

    holder_clause("interior_holder_parabolic", far, "parabolic", True, 6)

    # clause: linear growth of x_d a, b, c
    ts, xs = sample_region(wide, 7)
    av = np.asarray(model.a(ts, xs), dtype=float)
    bv = np.asarray(model.b(ts, xs), dtype=float)
    cv = np.asarray(model.c(ts, xs), dtype=float)
    total = (np.abs(xs[:, -1][:, None, None] * av).sum(axis=(1, 2))
             + np.abs(bv).sum(axis=1) + np.abs(cv))
    ratio = total / (1.0 + np.linalg.norm(xs, axis=1))
    conditions.append(_extremum_clause("linear_growth", ratio, budget.K, "max<=bound", ts, xs))

    by_name = {c.name: c for c in conditions}
    empirical = {
        "delta": min(by_name["near_boundary_ellipticity"].observed,
                     by_name["interior_ellipticity"].observed),
        "K": max(by_name["killing_upper_bound"].observed,
                 by_name["near_boundary_sup_bounds"].observed,
                 by_name["near_boundary_holder_cycloidal"].observed,
                 by_name["interior_holder_parabolic"].observed,
                 by_name["linear_growth"].observed),
        "nu": by_name["boundary_drift_floor"].observed,
        "alpha": budget.alpha,
    }
    return ValidationReport(conditions=tuple(conditions), declared=budget, empirical=empirical)


def strip_generator_term(model: CoefficientModel, part: str) -> CoefficientModel:
    """Deliberately broken copy of a model for negative controls.

    ``part='drift'`` zeroes b; ``part='diffusion'`` zeroes a.  The broken
    model is meant for the checking side of a pipeline (compensators, PDE
    coefficients), so tests that should fail do fail.
    """
    if part == "drift":
        b = lambda t, x: np.zeros_like(np.asarray(x, dtype=float))
        return replace(model, b=b)
    if part == "diffusion":
        def a(t, x):
            n = np.asarray(x).shape[0]
            return np.zeros((n, model.d, model.d))
        return replace(model, a=a)
    raise ValueError("part must be 'drift' or 'diffusion'")


def load_gridded_model(csv_path) -> CoefficientModel:
    """Load mimicked-coefficient files (CSV + sidecar ``<csv>.meta.json``) as a gridded
    model, built at :func:`.projection.build_mimicking_model`'s default masked fraction."""
    from . import projection

    return projection.build_mimicking_model(projection.load_mimicked(csv_path))
