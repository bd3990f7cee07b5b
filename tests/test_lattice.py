"""Bitwise equivalence of the gridded-evaluation and Euler-step kernels with their reference forms.

``_LatticeInterpolator`` below is the per-corner fancy-indexing interpolator
that ``coeffs.LatticeInterpolator`` replaced, kept verbatim as the reference.
The column arithmetic of the Euler step (the increment, the generator
contraction and the integrability norms) is compared with the ``einsum`` and
``np.add.reduce`` expressions it replaced, at d <= 2, where the bits agree.
Every kernel must reproduce its reference bit for bit (compared as uint64,
so signed zeros and NaN payloads count), because the pinned ensembles and PDE
layers depend on every bit.
"""

from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimicsde.coeffs import (
    _COUNT_BRACKET_MAX_NODES,
    _COUNT_BRACKET_MIN_POINTS,
    CoefficientModel,
    LatticeField,
    LatticeInterpolator,
    RegularityBudget,
)
from mimicsde.coeffs import _dot, _frobenius, _generator_contract
from mimicsde.sdesim import _advance, _outer_square


class _LatticeInterpolator:
    """Multilinear interpolation over (time, x-lattice) with edge clamping."""

    def __init__(self, times: np.ndarray, axes: Sequence[np.ndarray], values: np.ndarray):
        self.times = np.asarray(times, dtype=float)
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.values = values
        self.trailing = values.ndim - 1 - len(self.axes)

    @staticmethod
    def _bracket(ax: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if ax.size == 1:
            return np.zeros(v.shape, dtype=np.int64), np.zeros_like(v, dtype=float)
        i = np.clip(np.searchsorted(ax, v, side="right") - 1, 0, ax.size - 2)
        frac = (v - ax[i]) / (ax[i + 1] - ax[i])
        return i, np.clip(frac, 0.0, 1.0)

    def __call__(self, t, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        t_arr = np.broadcast_to(np.asarray(t, dtype=float), (n,))
        brackets = [self._bracket(self.times, t_arr)]
        brackets += [self._bracket(ax, x[:, j]) for j, ax in enumerate(self.axes)]
        n_axes = len(brackets)
        out = None
        for corner in range(1 << n_axes):
            w = np.ones(n)
            idx = []
            for a in range(n_axes):
                i, f = brackets[a]
                bit = (corner >> a) & 1
                size = self.times.size if a == 0 else self.axes[a - 1].size
                if bit:
                    w = w * f
                    idx.append(np.minimum(i + 1, size - 1))
                else:
                    w = w * (1.0 - f)
                    idx.append(i)
            vals = self.values[tuple(idx)]
            term = w.reshape((n,) + (1,) * self.trailing) * vals
            out = term if out is None else out + term
        return out


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(_bits(got), _bits(want))


def _axis(draw, size: int) -> np.ndarray:
    lo = draw(st.floats(-2.0, 1.0))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=size - 1, max_size=size - 1))
    return lo + np.concatenate([[0.0], np.cumsum(gaps)])


@st.composite
def lattices(draw):
    m = draw(st.integers(1, 3))
    n_times = draw(st.sampled_from([1, 3]))
    sizes = [draw(st.sampled_from([1, 2, 4])) for _ in range(m)]
    trailing = draw(st.sampled_from([(), (2,), (2, 2)]))
    times = _axis(draw, n_times)
    axes = [_axis(draw, s) for s in sizes]
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    values = gen.standard_normal((n_times, *sizes, *trailing))
    # signed zeros must survive the accumulation order unchanged
    values[gen.random(values.shape) < 0.1] = -0.0
    return times, axes, values, gen


def _points(gen, times, axes, n):
    # cover inside, on nodes and beyond both ends of every axis
    cols = []
    for ax in axes:
        span = max(ax[-1] - ax[0], 1.0)
        col = gen.uniform(ax[0] - 0.3 * span, ax[-1] + 0.3 * span, n)
        on_node = gen.random(n) < 0.2
        col[on_node] = gen.choice(ax, on_node.sum())
        cols.append(col)
    return np.stack(cols, axis=1)


@settings(max_examples=60, deadline=None)
@given(lattices(), st.sampled_from([1, 7, 4225]), st.sampled_from(["scalar", "0d", "rows"]),
       st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5]))
def test_interpolator_matches_reference(lattice, n, t_kind, t_pos):
    times, axes, values, gen = lattice
    x = _points(gen, times, axes, n)
    t_lo, t_hi = times[0], times[-1]
    t_scalar = t_lo + t_pos * max(t_hi - t_lo, 1.0)  # before, inside and after the layers
    if t_kind == "scalar":
        t = float(t_scalar)
    elif t_kind == "0d":
        t = np.asarray(t_scalar)
    else:
        t = gen.uniform(t_lo - 0.5, t_hi + 0.5, n)
    want = _LatticeInterpolator(times, axes, values)(t, x)
    got = LatticeInterpolator(times, axes, values)(t, x)
    _assert_bitwise(got, want)


def test_interpolator_special_values():
    gen = np.random.default_rng(5)
    times = np.array([0.0, 0.5, 1.0])
    axes = [np.linspace(-1.0, 1.0, 5), np.array([0.0, 0.1, 0.3])]
    values = gen.standard_normal((3, 5, 3, 2, 2))
    values[0, 0, 0] = -0.0
    values[1, 2, 1, 0, 1] = np.inf
    values[2, 4, 2, 1, 1] = 5e-324
    x = np.array([[-1.0, 0.0], [-1.5, -0.2], [0.25, 0.1], [1.0, 0.3], [2.0, 9.0],
                  [np.nan, 0.1], [-0.0, 0.05]])
    for reps in (1, -(-_COUNT_BRACKET_MIN_POINTS // x.shape[0])):
        xs = np.tile(x, (reps, 1))
        for t in (0.0, -1.0, 0.7, np.asarray(2.0), np.linspace(-0.5, 1.5, xs.shape[0])):
            with np.errstate(invalid="ignore"):
                want = _LatticeInterpolator(times, axes, values)(t, xs)
                got = LatticeInterpolator(times, axes, values)(t, xs)
            _assert_bitwise(got, want)


@pytest.mark.parametrize("n", [_COUNT_BRACKET_MIN_POINTS - 1, _COUNT_BRACKET_MIN_POINTS])
def test_interpolator_both_bracket_paths(n):
    # axes at and just above the node-counting cutoff, at point counts on
    # both sides of it, exercise the counting and the binary-search brackets
    gen = np.random.default_rng(9)
    times = np.sort(gen.uniform(0.0, 1.0, _COUNT_BRACKET_MAX_NODES + 1))
    axes = [np.cumsum(gen.uniform(0.01, 0.1, 300)),
            np.linspace(0.0, 1.0, _COUNT_BRACKET_MAX_NODES)]
    values = gen.standard_normal((times.size, 300, _COUNT_BRACKET_MAX_NODES, 2))
    # a point on a node must take that node as its lower bracket: weight 0
    # on an inf neighbour would turn the result into NaN
    values[:, :, 5] = np.inf
    x = np.stack([gen.uniform(-1.0, 20.0, n), gen.uniform(-0.5, 1.5, n)], axis=1)
    x[::50, 0] = np.nan
    x[1::50, 1] = np.nan
    x[2::50, 1] = gen.choice(axes[1], x[2::50, 1].size)
    for t in (0.37, np.asarray(-1.0), gen.uniform(-0.2, 1.2, n)):
        with np.errstate(invalid="ignore"):
            want = _LatticeInterpolator(times, axes, values)(t, x)
            got = LatticeInterpolator(times, axes, values)(t, x)
        _assert_bitwise(got, want)


def test_interpolator_rejects_mismatched_values():
    with pytest.raises(ValueError, match="grid shape"):
        LatticeInterpolator(np.array([0.0, 1.0]), [np.arange(3.0)], np.zeros((2, 4)))


@pytest.mark.parametrize("n", [7, 30_000])
def test_joint_fields_match_separate_interpolators(n):
    # a built model's lattice in the full-mimic benchmark: 16 time layers, 16
    # x_1 centres, the x_d = 0 layer and 14 x_d centres; a (d x d) then b (d)
    # stacked per node.  Each view alone, and both in the one pass a model's
    # drift_and_sigma makes, must give the bits of an interpolator over that
    # field's own table
    gen = np.random.default_rng(n)
    times = np.arange(1, 17) / 16
    axes = [-0.6 + 1.2 * (np.arange(16) + 0.5) / 16,
            np.concatenate([[0.0], 0.25 * (np.arange(14) + 0.5) / 14])]
    f = gen.standard_normal((16, 16, 15, 2, 2))
    a_grid = f @ np.swapaxes(f, -1, -2)  # a diffusion matrix, so that sigma is defined
    b_grid = gen.standard_normal((16, 16, 15, 2))
    stacked = np.concatenate([a_grid.reshape(16, 16, 15, 4), b_grid], axis=-1)
    lattice = LatticeInterpolator(times, axes, stacked)
    a_field = LatticeField(lattice, slice(0, 4), (2, 2))
    b_field = LatticeField(lattice, slice(4, None), (2,))
    budget = RegularityBudget(1e-9, 1.0, 1e-9, 0.5)
    model = CoefficientModel(d=2, a=a_field, b=b_field, c=None, budget=budget)
    separate = CoefficientModel(d=2, a=LatticeInterpolator(times, axes, a_grid),
                                b=None, c=None, budget=budget)
    # inside and beyond the hull of the centres on every axis, nodes included
    x = _points(gen, times, axes, n)
    for t in (0.3, 1.0 / 16, np.asarray(-0.2), 1.7, gen.uniform(-0.2, 1.2, n)):
        want_a = LatticeInterpolator(times, axes, a_grid)(t, x)
        want_b = LatticeInterpolator(times, axes, b_grid)(t, x)
        _assert_bitwise(a_field(t, x), want_a)
        _assert_bitwise(b_field(t, x), want_b)
        got_b, got_sigma = model.drift_and_sigma(t, x)
        np.testing.assert_array_equal(_bits(got_b), _bits(want_b))
        np.testing.assert_array_equal(_bits(got_sigma), _bits(separate.sigma(t, x)))


@st.composite
def xi_batches(draw):
    d = draw(st.integers(1, 3))
    r = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 5, 257]))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    xi = gen.standard_normal((n, d, r)) * 10.0 ** gen.integers(-3, 4, (n, d, r))
    special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -2.5e-310, 1e300])
    pick = gen.random(xi.shape) < 0.15
    xi[pick] = gen.choice(special, pick.sum())
    return xi


@settings(max_examples=80, deadline=None)
@given(xi_batches())
def test_outer_square_matches_einsum(xi):
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.einsum("nik,njk->nij", xi, xi)
        got = _outer_square(xi)
    _assert_bitwise(got, want)


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -2.5e-310, 1e300])


@st.composite
def column_batches(draw):
    """(gen, n, d, zero_rows): a batch size and dimension at which the column
    forms must give einsum's bits, and the rows that hold signed zeros only."""
    n = draw(st.sampled_from([1, 5, 257, 4099]))
    d = draw(st.sampled_from([1, 2]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return gen, n, d, gen.random(n) < 0.3


def _entries(gen, zero_rows, shape, entry_major=True):
    """Per-row entries of the given shape, at magnitudes 1e-3..1e3 with 15 % special
    values; ``zero_rows`` hold signed zeros only, so a sum of -0.0 terms occurs there.
    Stored entry-major, as the Euler step stores them, or row-major."""
    n = zero_rows.size
    a = gen.standard_normal((n, *shape)) * 10.0 ** gen.integers(-3, 4, (n, *shape))
    pick = gen.random(a.shape) < 0.15
    a[pick] = gen.choice(_SPECIAL, pick.sum())
    a[zero_rows] = gen.choice([0.0, -0.0], (zero_rows.sum(), *shape))
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0) if entry_major else a


@settings(max_examples=60, deadline=None)
@given(column_batches())
def test_increment_matches_einsum(batch):
    # the Euler step x + (beta h + xi z sqrt(h)): xi z summed from +0.0, so a
    # row of -0.0 products with beta = x = -0.0 stays at +0.0, as einsum's does
    gen, n, d, zero_rows = batch
    beta, xi = _entries(gen, zero_rows, (d,)), _entries(gen, zero_rows, (d, d))
    x, z = (_entries(gen, zero_rows, (d,), entry_major=False) for _ in range(2))
    h = 2.0**-7
    with np.errstate(invalid="ignore", over="ignore"):
        want = x + (beta * h + np.einsum("nij,nj->ni", np.ascontiguousarray(xi), z) * np.sqrt(h))
        got = _advance(x, beta, xi, z, h, np.sqrt(h))
    _assert_bitwise(got, want)


@settings(max_examples=60, deadline=None)
@given(column_batches(), st.booleans())
def test_generator_contract_matches_einsum(batch, broadcast_a):
    # (1/2) x_d <a, H> + b . g as the martingale compensator forms it, against
    # the einsum form on the row-major arrays it used to read; a is per row
    # (a lattice model's) or one matrix broadcast over the batch (Heston's)
    gen, n, d, zero_rows = batch
    if broadcast_a:
        a = np.broadcast_to(_entries(gen, np.array([gen.random() < 0.3]), (d, d)), (n, d, d))
        a_rows = a
    else:
        a = _entries(gen, zero_rows, (d, d))
        a_rows = np.ascontiguousarray(a)
    hess, b, g = (_entries(gen, zero_rows, shape) for shape in ((d, d), (d,), (d,)))
    xd = np.abs(_entries(gen, zero_rows, (1,), entry_major=False)[:, 0])
    with np.errstate(invalid="ignore", over="ignore"):
        want_second = np.einsum("...ij,...ij->...", a_rows, np.ascontiguousarray(hess))
        want_first = np.einsum("...i,...i->...", np.ascontiguousarray(b), np.ascontiguousarray(g))
        _assert_bitwise(_frobenius(a, hess), want_second)
        _assert_bitwise(_dot(b, g), want_first)
        _assert_bitwise(_generator_contract(a, b, xd, g, hess), 0.5 * xd * want_second + want_first)


@settings(max_examples=60, deadline=None)
@given(column_batches())
def test_integrability_norms_match_add_reduce(batch):
    # simulate_ito_process's |beta| and |xi xi^*| per path; the terms are
    # squares, never -0.0, so here only the row-major order can show
    gen, n, d, zero_rows = batch
    beta, xi = _entries(gen, zero_rows, (d,)), _entries(gen, zero_rows, (d, d))
    with np.errstate(invalid="ignore", over="ignore"):
        xi2 = _outer_square(xi)
        flat = xi2.reshape(n, d * d)
        _assert_bitwise(_dot(beta, beta), np.add.reduce(np.ascontiguousarray(beta * beta), axis=1))
        _assert_bitwise(_dot(flat, flat), np.add.reduce(xi2 * xi2, axis=(1, 2)))
