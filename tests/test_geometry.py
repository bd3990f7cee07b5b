import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimicsde as m
from mimicsde.geometry import (
    _holder_scan,
    _sample_pair_batch,
    cycloidal_distance_arrays,
    parabolic_distance_arrays,
)

from conftest import holder_seminorm_estimate

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


def point(t, xp, xd):
    return m.SpaceTimePoint(t, (xp, xd))


def _on_rows(dist, p1, p2) -> float:
    """A vectorized distance between two points, each passed as a (1, d) row."""
    return float(dist(p1.t, np.array([p1.x], dtype=float),
                      p2.t, np.array([p2.x], dtype=float))[0])


def cycloidal(p1, p2) -> float:
    return _on_rows(cycloidal_distance_arrays, p1, p2)


def parabolic(p1, p2) -> float:
    return _on_rows(parabolic_distance_arrays, p1, p2)


class TestPointAndRegion:
    def test_rejects_lower_half_space(self):
        with pytest.raises(ValueError):
            m.SpaceTimePoint(0.0, (0.0, -0.1))

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError):
            m.SpaceTimePoint(0.0, ())

    def test_region_validation(self):
        with pytest.raises(ValueError):
            m.Region(1.0, 0.0, (0.0,), (1.0,))
        with pytest.raises(ValueError):
            m.Region(0.0, 1.0, (-1.0,), (1.0,))  # x_d lower bound below 0
        assert m.Region(0.0, 1.0, (-1.0, 0.5), (1.0, 2.0)).d == 2


class TestDistances:
    def test_identity_cases(self):
        p = point(0.3, 1.0, 2.0)
        assert cycloidal(p, p) == 0.0
        assert parabolic(p, p) == 0.0

    def test_hand_values(self):
        # d=1: |0-1| / (sqrt 0 + sqrt 1 + sqrt 0) = 1
        p1 = m.SpaceTimePoint(0.0, (0.0,))
        p2 = m.SpaceTimePoint(0.0, (1.0,))
        assert cycloidal(p1, p2) == pytest.approx(1.0)
        # pure time separation of 1 gives sqrt(1) for any state
        q1 = point(0.0, 3.0, 2.0)
        q2 = point(1.0, 3.0, 2.0)
        assert cycloidal(q1, q2) == pytest.approx(1.0)
        # d=2: 1 + 2 + sqrt(4) = 5
        r1 = m.SpaceTimePoint(0.0, (0.0, 0.0))
        r2 = m.SpaceTimePoint(4.0, (1.0, 2.0))
        assert parabolic(r1, r2) == pytest.approx(5.0)

    @given(times, finite, nonneg, times, finite, nonneg)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_diagonal(self, t1, a1, d1, t2, a2, d2):
        p1, p2 = point(t1, a1, d1), point(t2, a2, d2)
        for dist in (cycloidal, parabolic):
            assert dist(p1, p2) == pytest.approx(dist(p2, p1), rel=1e-12)
            assert dist(p1, p2) >= 0.0
        if (t1, a1, d1) != (t2, a2, d2):
            assert parabolic(p1, p2) > 0.0
            assert cycloidal(p1, p2) > 0.0

    def test_slab_equivalence_and_nesting(self):
        # on x_d in [1, 2] the two metrics are equivalent; the sampled ratio
        # interval at 1e4 pairs contains the interval at 1e3 pairs
        slab = m.Region(0.0, 1.0, (-1.0, 1.0), (1.0, 2.0))

        def interval(budget):
            t1, x1, t2, x2 = _sample_pair_batch(slab, 9, 0, budget)
            s = cycloidal_distance_arrays(t1, x1, t2, x2)
            r = parabolic_distance_arrays(t1, x1, t2, x2)
            ok = r > 0
            q = s[ok] / r[ok]
            return float(q.min()), float(q.max())

        lo3, hi3 = interval(1000)
        lo4, hi4 = interval(10_000)
        assert 0.0 < lo4 <= lo3 and hi3 <= hi4 < np.inf


class TestHolderEstimator:
    def test_constant_field_zero(self):
        reg = m.Region(0.0, 1.0, (0.0, 0.0), (1.0, 1.0))
        est = holder_seminorm_estimate(lambda t, x: np.ones(x.shape[0]), reg, 0.5,
                                       "cycloidal", 500, 0)
        assert est.seminorm == 0.0
        assert est.sup_norm == 1.0
        assert est.pairs > 0

    def test_lipschitz_bound_away_from_boundary(self):
        reg = m.Region(0.0, 1.0, (0.0, 1.0), (1.0, 2.0))
        est = holder_seminorm_estimate(lambda t, x: x[:, 0], reg, 0.99,
                                       "parabolic", 4000, 3)
        assert est.seminorm <= 1.0 + 1e-9

    def test_sqrt_xd_cycloidal_vs_parabolic(self):
        # the cycloidal metric keeps sqrt(x_d) Hölder up to the boundary;
        # the parabolic estimate blows up as pairs approach it
        reg = m.Region(0.0, 0.5, (0.0, 0.0), (1.0, 1.0))
        f = lambda t, x: np.sqrt(x[:, -1])
        cyc = holder_seminorm_estimate(f, reg, 0.9, "cycloidal", 20_000, 3)
        par = holder_seminorm_estimate(f, reg, 0.9, "parabolic", 20_000, 3)
        assert cyc.seminorm < 2.0
        assert par.seminorm > 5.0 * cyc.seminorm

    def test_budget_monotone_shared_seed(self):
        reg = m.Region(0.0, 0.5, (0.0, 0.0), (1.0, 1.0))
        f = lambda t, x: np.sqrt(x[:, -1])
        vals = [holder_seminorm_estimate(f, reg, 0.9, "cycloidal", n, 3).seminorm
                for n in (200, 1000, 5000)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_deterministic_given_seed(self):
        reg = m.Region(0.0, 1.0, (0.0, 0.0), (1.0, 1.0))
        f = lambda t, x: np.cos(x[:, 0]) * x[:, 1]
        a = holder_seminorm_estimate(f, reg, 0.5, "parabolic", 2000, 11)
        b = holder_seminorm_estimate(f, reg, 0.5, "parabolic", 2000, 11)
        assert a == b

    def test_validation_errors(self):
        reg = m.Region(0.0, 1.0, (0.0, 0.0), (1.0, 1.0))
        f = lambda t, x: x[:, 0]
        with pytest.raises(ValueError):
            holder_seminorm_estimate(f, reg, 1.5, "parabolic", 10, 0)
        with pytest.raises(ValueError):
            holder_seminorm_estimate(f, reg, 0.5, "parabolic", 0, 0)
        with pytest.raises(ValueError):
            holder_seminorm_estimate(f, reg, 0.5, "euclidean", 10, 0)

    def test_scan_scores_each_column_as_alone(self):
        # one draw of 5000 pairs (two batches) scores three columns at two
        # exponents, bit for bit as three one-column scans at each exponent
        region = m.Region(0.0, 1.0, (-1.0, 0.0), (1.0, 0.5))
        columns = [lambda t, x: np.sin(3.0 * x[:, 0]) * np.sqrt(x[:, 1]) + t,
                   lambda t, x: np.sqrt(x[:, -1]),
                   lambda t, x: np.cos(x[:, 0]) * x[:, 1]]
        field = lambda t, x: np.stack([f(t, x) for f in columns], axis=1)
        alphas = [0.5, 0.3]
        for metric in ("cycloidal", "parabolic"):
            seminorms, pairs, witnesses = _holder_scan(field, region, alphas, metric, 5000, 4)
            alone = [[holder_seminorm_estimate(f, region, a, metric, 5000, 4) for f in columns]
                     for a in alphas]
            assert seminorms.tolist() == [[e.seminorm for e in row] for row in alone]
            together = holder_seminorm_estimate(field, region, alphas[0], metric, 5000, 4)
            assert together.sup_norm == max(e.sup_norm for e in alone[0])
            assert pairs == alone[0][0].pairs
            assert all(w is not None for row in witnesses for w in row)

    def test_json_schema(self):
        reg = m.Region(0.0, 1.0, (0.0, 0.0), (1.0, 1.0))
        est = holder_seminorm_estimate(lambda t, x: x[:, 0], reg, 0.5, "parabolic", 100, 0)
        blob = json.loads(json.dumps(est.to_json()))
        assert set(blob) == {"seminorm", "sup_norm", "pairs", "metric", "alpha"}
