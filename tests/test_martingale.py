import tracemalloc

import numpy as np
import pytest

import mimicsde as m
from mimicsde import rng
from mimicsde.coeffs import strip_generator_term
from mimicsde.martingale import _bump_psi, constant_probe, left_coordinate_probe

from conftest import constant_model, ito_residual_ladder, time_weighted_xd, zero_model


class TestTestFunction:
    def test_self_check_catches_wrong_gradient(self):
        with pytest.raises(ValueError, match="gradient"):
            m.TestFunction(
                name="bad", d=2,
                jet=lambda t, x: (x[:, 0] ** 2,
                                  np.ones_like(x),  # wrong
                                  np.zeros((x.shape[0], 2, 2))),
            )

    def test_bump_support_and_smoothness(self):
        v = m.radial_bump([0.0, 0.5], 0.4)
        inside = np.array([[0.0, 0.5]])
        outside = np.array([[2.0, 0.5], [0.0, 0.95]])
        assert v.jet(0.0, inside)[0][0] == pytest.approx(1.0)
        val, grad, _ = v.jet(0.0, outside)
        assert np.all(val == 0.0)
        assert np.all(grad == 0.0)
        edge = np.array([[0.4 - 1e-9, 0.5]])  # just inside the support sphere
        val, _, hess = v.jet(0.0, edge)
        assert np.isfinite(val[0])
        assert np.isfinite(hess).all()

    def test_boundary_bump_center_on_boundary(self):
        v = m.boundary_bump([0.3], 0.5)
        x = np.array([[0.3, 0.0]])
        assert v.jet(0.0, x)[0][0] == pytest.approx(1.0)

    def test_bump_jet_bits_match_broadcast_form(self):
        # the reference is the (n, d)-broadcast jet; the column jet keeps its
        # bits, signed zeros included, on a lattice of -0.0 and +0.0, points
        # left of the centre on x_d = 0, subnormals, the support sphere and
        # non-finite coordinates
        def reference(c, r2, x):
            delta = x - c
            psi, p1, p2 = _bump_psi((delta * delta).sum(axis=1) / r2)
            outer = np.einsum("ni,nj->nij", delta, delta) * (4.0 / (r2 * r2))
            eye = np.eye(c.size) * (2.0 / r2)
            return (psi, p1[:, None] * (2.0 * delta / r2),
                    p2[:, None, None] * outer + p1[:, None, None] * eye)

        vals = [0.0, -0.0, -0.3, 0.3, 5e-324, -5e-324, 0.6 - 1e-9, 1.0, np.nan, -np.inf]
        for c, radius in (([0.0, 0.05], 1.0), ([0.0, 0.0], 0.6), ([0.3, 0.0, -0.1], 0.8)):
            c = np.asarray(c)
            x = np.array(np.meshgrid(*[vals] * c.size)).reshape(c.size, -1).T.copy()
            with np.errstate(invalid="ignore"):
                pairs = list(zip(m.radial_bump(c, radius).jet(0.0, x), reference(c, radius**2, x)))
            for got, want in pairs:
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# the statistical unit tests' paths: 4000 paths, h = 2^-6, T = 1, seed 123
_SMALL_GRID = m.TimeGrid(0.0, 1.0, 2.0**-6)


def _trajectory(model, v, start, grid=_SMALL_GRID, n_paths=4000, seed=123):
    """M^v of one function at every node of ``model``'s paths, compensated with ``model``."""
    inc, _ = m.martingale_increments(model, model, [v], np.arange(grid.n_steps + 1), start,
                                     grid, n_paths, seed)
    return inc[0]


class TestIncrements:
    def test_starts_at_zero_exactly(self, heston, start):
        inc = _trajectory(heston, m.radial_bump([0.0, 0.05], 1.0), start)
        assert np.all(inc[:, 0] == 0.0)

    def test_zero_model_constant_paths_zero_martingale(self, start):
        inc = _trajectory(zero_model(), m.radial_bump([0.0, 0.1], 0.5), start,
                          m.TimeGrid(0.0, 1.0, 0.125), 30, 1)
        assert np.all(inc == 0.0)

    def test_paths_outside_support_give_zero(self, heston, start):
        inc = _trajectory(heston, m.radial_bump([50.0, 30.0], 0.5), start)
        assert np.all(inc == 0.0)

    def test_pathwise_linearity_exact(self, heston, start):
        v1 = m.radial_bump([0.0, 0.05], 1.0)
        v2 = m.linear_function([1.0, 0.0])
        combo = m.TestFunction(
            name="2*v1-3*v2", d=2,
            jet=lambda t, x: tuple(2 * p1 - 3 * p2
                                   for p1, p2 in zip(v1.jet(t, x), v2.jet(t, x))),
        )
        i1, i2, ic = (_trajectory(heston, v, start) for v in (v1, v2, combo))
        assert np.allclose(ic, 2 * i1 - 3 * i2, atol=1e-12)

    @pytest.mark.parametrize("case", ["heston", "gridded", "drift-broken"])
    def test_one_pass_equals_single_function_passes(self, heston, gridded_model, start, case):
        # many functions in one pass give each one's own M^v bit for bit, at
        # every node and on a subset of nodes; the states kept at those nodes
        # are the stride-1 ensemble's
        model = gridded_model if case == "gridded" else heston
        generator = strip_generator_term(heston, "drift") if case == "drift-broken" else model
        grid = m.TimeGrid(0.0, 0.5, 2.0**-5)
        vs = [m.linear_function([0.0, 1.0]), m.radial_bump([0.0, 0.05], 1.0),
              m.boundary_bump([0.0], 0.6)]
        cols = np.arange(grid.n_steps + 1)

        def increments(fns, nodes):
            return m.martingale_increments(model, generator, fns, nodes, start, grid, 300, 17)

        together, _ = increments(vs, cols)
        some, states = increments(vs, cols[::5])
        for v, mv, mv_some in zip(vs, together, some):
            alone = increments([v], cols)[0][0].view(np.uint64)
            assert np.array_equal(mv.view(np.uint64), alone)
            assert np.array_equal(mv_some.view(np.uint64), alone[:, ::5])
        ens = m.simulate_sde(model, start, grid, 300, 17)
        for k, x in zip(cols[::5], states):
            assert np.array_equal(x.view(np.uint64), ens.states[:, k, :].view(np.uint64))

    def test_rejects_time_dependent(self, heston, start):
        with pytest.raises(ValueError):
            _trajectory(heston, time_weighted_xd(1.0), start)

    @pytest.mark.parametrize("nodes", [[0, 17], [-1, 4], [2, 2]], ids=str)
    def test_rejects_nodes_off_the_grid_or_repeated(self, heston, start, nodes):
        # a node outside 0..16, or named twice, would leave a column unwritten
        with pytest.raises(ValueError, match="nodes"):
            m.martingale_increments(heston, heston, [m.linear_function([0.0, 1.0])], nodes,
                                    start, m.TimeGrid(0.0, 0.5, 2.0**-5), 16, 1)


class TestMartingaleTest:
    def test_linear_v_constant_drift(self, start):
        # M = <w, X_t - X_0 - b t> is an exact discrete martingale
        model = constant_model([0.1, 0.2], a_mat=[[1.0, 0.0], [0.0, 0.5]])
        grid = m.TimeGrid(0.0, 1.0, 2.0**-5)
        rep, = m.martingale_test(model, model, [m.linear_function([1.0, 1.0])],
                                 [constant_probe(), left_coordinate_probe(1)],
                                 start, grid, 20_000, 7)
        assert rep.passed, rep.to_json()

    def test_heston_bump(self, heston, start):
        v = m.radial_bump([0.0, 0.05], 1.0)
        rep, = m.martingale_test(heston, heston, [v], [constant_probe(), left_coordinate_probe(1)],
                                 start, _SMALL_GRID, 4000, 123)
        assert rep.overall in ("pass", "inconclusive")
        assert rep.max_abs_z <= 5.0

    def test_degenerate_probe_excluded(self, start):
        model = zero_model()
        rep, = m.martingale_test(model, model, [m.linear_function([1.0, 0.0])], [constant_probe()],
                                 start, m.TimeGrid(0.0, 1.0, 0.25), 40, 1)
        assert all(e.status == "excluded" for e in rep.entries)
        assert rep.overall == "pass"  # nothing testable, nothing failed

    def test_broken_drift_z_grows_like_sqrt_n(self, heston, start):
        # v = x_2 sees the mean-reverting drift directly, so dropping the
        # drift from the compensator shifts the increments by ~kappa(theta-x_2)h
        grid = m.TimeGrid(0.0, 1.0, 2.0**-6)
        broken = strip_generator_term(heston, "drift")
        zs = []
        for n in (2000, 8000):
            rep, = m.martingale_test(heston, broken, [m.linear_function([0.0, 1.0])],
                                     [constant_probe()], start, grid, n, 31)
            zs.append(rep.max_abs_z)
        assert zs[0] > 3.0
        assert zs[1] > 1.3 * zs[0]

    def test_peak_memory_below_one_trajectory(self, heston, start):
        # simulation and test together store endpoints only and keep M^v and
        # the state at the interval bounds: the whole check peaks below one
        # stride-1 states array, which dominates at 256 steps
        grid = m.TimeGrid(0.0, 1.0, 2.0**-8)
        n = 2000
        vs = [m.linear_function([0.0, 1.0]), m.radial_bump([0.0, 0.05], 1.0),
              m.boundary_bump([0.0], 0.6)]
        tracemalloc.start()
        try:
            m.martingale_test(heston, heston, vs, [constant_probe(), left_coordinate_probe(1)],
                              start, grid, n, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * (grid.n_steps + 1) * heston.d * 8

    def test_needs_two_intervals(self, heston, start):
        with pytest.raises(ValueError):
            m.martingale_test(heston, heston, [m.linear_function([1.0, 0.0])], [constant_probe()],
                              start, _SMALL_GRID, 16, 1, n_intervals=1)

    @pytest.mark.parametrize("grid", [m.TimeGrid(0.0, 0.0, 0.1), m.TimeGrid(0.0, 0.1, 0.1),
                                      m.TimeGrid(0.0, 0.3, 0.1)], ids=["0", "1", "3"])
    def test_needs_a_step_per_interval(self, heston, start, grid):
        # rounded interval bounds would coincide: on no step a drift-broken
        # generator passed with no entry, and on one step a single interval
        # stood in for the 4 requested
        broken = strip_generator_term(heston, "drift")
        with pytest.raises(ValueError, match=f"{grid.n_steps} steps cannot bound 4"):
            m.martingale_test(heston, broken, [m.linear_function([0.0, 1.0])],
                              [constant_probe()], start, grid, 16, 1)

    @pytest.mark.parametrize("empty", ["test_functions", "probes"])
    def test_needs_a_test_function_and_a_probe(self, heston, start, empty):
        # an empty list has no entry to fail, so its report would pass vacuously
        lists = {"test_functions": [m.linear_function([1.0, 0.0])], "probes": [constant_probe()]}
        lists[empty] = []
        with pytest.raises(ValueError, match="at least one"):
            m.martingale_test(heston, heston, lists["test_functions"], lists["probes"],
                              start, _SMALL_GRID, 16, 1)


class TestItoFormula:
    def test_linear_identity_exact(self, heston, start):
        grid = m.TimeGrid(0.0, 0.5, 2.0**-6)
        v = m.TestFunction(
            name="x1", d=2,
            jet=lambda t, x: (x[:, 0], np.tile([1.0, 0.0], (x.shape[0], 1)),
                              np.zeros((x.shape[0], 2, 2))),
            dt=lambda t, x: np.zeros(x.shape[0]),
            xd_hess=lambda t, x: np.zeros((x.shape[0], 2, 2)),
        )
        rep = m.ito_formula_residual(heston, v, start, grid, 2000, 13, "full_truncation")
        assert rep.max_abs_residual <= 1e-12

    def test_boundary_function_residual_halves(self, heston, start):
        ladder = ito_residual_ladder(heston, time_weighted_xd(1.0), start, 1.0,
                                       [2.0**-6, 2.0**-7, 2.0**-8], 8000, 51)
        for ratio in ladder["halving_ratios"]:
            assert 1.4 <= ratio <= 2.6

    def test_spatially_constant_v_deterministic(self, heston, start):
        horizon = 0.5
        v = m.TestFunction(
            name="(T-t)^2", d=2,
            jet=lambda t, x: (np.full(x.shape[0], (horizon - t) ** 2), np.zeros_like(x),
                              np.zeros((x.shape[0], 2, 2))),
            dt=lambda t, x: np.full(x.shape[0], -2.0 * (horizon - t)),
            xd_hess=lambda t, x: np.zeros((x.shape[0], 2, 2)),
        )
        grid = m.TimeGrid(0.0, horizon, 2.0**-5)
        rep = m.ito_formula_residual(heston, v, start, grid, 64, 3, "full_truncation")
        # noise terms vanish, so the residual is the same deterministic
        # time-quadrature error on every path
        assert rep.max_abs_residual == pytest.approx(rep.mean_abs_residual, rel=1e-9)
        assert rep.rms_residual == pytest.approx(rep.mean_abs_residual, rel=1e-9)

    def test_draws_each_steps_normals_once(self, heston, start, monkeypatch):
        # the residual reads the kernel's own normals: one Brownian draw per step
        domains = []
        normals = rng.normals

        def counted(seed, domain, *args):
            domains.append(domain)
            return normals(seed, domain, *args)

        monkeypatch.setattr(rng, "normals", counted)
        grid = m.TimeGrid(0.0, 0.5, 2.0**-5)
        m.ito_formula_residual(heston, time_weighted_xd(0.5), start, grid, 16, 1,
                               "full_truncation")
        assert domains.count(rng.DOMAIN_BROWNIAN) == grid.n_steps

    def test_grid_without_steps_has_zero_residual(self, heston, start):
        rep = m.ito_formula_residual(heston, time_weighted_xd(0.5), start,
                                     m.TimeGrid(0.0, 0.0, 0.1), 8, 1, "full_truncation")
        assert rep.max_abs_residual == 0.0

    def test_requires_product_hessian(self, heston, start):
        grid = m.TimeGrid(0.0, 0.5, 2.0**-5)
        v = m.TestFunction(
            name="no-product", d=2,
            jet=lambda t, x: (x[:, 0], np.tile([1.0, 0.0], (x.shape[0], 1)),
                              np.zeros((x.shape[0], 2, 2))),
            dt=lambda t, x: np.zeros(x.shape[0]),
        )
        with pytest.raises(ValueError, match="x_d"):
            m.ito_formula_residual(heston, v, start, grid, 16, 1, "full_truncation")


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail any kernel run the restart test starts."""
    def fail(*args, **kwargs):
        raise AssertionError("a path was simulated before the arguments were checked")

    monkeypatch.setattr(m.martingale, "simulate_sde", fail)
    monkeypatch.setattr(m.martingale, "_euler_paths", fail)


class TestRestart:
    def test_deterministic_model_exact(self, start):
        det = constant_model([0.1, 0.05], a_mat=np.zeros((2, 2)))
        gs = [("x_1", lambda x: x[:, 0]), ("x_2", lambda x: x[:, 1])]
        rep = m.strong_markov_restart_test(det, start, level=0.01, t_cap=0.25, u=0.25,
                                           g_list=gs, n_paths=400, h=2.0**-5, seed=61,
                                           min_bin=50)
        assert rep.max_ks == 0.0
        assert rep.passed

    def test_heston_pass_and_perturbed_fail(self, heston, start):
        # per-bin n = 1000 puts the same-law KS floor near 0.06, so the
        # unit-scale threshold is 0.08; the acceptance-scale run tightens it
        gs = [("x_2", lambda x: x[:, 1])]
        common = dict(level=0.01, t_cap=0.5, u=0.25, g_list=gs,
                      n_paths=4000, h=2.0**-7, seed=61, min_bin=300,
                      ks_threshold=0.08)
        ok = m.strong_markov_restart_test(heston, start, **common)
        assert ok.n_hits == 4000
        assert ok.passed, ok.to_json()
        bad = m.strong_markov_restart_test(heston, start, perturb=[0.0, 0.05], **common)
        assert not bad.passed

    def test_undersized_last_bin_merges_into_the_previous_bin(self, start):
        # a drift of -0.4 stops 293 of 400 paths on x_d = 0 exactly (the clip),
        # so three quartiles tie at 0: bins 0 and 1 are empty and merge
        # rightward, bin 2 holds 300 paths and the last bin the 100 others
        model = constant_model([0.0, -0.4])
        common = dict(level=0.0, t_cap=0.25, u=0.25, g_list=[("x_2", lambda x: x[:, 1])],
                      n_paths=400, h=2.0**-5, seed=3, n_bins=4)
        split = m.strong_markov_restart_test(model, start, min_bin=50, **common)
        assert split.merged_bins == 2
        assert [e.count for e in split.entries] == [300, 100]
        assert split.entries[0].bin_lo == 0.0
        # at min_bin 150 the last bin is undersized and joins bin 2
        merged = m.strong_markov_restart_test(model, start, min_bin=150, **common)
        assert merged.merged_bins == 3
        (entry,) = merged.entries
        assert (entry.bin_lo, entry.bin_hi, entry.count) == (
            split.entries[0].bin_lo, split.entries[-1].bin_hi, 400)

    def test_u_must_be_grid_multiple(self, heston, start, no_simulation):
        # t_cap is a node but t_cap + u = 0.8 is not
        with pytest.raises(ValueError, match="u = 0.3 makes t = 0.8 not a node"):
            m.strong_markov_restart_test(heston, start, level=0.01, t_cap=0.5, u=0.3,
                                         g_list=[("x", lambda x: x[:, 0])],
                                         n_paths=100, h=0.25, seed=1)

    @pytest.mark.parametrize("t_cap, u, match", [
        (0.55, 0.2, "not a node"),  # t_cap + u = 0.75 is a node, t_cap is not
        (0.5, 0.0, "at least one step"),
        (0.5, -0.25, "at least one step"),
    ])
    def test_misuse_raises_before_simulating(self, heston, start, no_simulation, t_cap, u, match):
        with pytest.raises(ValueError, match=match):
            m.strong_markov_restart_test(heston, start, level=0.01, t_cap=t_cap, u=u,
                                         g_list=[("x", lambda x: x[:, 0])],
                                         n_paths=100, h=0.25, seed=1)

    @pytest.mark.parametrize("level, t_cap, capped", [
        (0.09, 0.5, "none"),  # the start is at the level: tau = t0 on every path
        (0.06, 2.0**-5, "some"),  # the cap is the first step
        (0.005, 0.125, "all"),  # no path reaches the level
    ], ids=["start-at-level", "cap-one-step", "level-unreached"])
    def test_stop_and_continuation_match_stored_paths(self, heston, start, monkeypatch,
                                                       level, t_cap, capped):
        # the reference reads tau off a stride-1 ensemble of the same seed; g
        # sees X(tau+u) and the restart kernel X(tau) and tau (one bin, so in
        # path order)
        h, u, n, seed = 2.0**-5, 0.125, 300, 61
        ens = m.simulate_sde(heston, start, m.TimeGrid(0.0, t_cap + u, h), n, seed)
        k_cap, u_steps = round(t_cap / h), round(u / h)
        hit = ens.states[:, :k_cap + 1, -1] <= level
        first = np.where(hit.any(axis=1), hit.argmax(axis=1), k_cap)
        rows = np.arange(n)
        seen, restarts = [], []

        def g(x):
            seen.append(np.array(x))
            return x[:, 1]

        def euler_paths(driver, x0, t0, *args, **kwargs):
            restarts.append((np.array(x0), np.array(t0)))
            return real(driver, x0, t0, *args, **kwargs)

        real = m.martingale._euler_paths
        monkeypatch.setattr(m.martingale, "_euler_paths", euler_paths)
        rep = m.strong_markov_restart_test(heston, start, level=level, t_cap=t_cap, u=u,
                                           g_list=[("x_2", g)], n_paths=n, h=h, seed=seed,
                                           n_bins=1, min_bin=1)
        (x_tau, t_tau), = restarts
        assert np.array_equal(x_tau, ens.states[rows, first])
        assert np.array_equal(t_tau, ens.grid.nodes[first])
        assert np.array_equal(seen[0], ens.states[rows, first + u_steps])
        assert rep.n_capped == np.count_nonzero(~hit.any(axis=1))
        assert {"none": rep.n_capped == 0 and not first.any(), "all": rep.n_capped == n,
                "some": 0 < rep.n_capped < n}[capped]

    def test_peak_memory_below_one_trajectory(self, heston, start):
        # tau, X(tau) and X(tau+u) are kept in the kernel's hook on a pass
        # that stores endpoints only, so the whole test peaks below one
        # stride-1 states array, which dominates at 256 steps
        h, n = 2.0**-8, 2000
        tracemalloc.start()
        try:
            m.strong_markov_restart_test(heston, start, level=0.01, t_cap=0.5, u=0.5,
                                         g_list=[("x_2", lambda x: x[:, 1])],
                                         n_paths=n, h=h, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * (round(1.0 / h) + 1) * heston.d * 8
