import dataclasses

import numpy as np
import pytest

import mimicsde as m
from mimicsde.pde import (
    SCHEMES,
    _assemble_stages,
    _Lines,
    _march,
    _Stencil,
    killing_on_grid,
    time_reversed_model,
)

from conftest import constant_model


def small_grid(n=33, x_max=0.5, extent=1.5, dt=1.0 / 64):
    return m.Grid.build(dt=dt, x_prime_extent=extent, x_max=x_max, counts=[n, n])


def ones(x):
    return np.ones(x.shape[0])


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            m.Grid(dt=0.1, axes=(np.array([0.0, 1.0]),))  # < 3 nodes
        with pytest.raises(ValueError):
            m.Grid(dt=0.1, axes=(np.array([0.1, 0.5, 1.0]),))  # no boundary layer
        with pytest.raises(ValueError):
            m.Grid(dt=-0.1, axes=(np.array([0.0, 0.5, 1.0]),))

    def test_geometric_refinement(self):
        g = m.Grid.build(dt=0.1, x_prime_extent=1.0, x_max=1.0, counts=[5, 9], xd_stretch=2.0)
        ax = g.axes[-1]
        assert ax[0] == 0.0 and ax[-1] == 1.0
        assert np.diff(ax)[0] < np.diff(ax)[-1]

    def test_march_rejects_three_node_x_prime_axis(self):
        # the two edge closures of a 3-node axis read each other: singular
        grid = m.Grid.build(dt=1 / 16, x_prime_extent=1.0, x_max=0.5, counts=[3, 9])
        with pytest.raises(ValueError, match="at least 4 nodes"):
            m.solve_cauchy(constant_model([0.0, 0.1]), None, ones, grid, 0.25)

    def test_coarsen(self):
        g = small_grid(n=33)
        c = g.coarsen()
        assert c.shape == (17, 17)
        assert np.array_equal(c.axes[0], g.axes[0][::2])


def dense_stage(st, lines, bands, h):
    """I - h P_k with the closure rows ``lines`` owns, as a dense matrix in grid numbering."""
    order = lines.order
    mat = np.eye(st.nn)
    for band, shift in ((0, -1), (1, 0), (2, 1)):
        p = np.flatnonzero(bands[band])
        mat[order[p], order[p + shift]] -= h * bands[band][p]
    for pos, step, e1, e2 in lines.closures:
        mat[order[pos], order[pos + step]] = e1
        mat[order[pos], order[pos + 2 * step]] = e2
    return mat


def line_neighbours(lines, bands, pos):
    """Grid nodes that the stage rows at line positions ``pos`` read."""
    prev = pos[bands[0][pos] != 0]
    nxt = pos[bands[2][pos] != 0]
    return np.concatenate([lines.order[prev - 1], lines.order[nxt + 1]])


class TestStencilStructure:
    def test_no_dependence_below_boundary(self, heston):
        # every stage row of a boundary-layer node only references x_d layers
        # 0 and 1: nothing below x_d = 0 exists to be read, which is the whole point
        grid = small_grid(n=9)
        st = _Stencil(grid)
        stages, _ = _assemble_stages(heston, 0.0, st)
        assert len(stages) == 3  # x', x_d and Heston's e_1 - e_2 diagonal
        for lines, bands in stages:
            read = line_neighbours(lines, bands, lines.rank[st.blayer])
            assert set(st.index[-1][read]).issubset({0, 1})

    def test_outer_rows_zero_in_operator(self, heston):
        grid = small_grid(n=9)
        st = _Stencil(grid)
        for lines, bands in _assemble_stages(heston, 0.0, st)[0]:
            assert not np.any(bands[:, lines.rank[st.outer]])

    def test_stage_matrices_have_nonpositive_off_diagonals(self, heston):
        # P's Heston rows are M-matrix rows on this grid, and each stage keeps
        # P's off-diagonal entries, so every I - dt P_k is an M-matrix there
        grid = small_grid(n=33)
        st = _Stencil(grid)
        rows = np.flatnonzero(~st.outer)
        for lines, bands in _assemble_stages(heston, grid.dt, st)[0]:
            mat = dense_stage(st, lines, bands, grid.dt)[rows]
            diag = mat[np.arange(rows.size), rows].copy()
            mat[np.arange(rows.size), rows] = 0.0
            assert mat.max() <= 0.0
            # diagonally dominant: row sums stay 1 with c = 0
            assert np.all(diag + mat.sum(axis=1) >= 1.0 - 1e-12)


@pytest.mark.parametrize("shape", [(3, 3), (5, 9), (9, 9), (65, 65), (81, 97), (9, 9, 9)])
def test_line_order_is_permutation(shape):
    # each direction's order visits every node once, and consecutive
    # positions either step once along the direction or start a new line
    grid = m.Grid(dt=0.1, axes=tuple(np.arange(n) / (n - 1) for n in shape))
    st = _Stencil(grid)
    unit = np.eye(len(shape), dtype=int)
    directions = [*unit, *(unit[i] + sign * unit[j] for i, j, sign in st.diagonals)]
    for direction in directions:
        lines = _Lines(st.index, direction)
        assert np.array_equal(np.sort(lines.order), np.arange(st.nn))
        idx = st.index[:, lines.order]
        step = np.diff(idx, axis=1)
        along = np.all(step == direction[:, None], axis=0)
        starts = np.concatenate([[0], np.flatnonzero(~along) + 1])
        # one run of steps per lattice line: as many runs as lines
        lead = int(np.flatnonzero(direction)[0])
        base = idx - np.outer(direction, idx[lead])
        assert np.unique(base, axis=1).shape[1] == starts.size


class TestStageSplit:
    @pytest.mark.parametrize("model_name", ["heston", "gridded_model"])
    def test_steps_match_dense_stage_solves(self, request, model_name):
        # an implicit step is the product of the stage solves, each a dense
        # solve in grid numbering followed by the explicit closure pass; the
        # second step runs the stages in reverse order
        model = request.getfixturevalue(model_name)
        grid = m.Grid.build(dt=2.0**-5, x_prime_extent=1.0, x_max=0.5, counts=(17, 17))
        x = grid.nodes()
        block = np.column_stack([np.exp(-x[:, 0] ** 2) * (1.0 + x[:, 1]), x[:, 0] - x[:, 1] ** 2])
        f = lambda t, x: t * np.sin(x[:, 0]) * (1.0 + x[:, 1])

        st = _Stencil(grid)
        ref = block.copy()
        refs = []
        for n in range(2):
            t = (n + 1) * grid.dt
            stages = _assemble_stages(model, t, st)[0]
            for lines, bands in stages if n == 0 else stages[::-1]:
                rhs = ref.copy()
                if lines is st.axes[0]:
                    rhs[~st.outer] -= grid.dt * f(t, x)[~st.outer, None]
                for pos, *_ in lines.closures:
                    rhs[lines.order[pos]] = 0.0
                ref = np.linalg.solve(dense_stage(st, lines, bands, grid.dt), rhs)
                for rows, offset, e1, e2 in st.closures:
                    ref[rows] = -(e1 * ref[rows + offset] + e2 * ref[rows + 2 * offset])
            refs.append(ref)

        sols = _march(model, f, block, grid, 2 * grid.dt, "implicit_euler", "all")
        for n, ref in enumerate(refs):
            got = np.column_stack([sol.values[n + 1].ravel() for sol in sols])
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_inner_extrema_exclude_outer_nodes(self, heston):
        grid = small_grid(n=9)
        g = lambda x: np.exp(-np.sum(x**2, axis=1))
        sol = m.solve_cauchy(heston, None, g, grid, 0.25, store="all")
        inner = ~_Stencil(grid).outer
        layers = sol.values.reshape(len(sol.times), -1)[:, inner]
        assert sol.meta["inner_min"] == layers.min()
        assert sol.meta["inner_max"] == layers.max()
        assert sol.layer_min.min() <= sol.meta["inner_min"]


class TestExactness:
    def test_constants_both_schemes(self, heston):
        grid = small_grid()
        for scheme in ("implicit_euler", "crank_nicolson"):
            sol = m.solve_cauchy(heston, None, ones, grid, 0.5, scheme=scheme, store="ends")
            assert np.abs(sol.values[-1] - 1.0).max() < 1e-12

    def test_affine_transport_exact(self):
        # b constant, g = x_1: u(t, x) = x_1 + b_1 t solves the problem and
        # second differences kill it, so only drift quadrature remains (exact)
        model = constant_model([0.3, 0.2])
        grid = small_grid()
        sol = m.solve_cauchy(model, None, lambda x: x[:, 0], grid, 0.5, store="ends")
        nodes = grid.nodes()
        expected = nodes[:, 0] + 0.3 * 0.5
        err = np.abs(sol.values[-1].ravel() - expected)
        inner = (np.abs(nodes[:, 0]) <= 0.75) & (nodes[:, 1] <= 0.25)
        assert err[inner].max() < 1e-8

    def test_killing_reduces_to_ode(self, heston_killing):
        grid = small_grid(dt=1.0 / 128)
        sol = m.solve_cauchy(heston_killing, None, ones, grid, 0.5, store="ends")
        assert np.abs(sol.values[-1] - np.exp(-0.02 * 0.5)).max() < 1e-6

    def test_initial_layer_exact(self, heston):
        grid = small_grid()
        g = lambda x: np.cos(x[:, 0]) + x[:, 1]
        sol = m.solve_cauchy(heston, None, g, grid, 0.25, store="all")
        assert np.array_equal(sol.values[0].ravel(), g(grid.nodes()))

    def test_source_term_spatially_constant(self, heston):
        # u_t = A u - f with f = 1, g = 0, c = 0: u(t) = -t exactly
        grid = small_grid()
        f = lambda t, x: np.ones(x.shape[0])
        zero = lambda x: np.zeros(x.shape[0])
        sol = m.solve_cauchy(heston, f, zero, grid, 0.5, store="ends")
        assert np.abs(sol.values[-1] + 0.5).max() < 1e-12


class TestTerminalValue:
    def test_constant_terminal(self, heston):
        grid = small_grid()
        sol = m.solve_terminal_value(heston, ones, 0.5, grid, store="ends")
        assert np.abs(sol.values[0] - 1.0).max() < 1e-12

    def test_reversal_is_definitional(self, heston):
        grid = small_grid()
        g = lambda x: np.exp(-np.sum(x**2, axis=1))
        vt = m.solve_terminal_value(heston, g, 0.5, grid, store="all")
        uc = m.solve_cauchy(time_reversed_model(heston, 0.5), None, g, grid, 0.5, store="all")
        n = len(vt.times)
        for k in range(n):
            assert np.array_equal(vt.values[k], uc.values[n - 1 - k])
        assert np.array_equal(vt.values[-1].ravel(), g(grid.nodes()))

    def test_pure_transport_characteristics(self):
        # a = 0, b constant: v(t, x) = g(x + b (T - t)) along characteristics
        model = constant_model([0.0, 0.4], a_mat=np.zeros((2, 2)))
        grid = m.Grid.build(dt=1.0 / 256, x_prime_extent=1.5, x_max=1.5, counts=[65, 129])
        g = lambda x: np.exp(-8.0 * ((x[:, 0]) ** 2 + (x[:, 1] - 0.5) ** 2))
        sol = m.solve_terminal_value(model, g, 0.25, grid, store="ends")
        nodes = grid.nodes()
        shifted = nodes.copy()
        shifted[:, 1] += 0.4 * 0.25
        expected = g(shifted)
        inner = (np.abs(nodes[:, 0]) <= 0.75) & (nodes[:, 1] <= 0.75)
        err = np.abs(sol.values[0].ravel() - expected)[inner].max()
        # first-order upwinding smears the profile at O(h) scale
        assert err < 0.12
        coarse = m.Grid.build(dt=1.0 / 128, x_prime_extent=1.5, x_max=1.5, counts=[65, 65])
        sol_c = m.solve_terminal_value(model, g, 0.25, coarse, store="ends")
        nodes_c = coarse.nodes()
        shifted_c = nodes_c.copy()
        shifted_c[:, 1] += 0.4 * 0.25
        inner_c = (np.abs(nodes_c[:, 0]) <= 0.75) & (nodes_c[:, 1] <= 0.75)
        err_c = np.abs(sol_c.values[0].ravel() - g(shifted_c))[inner_c].max()
        assert err < err_c  # refined mesh does better


class TestStructuralProperties:
    def test_maximum_principle_bumps(self, heston):
        # upwinding + the sign-split cross stencil make the interior operator
        # an M-matrix, so min g <= u <= max g up to the action of the outer
        # extrapolation closure on the (box-size rule: < 1e-4) boundary tails
        grid = m.Grid.build(dt=1.0 / 64, x_prime_extent=2.5, x_max=1.0, counts=[81, 97])
        gen = np.random.default_rng(7)
        for _ in range(10):
            r = gen.uniform(0.08, 0.15)
            c = np.array([gen.uniform(-0.6, 0.6), gen.uniform(0.1, 0.3)])
            bump = m.radial_bump(c, r)
            g = lambda x: bump.jet(0.0, x)[0]
            sol = m.solve_cauchy(heston, None, g, grid, 0.25, store="ends")
            assert sol.layer_max.max() <= 1.0 + 1e-6
            assert sol.layer_min.min() >= -1e-6

    def test_linearity_to_solver_tolerance(self, heston):
        grid = small_grid()
        g1 = lambda x: np.exp(-np.sum(x**2, axis=1))
        g2 = lambda x: np.cos(x[:, 0])
        combo = lambda x: 2.0 * g1(x) - 0.5 * g2(x)
        s1 = m.solve_cauchy(heston, None, g1, grid, 0.25, store="ends").values[-1]
        s2 = m.solve_cauchy(heston, None, g2, grid, 0.25, store="ends").values[-1]
        sc = m.solve_cauchy(heston, None, combo, grid, 0.25, store="ends").values[-1]
        assert np.abs(sc - (2.0 * s1 - 0.5 * s2)).max() < 1e-10

    def test_self_convergence_order(self, heston):
        bump = m.radial_bump([0.0, 0.1], 0.35)
        g = lambda x: bump.jet(0.0, x)[0]
        sols = {}
        for n, dt in ((33, 1 / 64), (65, 1 / 128), (129, 1 / 256)):
            grid = m.Grid.build(dt=dt, x_prime_extent=1.5, x_max=0.5, counts=[n, n])
            sols[n] = m.solve_cauchy(heston, None, g, grid, 0.25, store="ends")
        # compare on the shared coarse nodes (every other fine node)
        u33 = sols[33].values[-1]
        u65 = sols[65].values[-1][::2, ::2]
        u129 = sols[129].values[-1][::4, ::4]
        d1 = np.abs(u65 - u33).max()
        d2 = np.abs(u129 - u65).max()
        order = np.log2(d1 / d2)
        assert order >= 1.0

    def test_cn_warns_on_strong_drift(self):
        model = constant_model([50.0, 1.0])
        grid = small_grid()
        with pytest.warns(RuntimeWarning, match="crank_nicolson"):
            m.solve_cauchy(model, None, ones, grid, 0.25, scheme="crank_nicolson",
                           store="ends")


class TestDuality:
    def test_heston_bump_small(self, heston):
        bump = m.radial_bump([0.0, 0.04], 0.5)
        g = lambda x: bump.jet(0.0, x)[0]
        grid = m.Grid.build(dt=1 / 128, x_prime_extent=1.5, x_max=0.5, counts=[65, 65])
        rep = m.duality_check(heston, g, [0.0, 0.09], 0.5, grid,
                              mc_paths=20_000, mc_step=2.0**-8, mc_seed=11)
        assert rep.passed, rep.to_json()

    def test_wrong_start_fails(self, heston):
        bump = m.radial_bump([0.0, 0.04], 0.5)
        g = lambda x: bump.jet(0.0, x)[0]
        grid = m.Grid.build(dt=1 / 128, x_prime_extent=1.5, x_max=0.5, counts=[65, 65])
        rep = m.duality_check(heston, g, [0.0, 0.09], 0.5, grid,
                              mc_paths=20_000, mc_step=2.0**-8, mc_seed=11,
                              pde_eval_shift=[0.0, 0.05])
        assert not rep.passed

    def test_killing_discount(self, heston_killing):
        # g = 1 with killing: both sides equal exp(c T)
        grid = m.Grid.build(dt=1 / 128, x_prime_extent=1.5, x_max=0.5, counts=[33, 33])
        rep = m.duality_check(heston_killing, ones, [0.0, 0.09], 0.5, grid,
                              mc_paths=500, mc_step=2.0**-6, mc_seed=3)
        assert rep.passed
        assert rep.mc_mean == pytest.approx(np.exp(-0.01), abs=1e-6)

    def test_killing_vanishing_at_start_is_discounted(self):
        # deterministic transport x_1(t) = t from x_1 = 0, where c = -x_1^2 is
        # zero: the discount exp(-T^3 / 3) must still be applied
        model = dataclasses.replace(constant_model([1.0, 0.0], a_mat=np.zeros((2, 2))),
                                    c=lambda t, x: -np.asarray(x)[:, 0] ** 2)
        grid = m.Grid.build(dt=1 / 64, x_prime_extent=1.5, x_max=1.0, counts=[33, 9])
        rep = m.duality_check(model, ones, [0.0, 0.5], 1.0, grid,
                              mc_paths=8, mc_step=2.0**-9, mc_seed=3)
        assert rep.mc_mean == pytest.approx(np.exp(-1.0 / 3.0), abs=2e-3)
        assert rep.pde_value == pytest.approx(np.exp(-1.0 / 3.0), abs=0.05)


    def test_killing_vanishing_at_time_zero_is_discounted(self):
        # c = -t is zero at t = 0 on every node: the discount exp(-T^2 / 2)
        # must still be applied
        model = dataclasses.replace(constant_model([0.0, 0.0], a_mat=np.zeros((2, 2))),
                                    c=lambda t, x: np.full(np.asarray(x).shape[0], -float(t)),
                                    time_independent=False)
        grid = m.Grid.build(dt=1 / 64, x_prime_extent=1.5, x_max=1.0, counts=[9, 9])
        rep = m.duality_check(model, ones, [0.0, 0.5], 1.0, grid,
                              mc_paths=8, mc_step=2.0**-9, mc_seed=3)
        assert rep.mc_mean == pytest.approx(np.exp(-0.5), abs=2e-3)
        assert rep.pde_value == pytest.approx(np.exp(-0.5), abs=0.05)


def test_killing_on_grid(heston, heston_killing):
    grid = small_grid(n=9)
    times = [0.0, 0.25, 0.5]
    assert killing_on_grid(heston, grid, times) == (False, 0.0)
    assert killing_on_grid(heston_killing, grid, times) == (True, -0.02)
    varying = dataclasses.replace(heston, c=lambda t, x: -np.asarray(x)[:, 0] ** 2)
    assert varying.c(0.0, np.zeros((1, 2)))[0] == 0.0  # zero at the origin, a node
    assert killing_on_grid(varying, grid, times) == (True, None)
    late = dataclasses.replace(heston, c=lambda t, x: np.full(np.asarray(x).shape[0], -float(t)))
    assert killing_on_grid(late, grid, [0.0]) == (False, 0.0)
    assert killing_on_grid(late, grid, times) == (True, None)


class TestBlockMarch:
    @pytest.mark.parametrize("store", ["all", "ends"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("model_name", ["heston", "gridded_model"])
    def test_columns_bit_equal_single_marches(self, request, model_name, scheme, store):
        # Heston factors once; the time-dependent gridded model factors at
        # every step.  Either way each column of a k-column march carries
        # exactly the bits of a march of that column alone.
        model = request.getfixturevalue(model_name)
        grid = m.Grid.build(dt=2.0**-5, x_prime_extent=1.0, x_max=0.5, counts=(9, 9))
        x = grid.nodes()
        block = np.column_stack([np.ones(len(x)), np.exp(-x[:, 0] ** 2) * (1.0 + x[:, 1]),
                                 x[:, 0] - x[:, 1] ** 2])
        for f in (None, lambda t, x: t * np.sin(x[:, 0]) * x[:, 1]):
            singles = [_march(model, f, block[:, [j]], grid, 0.25, scheme, store)[0]
                       for j in range(3)]
            for k in (2, 3):
                sols = _march(model, f, block[:, :k], grid, 0.25, scheme, store)
                assert len(sols) == k
                for sol, ref in zip(sols, singles):
                    assert sol.values.shape == ref.values.shape
                    assert np.array_equal(sol.times, ref.times)
                    assert np.array_equal(sol.values, ref.values)
                    assert np.array_equal(sol.layer_min, ref.layer_min)
                    assert np.array_equal(sol.layer_max, ref.layer_max)
