import dataclasses

import numpy as np
import pytest

import mimicsde as m
from mimicsde import pde
from mimicsde.pde import (
    SCHEMES,
    _assemble_stages,
    _Lines,
    _march,
    _node_coefficients,
    _Stencil,
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
        with pytest.raises(ValueError, match="at least one axis"):
            m.Grid.build(dt=0.1, x_prime_extent=1.0, x_max=0.5, counts=[])

    def test_rejects_a_nonuniform_axis(self):
        # x_d = x_max (j/n)^2 spaces the first x_d interval 31 times finer
        # than the last: the march assembles one spacing per axis
        ax_d = 0.5 * (np.arange(17) / 16) ** 2
        with pytest.raises(ValueError, match="uniformly spaced"):
            m.Grid(dt=1.0 / 64, axes=(np.linspace(-1.5, 1.5, 17), ax_d))

    @pytest.mark.parametrize("g", [lambda x: x[:, 0],
                                   lambda x: 1.0 + 2.0 * x[:, 0] - 3.0 * x[:, 1]],
                             ids=["x1", "affine"])
    def test_affine_data_exact_with_a_cross_term(self, g):
        # a cross term on counts that are not 2^k + 1: each line stage is zero
        # on affine data by itself, and so are the boundary layer's one-sided
        # drift and the outer closures, so u(t, x) = g(x + b t) at every node
        grid = m.Grid.build(dt=1.0 / 64, x_prime_extent=1.5, x_max=0.5, counts=[21, 13])
        model = constant_model([0.3, 0.2], a_mat=[[1.0, 0.4], [0.4, 0.5]])
        sol = m.solve_cauchy(model, g, grid, 0.5)
        expected = g(grid.nodes() + 0.5 * np.array([0.3, 0.2]))
        assert np.abs(sol.values.ravel() - expected).max() < 1e-12

    def test_coarsened_linspace_axes_are_uniform(self):
        # 21 nodes on [-1.5, 1.5] have gaps that differ at rounding level;
        # their every-other-node subsampling passes the uniformity check too
        grid = m.Grid.build(dt=1.0 / 64, x_prime_extent=1.5, x_max=0.5, counts=[21, 21])
        coarse = grid.coarsen()
        assert coarse.shape == (11, 11)
        assert np.allclose(coarse.spacing, 2.0 * np.array(grid.spacing), rtol=1e-12)

    def test_march_rejects_a_grid_of_another_dimension(self):
        grid = m.Grid.build(dt=1 / 16, x_prime_extent=1.0, x_max=0.5, counts=[9, 9, 9])
        with pytest.raises(ValueError, match="3 axes; the model's dimension is 2"):
            _march(constant_model([0.0, 0.1]), np.ones((grid.n_nodes, 1)), grid, 0.25,
                   "implicit_euler")

    def test_march_rejects_three_node_x_prime_axis(self):
        # the two edge closures of a 3-node axis read each other: singular
        grid = m.Grid.build(dt=1 / 16, x_prime_extent=1.0, x_max=0.5, counts=[3, 9])
        with pytest.raises(ValueError, match="at least 4 nodes"):
            m.solve_cauchy(constant_model([0.0, 0.1]), ones, grid, 0.25)

    def test_coarsen(self):
        g = small_grid(n=33)
        c = g.coarsen()
        assert c.shape == (17, 17)
        assert np.array_equal(c.axes[0], g.axes[0][::2])


def assemble(model, t, st):
    """The line stages and boundary-layer b_d at time t, from the march's own coefficients."""
    return _assemble_stages(st, _node_coefficients(model, st)(t))


def dense_stage(st, lines, bands, h):
    """I - h P_k with the closure rows ``lines`` owns, as a dense matrix in grid numbering."""
    order = lines.order
    mat = np.eye(st.nn)
    for band, shift in ((0, -1), (1, 0), (2, 1)):
        p = np.flatnonzero(bands[band])
        mat[order[p], order[p + shift]] -= h * bands[band][p]
    for pos, step in lines.closures:
        mat[order[pos], order[pos + step]] = -2.0
        mat[order[pos], order[pos + 2 * step]] = 1.0
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
        stages, _ = assemble(heston, 0.0, st)
        assert len(stages) == 3  # x', x_d and Heston's e_1 - e_2 diagonal
        for lines, bands in stages:
            read = line_neighbours(lines, bands, lines.rank[st.blayer])
            assert set(st.index[-1][read]).issubset({0, 1})

    def test_outer_rows_zero_in_operator(self, heston):
        grid = small_grid(n=9)
        st = _Stencil(grid)
        for lines, bands in assemble(heston, 0.0, st)[0]:
            assert not np.any(bands[:, lines.rank[st.outer]])

    def test_stage_matrices_have_nonpositive_off_diagonals(self, heston):
        # P's Heston rows are M-matrix rows on this grid, and each stage keeps
        # P's off-diagonal entries, so every I - dt P_k is an M-matrix there
        grid = small_grid(n=33)
        st = _Stencil(grid)
        rows = np.flatnonzero(~st.outer)
        for lines, bands in assemble(heston, grid.dt, st)[0]:
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

        st = _Stencil(grid)
        ref = block.copy()
        refs = []
        for n in range(2):
            t = (n + 1) * grid.dt
            stages = assemble(model, t, st)[0]
            for lines, bands in stages if n == 0 else stages[::-1]:
                rhs = ref.copy()
                for pos, _ in lines.closures:
                    rhs[lines.order[pos]] = 0.0
                ref = np.linalg.solve(dense_stage(st, lines, bands, grid.dt), rhs)
                for rows, near, far in st.closures:
                    ref[rows] = 2.0 * ref[near] - ref[far]
            refs.append(ref)

        for n, ref in enumerate(refs):
            sols = _march(model, block, grid, (n + 1) * grid.dt, "implicit_euler")
            got = np.column_stack([sol.values.ravel() for sol in sols])
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_inner_extrema_exclude_outer_nodes(self, heston):
        grid = small_grid(n=9)
        g = lambda x: np.exp(-np.sum(x**2, axis=1))
        sol = m.solve_cauchy(heston, g, grid, 0.25)
        inner = ~_Stencil(grid).outer
        # every layer of the 16-step march, as the final layer of a k-step march
        layers = np.array([m.solve_cauchy(heston, g, grid, k * grid.dt).values.ravel()[inner]
                           for k in range(17)])
        assert sol.meta["inner_min"] == layers.min()
        assert sol.meta["inner_max"] == layers.max()
        assert sol.layer_min <= sol.meta["inner_min"]


class TestExactness:
    def test_constants_both_schemes(self, heston):
        grid = small_grid()
        for scheme in ("implicit_euler", "crank_nicolson"):
            sol = m.solve_cauchy(heston, ones, grid, 0.5, scheme=scheme)
            assert np.abs(sol.values - 1.0).max() < 1e-12

    def test_affine_transport_exact(self):
        # b constant, g = x_1: u(t, x) = x_1 + b_1 t solves the problem and
        # second differences kill it, so only drift quadrature remains (exact)
        model = constant_model([0.3, 0.2])
        grid = small_grid()
        sol = m.solve_cauchy(model, lambda x: x[:, 0], grid, 0.5)
        nodes = grid.nodes()
        expected = nodes[:, 0] + 0.3 * 0.5
        err = np.abs(sol.values.ravel() - expected)
        inner = (np.abs(nodes[:, 0]) <= 0.75) & (nodes[:, 1] <= 0.25)
        assert err[inner].max() < 1e-8

    def test_killing_reduces_to_ode(self, heston_killing):
        grid = small_grid(dt=1.0 / 128)
        sol = m.solve_cauchy(heston_killing, ones, grid, 0.5)
        assert np.abs(sol.values - np.exp(-0.02 * 0.5)).max() < 1e-6

    def test_initial_layer_exact(self, heston):
        grid = small_grid()
        g = lambda x: np.cos(x[:, 0]) + x[:, 1]
        sol = m.solve_cauchy(heston, g, grid, 0.0)
        assert np.array_equal(sol.values.ravel(), g(grid.nodes()))


class TestTerminalValue:
    def test_constant_terminal(self, heston):
        grid = small_grid()
        sol = m.solve_terminal_value(heston, ones, 0.5, grid)
        assert np.abs(sol.values - 1.0).max() < 1e-12

    def test_reversal_is_definitional(self, heston):
        grid = small_grid()
        g = lambda x: np.exp(-np.sum(x**2, axis=1))
        vt = m.solve_terminal_value(heston, g, 0.5, grid)
        uc = m.solve_cauchy(time_reversed_model(heston, 0.5), g, grid, 0.5)
        assert np.array_equal(vt.values, uc.values)
        assert (vt.layer_min, vt.layer_max) == (uc.layer_min, uc.layer_max)
        assert vt.meta == uc.meta

    def test_pure_transport_characteristics(self):
        # a = 0, b constant: v(t, x) = g(x + b (T - t)) along characteristics
        model = constant_model([0.0, 0.4], a_mat=np.zeros((2, 2)))
        grid = m.Grid.build(dt=1.0 / 256, x_prime_extent=1.5, x_max=1.5, counts=[65, 129])
        g = lambda x: np.exp(-8.0 * ((x[:, 0]) ** 2 + (x[:, 1] - 0.5) ** 2))
        sol = m.solve_terminal_value(model, g, 0.25, grid)
        nodes = grid.nodes()
        shifted = nodes.copy()
        shifted[:, 1] += 0.4 * 0.25
        expected = g(shifted)
        inner = (np.abs(nodes[:, 0]) <= 0.75) & (nodes[:, 1] <= 0.75)
        err = np.abs(sol.values.ravel() - expected)[inner].max()
        # first-order upwinding smears the profile at O(h) scale
        assert err < 0.12
        coarse = m.Grid.build(dt=1.0 / 128, x_prime_extent=1.5, x_max=1.5, counts=[65, 65])
        sol_c = m.solve_terminal_value(model, g, 0.25, coarse)
        nodes_c = coarse.nodes()
        shifted_c = nodes_c.copy()
        shifted_c[:, 1] += 0.4 * 0.25
        inner_c = (np.abs(nodes_c[:, 0]) <= 0.75) & (nodes_c[:, 1] <= 0.75)
        err_c = np.abs(sol_c.values.ravel() - g(shifted_c))[inner_c].max()
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
            sol = m.solve_cauchy(heston, g, grid, 0.25)
            assert sol.layer_max <= 1.0 + 1e-6
            assert sol.layer_min >= -1e-6

    def test_linearity_to_solver_tolerance(self, heston):
        grid = small_grid()
        g1 = lambda x: np.exp(-np.sum(x**2, axis=1))
        g2 = lambda x: np.cos(x[:, 0])
        combo = lambda x: 2.0 * g1(x) - 0.5 * g2(x)
        s1 = m.solve_cauchy(heston, g1, grid, 0.25).values
        s2 = m.solve_cauchy(heston, g2, grid, 0.25).values
        sc = m.solve_cauchy(heston, combo, grid, 0.25).values
        assert np.abs(sc - (2.0 * s1 - 0.5 * s2)).max() < 1e-10

    def test_self_convergence_order(self, heston):
        bump = m.radial_bump([0.0, 0.1], 0.35)
        g = lambda x: bump.jet(0.0, x)[0]
        sols = {}
        for n, dt in ((33, 1 / 64), (65, 1 / 128), (129, 1 / 256)):
            grid = m.Grid.build(dt=dt, x_prime_extent=1.5, x_max=0.5, counts=[n, n])
            sols[n] = m.solve_cauchy(heston, g, grid, 0.25)
        # compare on the shared coarse nodes (every other fine node)
        u33 = sols[33].values
        u65 = sols[65].values[::2, ::2]
        u129 = sols[129].values[::4, ::4]
        d1 = np.abs(u65 - u33).max()
        d2 = np.abs(u129 - u65).max()
        order = np.log2(d1 / d2)
        assert order >= 1.0

    def test_cn_warns_on_strong_drift(self):
        model = constant_model([50.0, 1.0])
        grid = small_grid()
        with pytest.warns(RuntimeWarning, match="crank_nicolson"):
            m.solve_cauchy(model, ones, grid, 0.25, scheme="crank_nicolson")


class TestDuality:
    @pytest.fixture(scope="class")
    def heston_bump_sides(self, heston):
        # one solve and one simulation, shared by the start and wrong-start tests
        bump = m.radial_bump([0.0, 0.04], 0.5)
        g = lambda x: bump.jet(0.0, x)[0]
        grid = m.Grid.build(dt=1 / 128, x_prime_extent=1.5, x_max=0.5, counts=[65, 65])
        pde_side = m.solve_two_grid(heston, g, 0.5, grid)
        mc = m.discounted_mean(heston, g, [0.0, 0.09], 0.5, 20_000, 2.0**-8, 11)
        return pde_side, mc

    def test_heston_bump_small(self, heston_bump_sides):
        pde_side, mc = heston_bump_sides
        rep = pde_side.report([0.0, 0.09], *mc)
        assert rep.passed, rep.to_json()

    def test_wrong_start_fails(self, heston_bump_sides):
        # negative control: the PDE side read at a start shifted by (0, 0.05)
        pde_side, mc = heston_bump_sides
        assert not pde_side.report(np.add([0.0, 0.09], [0.0, 0.05]), *mc).passed

    def test_killing_discount(self, heston_killing):
        # g = 1 with killing: both sides equal exp(c T)
        grid = m.Grid.build(dt=1 / 128, x_prime_extent=1.5, x_max=0.5, counts=[33, 33])
        mc = m.discounted_mean(heston_killing, ones, [0.0, 0.09], 0.5, 500, 2.0**-6, 3)
        rep = m.solve_two_grid(heston_killing, ones, 0.5, grid).report([0.0, 0.09], *mc)
        assert rep.passed
        assert rep.mc_mean == pytest.approx(np.exp(-0.01), abs=1e-6)

    def test_killing_vanishing_at_start_is_discounted(self):
        # deterministic transport x_1(t) = t from x_1 = 0, where c = -x_1^2 is
        # zero: the discount exp(-T^3 / 3) must still be applied
        model = dataclasses.replace(constant_model([1.0, 0.0], a_mat=np.zeros((2, 2))),
                                    c=lambda t, x: -np.asarray(x)[:, 0] ** 2)
        grid = m.Grid.build(dt=1 / 64, x_prime_extent=1.5, x_max=1.0, counts=[33, 9])
        mc = m.discounted_mean(model, ones, [0.0, 0.5], 1.0, 8, 2.0**-9, 3)
        rep = m.solve_two_grid(model, ones, 1.0, grid).report([0.0, 0.5], *mc)
        assert rep.mc_mean == pytest.approx(np.exp(-1.0 / 3.0), abs=2e-3)
        assert rep.pde_value == pytest.approx(np.exp(-1.0 / 3.0), abs=0.05)


    def test_killing_vanishing_at_time_zero_is_discounted(self):
        # c = -t is zero at t = 0 on every node: the discount exp(-T^2 / 2)
        # must still be applied
        model = dataclasses.replace(constant_model([0.0, 0.0], a_mat=np.zeros((2, 2))),
                                    c=lambda t, x: np.full(np.asarray(x).shape[0], -float(t)),
                                    knots=None)
        grid = m.Grid.build(dt=1 / 64, x_prime_extent=1.5, x_max=1.0, counts=[9, 9])
        mc = m.discounted_mean(model, ones, [0.0, 0.5], 1.0, 8, 2.0**-9, 3)
        rep = m.solve_two_grid(model, ones, 1.0, grid).report([0.0, 0.5], *mc)
        assert rep.mc_mean == pytest.approx(np.exp(-0.5), abs=2e-3)
        assert rep.pde_value == pytest.approx(np.exp(-0.5), abs=0.05)

    def test_killing_between_grid_nodes_is_discounted(self):
        # transport x_1(t) = t through c = -1 on |x_1 - 0.05| < 0.01, an
        # interval holding no node of the 33-node x' axis on [-1.5, 1.5]:
        # the paths spend time 0.02 there, so the discount is about exp(-0.02)
        model = dataclasses.replace(
            constant_model([1.0, 0.0], a_mat=np.zeros((2, 2))),
            c=lambda t, x: np.where(np.abs(np.asarray(x)[:, 0] - 0.05) < 0.01, -1.0, 0.0))
        grid = m.Grid.build(dt=1 / 64, x_prime_extent=1.5, x_max=1.0, counts=[33, 9])
        assert not np.any(np.abs(grid.axes[0] - 0.05) < 0.01)
        mc = m.discounted_mean(model, ones, [0.0, 0.5], 0.125, 8, 2.0**-9, 3)
        rep = m.solve_two_grid(model, ones, 0.125, grid).report([0.0, 0.5], *mc)
        assert rep.mc_mean == pytest.approx(np.exp(-0.02), abs=1e-3)

    @pytest.mark.parametrize("x", [[0.0, 0.6], [-1.6, 0.1], [0.0, -0.01], [0.0]])
    def test_report_rejects_a_point_outside_the_box(self, x):
        # the solution is only clamped outside its box: no score there
        model = constant_model([0.0, 0.1])
        grid = m.Grid.build(dt=1 / 16, x_prime_extent=1.5, x_max=0.5, counts=[9, 9])
        pde_side = m.solve_two_grid(model, ones, 0.25, grid)
        assert pde_side.report([1.5, 0.5], 1.0, 0.1).passed  # the box is closed
        with pytest.raises(ValueError, match="outside the PDE box"):
            pde_side.report(x, 1.0, 0.1)

    def test_sample_side_needs_two_paths(self, heston):
        with pytest.raises(ValueError, match="at least 2 paths"):
            m.discounted_mean(heston, ones, [0.0, 0.09], 0.5, 1, 2.0**-6, 3)

    @pytest.mark.parametrize("horizon", [0.0, -0.5])
    def test_sample_side_needs_positive_horizon(self, heston, horizon):
        with pytest.raises(ValueError, match="horizon"):
            m.discounted_mean(heston, ones, [0.0, 0.09], horizon, 8, 2.0**-6, 3)


def test_march_reports_killing_applied(heston, heston_killing):
    # meta's c range is the least and greatest c that the march assembled
    grid = small_grid(n=9, dt=1.0 / 8)
    u0 = np.ones((grid.n_nodes, 1))

    def c_range(model):
        meta = _march(model, u0, grid, 0.5, "implicit_euler")[0].meta
        return meta["c_min"], meta["c_max"]

    assert c_range(heston) == (0.0, 0.0)
    assert c_range(heston_killing) == (-0.02, -0.02)
    varying = dataclasses.replace(heston, c=lambda t, x: -np.asarray(x)[:, 0] ** 2)
    assert varying.c(0.0, np.zeros((1, 2)))[0] == 0.0  # zero at the origin, a node
    lo, hi = c_range(varying)
    assert lo < hi == 0.0
    late = dataclasses.replace(heston, c=lambda t, x: np.full(np.asarray(x).shape[0], -float(t)),
                               knots=None)
    assert c_range(late) == (-0.5, -0.125)  # c at the step times 1/8, ..., 1/2


def counted(model, calls):
    """``model`` with a, b and c appending (field, t) to ``calls`` on each call.

    The values are unchanged, so the model's ``knots`` stay true."""
    return dataclasses.replace(model, **{
        f: lambda t, x, f=f, fn=getattr(model, f): calls.append((f, float(t))) or fn(t, x)
        for f in "abc"})


class TestKnots:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_blend_matches_model(self, gridded_model, reverse):
        # before the first knot, at every knot, between knots and after the
        # last, the march's coefficients are the model's own up to rounding
        model = time_reversed_model(gridded_model, 1.0) if reverse else gridded_model
        knots = model.knots
        between = [k + w * (k_next - k) for k, k_next in zip(knots[:-1], knots[1:])
                   for w in (0.1, 0.5, 2 / 3)]
        times = np.sort([knots[0] - 0.3, *knots, *between, knots[-1] + 0.2])
        st = _Stencil(small_grid(n=9))
        coefficients = _node_coefficients(model, st)
        for t in times:
            want = (model.a(t, st.a_nodes), model.b(t, st.bc_nodes), model.c(t, st.bc_nodes))
            for got, ref in zip(coefficients(t), want):
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_knots_declared_and_reversed(self, gridded_model):
        assert np.array_equal(gridded_model.knots, [0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(time_reversed_model(gridded_model, 1.0).knots,
                              [0.0, 0.25, 0.5, 0.75])
        for knots in ([0.5, 0.25], [0.0, np.nan], [np.inf], [-np.inf, 0.0]):
            with pytest.raises(ValueError, match="finite, strictly increasing"):
                dataclasses.replace(gridded_model, knots=knots)

    def test_constant_models_assemble_once(self, heston, monkeypatch):
        # a one-layer built model has a single knot, constant in t; a model
        # whose knots all precede the march reads its last knot at every
        # step: either way the march reuses its first stages throughout
        spec = m.BinningSpec(times=(0.5,), edges=(np.linspace(-1.5, 1.5, 9),
                                                  [0.0, 0.05, 0.1, 0.2, 0.4]), min_count=5)
        ens = m.simulate_ito_process(m.model_driver(heston), np.array([0.0, 0.09]),
                                     m.TimeGrid(0.0, 0.5, 2.0**-4), 2000, 31, spec,
                                     store_stride=2)
        one_layer = m.build_mimicking_model(m.estimate_mimicking_coefficients(ens),
                                            max_masked_fraction=0.99)
        assert np.array_equal(one_layer.knots, [0.5])
        early = dataclasses.replace(heston, knots=[-1.0, -0.5])
        assembled = []
        assemble = pde._assemble_stages
        monkeypatch.setattr(pde, "_assemble_stages",
                            lambda *a: assembled.append(1) or assemble(*a))
        grid = small_grid(n=9, dt=1.0 / 16)
        for model in (one_layer, early):
            assembled.clear()
            _march(model, np.ones((grid.n_nodes, 1)), grid, 0.5, "implicit_euler")
            assert len(assembled) == 1

    def test_march_evaluates_each_reached_knot_once(self, gridded_model):
        # pde-gridded's time layout: lattice times k/16 (k = 1..16), horizon
        # 0.5, dt 2^-7.  The fixture's own knots 1/4, 1/2, 3/4 and 1 are among
        # those times, so it is affine between them too.  The march's 64 steps
        # reach the original times 1/16, ..., 8/16: 3 calls at each of those 8
        # knots, where evaluating at every step made 5 per step (a once, b and
        # c at the full-stencil nodes and again at the boundary layer)
        calls = []
        model = counted(dataclasses.replace(gridded_model, knots=np.arange(1, 17) / 16), calls)
        grid = m.Grid.build(dt=2.0**-7, x_prime_extent=1.0, x_max=0.5, counts=(9, 9))
        m.solve_terminal_value(model, ones, 0.5, grid)
        assert sorted(calls) == [(f, k / 16) for f in "abc" for k in range(1, 9)]


class TestBlockMarch:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("model_name", ["heston", "gridded_model"])
    def test_columns_bit_equal_single_marches(self, request, model_name, scheme):
        # Heston factors once; the time-dependent gridded model factors at
        # every step.  Either way each column of a k-column march carries
        # exactly the bits of a march of that column alone.
        model = request.getfixturevalue(model_name)
        grid = m.Grid.build(dt=2.0**-5, x_prime_extent=1.0, x_max=0.5, counts=(9, 9))
        x = grid.nodes()
        block = np.column_stack([np.ones(len(x)), np.exp(-x[:, 0] ** 2) * (1.0 + x[:, 1]),
                                 x[:, 0] - x[:, 1] ** 2])
        singles = [_march(model, block[:, [j]], grid, 0.25, scheme)[0] for j in range(3)]
        for k in (2, 3):
            sols = _march(model, block[:, :k], grid, 0.25, scheme)
            assert len(sols) == k
            for sol, ref in zip(sols, singles):
                assert sol.values.shape == ref.values.shape
                assert np.array_equal(sol.values, ref.values)
                assert (sol.layer_min, sol.layer_max) == (ref.layer_min, ref.layer_max)
                for key in ("inner_min", "inner_max"):
                    assert sol.meta[key] == ref.meta[key]
