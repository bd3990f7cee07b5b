import ast
import csv
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimicsde as m
from mimicsde import sdesim

from conftest import kinked_model, zero_model


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            m.TimeGrid(0.0, 1.0, 0.3)  # not integral
        with pytest.raises(ValueError):
            m.TimeGrid(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            m.TimeGrid(0.0, 1.0, -0.1)

    def test_nodes_and_index(self):
        g = m.TimeGrid(0.0, 1.0, 0.125)
        assert g.n_steps == 8
        assert g.node_index(0.5) == 4
        with pytest.raises(ValueError):
            g.node_index(0.3)


class TestSimulateSde:
    def test_zero_coefficients_constant_paths(self, start):
        grid = m.TimeGrid(0.0, 0.5, 0.0625)
        ens = m.simulate_sde(zero_model(), start, grid, 50, 1)
        assert np.all(ens.states == np.array([0.0, 0.09]))

    def test_determinism_bit_identical(self, heston, start):
        grid = m.TimeGrid(0.0, 0.25, 2.0**-6)
        a = m.simulate_sde(heston, start, grid, 300, 42)
        b = m.simulate_sde(heston, start, grid, 300, 42)
        assert np.array_equal(a.states, b.states)
        c = m.simulate_sde(heston, start, grid, 300, 43)
        assert not np.array_equal(a.states, c.states)

    def test_store_stride(self, heston, start):
        grid = m.TimeGrid(0.0, 1.0, 2.0**-6)
        full = m.simulate_sde(heston, start, grid, 100, 7)
        thin = m.simulate_sde(heston, start, grid, 100, 7, store_stride=8)
        assert thin.states.shape[1] == 9
        assert np.array_equal(thin.states, full.states[:, ::8, :])
        assert thin.grid.step == pytest.approx(8 * 2.0**-6)

    def test_start_must_match_grid(self, heston):
        grid = m.TimeGrid(0.0, 1.0, 0.125)
        with pytest.raises(ValueError):
            m.simulate_sde(heston, m.SpaceTimePoint(0.5, (0.0, 0.09)), grid, 10, 1)

    def test_unknown_scheme(self, heston, start):
        grid = m.TimeGrid(0.0, 1.0, 0.125)
        with pytest.raises(ValueError):
            m.simulate_sde(heston, start, grid, 10, 1, scheme="milstein")

    def test_extension_independence(self, heston, start):
        # poisoning the model below x_d = 0 never changes the ensemble:
        # the schemes only evaluate coefficients at clipped states
        poisoned = m.CoefficientModel(
            d=2,
            a=lambda t, x: np.where((x[:, -1] < 0)[:, None, None], np.nan, heston.a(t, x)),
            b=lambda t, x: np.where((x[:, -1] < 0)[:, None], np.nan, heston.b(t, x)),
            c=heston.c, budget=heston.budget, knots=[0.0])
        grid = m.TimeGrid(0.0, 1.0, 2.0**-6)
        for scheme in ("full_truncation", "absorbed_euler"):
            a = m.simulate_sde(heston, start, grid, 400, 11, scheme=scheme)
            b = m.simulate_sde(poisoned, start, grid, 400, 11, scheme=scheme)
            assert np.array_equal(a.states, b.states)

    @given(st.integers(1, 30), st.integers(1, 40), st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_paths_independent_of_batch_size(self, n1, extra, seed):
        # a is singular where |x_1| >= 1, so some paths need the fallback
        # root; a path's trajectory must not depend on its batch mates
        model = kinked_model()
        grid = m.TimeGrid(0.0, 1.0, 2.0**-4)
        start = m.SpaceTimePoint(0.0, (0.9, 0.5))
        small = m.simulate_sde(model, start, grid, n1, seed)
        large = m.simulate_sde(model, start, grid, n1 + extra, seed)
        assert np.array_equal(small.states.view(np.uint64), large.states[:n1].view(np.uint64))

    def test_cir_first_moment_oracle(self, heston, start):
        # closed-form first moment of the variance coordinate: the moment
        # equation dE/dt = kappa (theta - E) integrates to
        # E(t) = theta + (x2(0) - theta) exp(-kappa t)
        grid = m.TimeGrid(0.0, 1.0, 2.0**-9)
        ens = m.simulate_sde(heston, start, grid, 20_000, 99, store_stride=512)
        x2 = ens.states[:, -1, 1]
        expected = 0.04 + (0.09 - 0.04) * np.exp(-1.5)
        se = x2.std(ddof=1) / np.sqrt(x2.size)
        assert abs(x2.mean() - expected) <= 3.0 * se

    def test_schemes_differ_when_feller_violated(self, start):
        rough = m.heston_model(1.5, 0.04, 0.6, -0.5)  # 2*kappa*theta < zeta^2
        grid = m.TimeGrid(0.0, 1.0, 2.0**-6)
        ft = m.simulate_sde(rough, start, grid, 2000, 3, scheme="full_truncation")
        ab = m.simulate_sde(rough, start, grid, 2000, 3, scheme="absorbed_euler")
        assert m.support_check(ft).violations == 0
        assert m.support_check(ab).violations == 0
        assert ft.n_clipped_steps > 0
        assert not np.array_equal(ft.states, ab.states)
        # full truncation keeps stepping the negative internal state, which
        # absorption resets to 0 each step, so it clips more path-steps (the
        # two schemes' deepest excursions are sample maxima in no fixed order)
        assert ft.n_clipped_steps > ab.n_clipped_steps


def _named_in(name: str) -> list[str]:
    """The functions and classes of the package whose code names ``name``, in file order."""
    found = []
    for path in sorted(Path(m.__file__).parent.glob("*.py")):

        def scan(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{where}.{node.name}"
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "attr", getattr(node, "id", None))])
            if name in names:
                found.append(where)
            for child in ast.iter_child_nodes(node):
                scan(child, where)

        scan(ast.parse(path.read_text()), path.stem)
    return found


def test_only_the_euler_kernel_draws_brownian_normals():
    # one consumer of the Brownian stream: rng.DOMAIN_BROWNIAN is named only
    # in rng.py and inside sdesim._euler_paths
    found = [where for where in _named_in("DOMAIN_BROWNIAN") if not where.startswith("rng")]
    assert found == ["sdesim._euler_paths"]


def test_models_are_replayed_only_through_simulate_sde():
    # sdesim._simulate is reached only through simulate_sde, which replays a
    # coefficient model, and simulate_ito_process, which runs a general
    # driver; every check that replays a model enters through simulate_sde
    assert _named_in("_simulate") == ["sdesim.simulate_sde", "sdesim.simulate_ito_process"]


def _spec(*times) -> m.BinningSpec:
    """A small binning lattice at ``times``, for an Itô ensemble's driver sums."""
    return m.BinningSpec(times=times, edges=(np.linspace(-1.5, 1.5, 7),
                                             [0.0, 0.05, 0.1, 0.2, 0.4, 1.0]))


def _cell_members(spec: m.BinningSpec, x: np.ndarray):
    """(flat cell, the paths in it) for each cell of ``spec``, in C order."""
    c = [np.digitize(x[:, j], e) - 1 for j, e in enumerate(spec.edges)]
    for cell, ij in enumerate(np.ndindex(spec.cell_shape)):
        yield cell, np.logical_and.reduce([cj == i for cj, i in zip(c, ij)])


class TestItoProcess:
    def test_replay_collapses_to_absorbed_euler(self, heston, start):
        grid = m.TimeGrid(0.0, 1.0, 2.0**-6)
        k = 17
        t_k = grid.nodes[k]
        spec = _spec(t_k)
        sde = m.simulate_sde(heston, start, grid, 400, 3, scheme="absorbed_euler")
        ito = m.simulate_ito_process(m.model_driver(heston), np.array(start.x), grid, 400, 3,
                                     spec)
        assert np.array_equal(sde.states, ito.states)
        # the hook sums the exact model coefficients along the path, cell by cell
        x = ito.states[:, k, :]
        beta, xi2 = heston.b(t_k, x), x[:, -1, None, None] * heston.a(t_k, x)
        sums = ito.drivers
        for cell, mine in _cell_members(spec, x):
            assert sums.occupancy[0, cell] == np.count_nonzero(mine)
            assert np.allclose(sums.beta[0, cell], beta[mine].sum(axis=0))
            assert np.allclose(sums.xi2[0, cell], xi2[mine].sum(axis=0))
        assert sums.occupancy.sum() > 0.9 * ito.n_paths

    def test_binning_times_need_only_be_grid_nodes(self, heston, start):
        # 1/32 is a node of the step-1/64 grid but not of its every-4th-node
        # stored grid: the estimate there does not depend on the stride
        grid = m.TimeGrid(0.0, 1.0, 2.0**-6)
        spec = _spec(1.0 / 32, 1.0)
        driver = m.regime_switching_driver(heston)
        est = [m.estimate_mimicking_coefficients(m.simulate_ito_process(
            driver, np.array(start.x), grid, 500, 9, spec, store_stride=stride))
            for stride in (4, 1)]
        for name in ("occupancy", "b_hat", "d_hat", "mask"):
            assert getattr(est[0], name).tobytes() == getattr(est[1], name).tobytes(), name

    def test_binning_spec_must_fit_grid_and_driver(self, heston, start):
        grid = m.TimeGrid(0.0, 1.0, 2.0**-6)
        with pytest.raises(ValueError, match=r"binning time 0\.01 .*step 0\.015625"):
            m.simulate_ito_process(m.model_driver(heston), np.array(start.x), grid, 10, 1,
                                   _spec(0.5, 0.01))
        one_d = m.BinningSpec(times=(0.5,), edges=([0.0, 1.0],))
        with pytest.raises(ValueError, match="dimension"):
            m.simulate_ito_process(m.model_driver(heston), np.array(start.x), grid, 10, 1, one_d)

    def test_start_must_match_grid(self, heston):
        grid = m.TimeGrid(0.0, 1.0, 0.125)
        with pytest.raises(ValueError, match="grid.start"):
            m.simulate_ito_process(m.model_driver(heston), m.SpaceTimePoint(0.3, (0.0, 0.09)),
                                   grid, 10, 1, _spec(0.5))

    def test_driver_dimension_mismatch(self, start):
        bad = m.ItoDriver(d=2, coeffs=lambda t, x, aux: (np.zeros((x.shape[0], 3)),
                                                              np.zeros((x.shape[0], 2, 2))))
        grid = m.TimeGrid(0.0, 0.5, 0.25)
        with pytest.raises(ValueError, match="dimension mismatch"):
            m.simulate_ito_process(bad, np.array([0.0, 0.09]), grid, 10, 1, _spec(0.5))

    def test_integrability_reported(self, heston, start):
        grid = m.TimeGrid(0.0, 1.0, 2.0**-6)
        ito = m.simulate_ito_process(m.model_driver(heston), np.array(start.x), grid, 500, 3,
                                     _spec(0.5))
        assert ito.integrability_mean is not None
        assert 0.0 < ito.integrability_mean < 10.0

    def test_regime_switching_is_supported_and_non_degenerate(self, heston, start):
        driver = m.regime_switching_driver(heston, hi_factor=1.5, switch_rate=2.0)
        grid = m.TimeGrid(0.0, 1.0, 2.0**-6)
        spec = _spec(0.5)
        ens = m.simulate_ito_process(driver, np.array(start.x), grid, 2000, 5, spec)
        assert m.support_check(ens).violations == 0
        assert ens.boundary_row_violations == 0
        # both regimes occur: on a populated cell, D-hat over the cell's mean
        # of x_d a lies strictly between the regimes' factors 1 and 1.5^2
        mc = m.estimate_mimicking_coefficients(ens)
        x = ens.states_at(0.5)
        base = x[:, -1] * heston.a(0.5, x)[:, 1, 1]
        d_hat = mc.d_hat[0].reshape(-1, 2, 2)
        ratios = np.array([d_hat[cell, 1, 1] / base[mine].mean()
                           for cell, mine in _cell_members(spec, x)
                           if np.count_nonzero(mine) >= 50])
        assert ratios.size > 0
        assert ((ratios > 1.0 - 1e-9) & (ratios < 2.25 + 1e-9)).all()
        assert ((ratios > 1.0 + 1e-6) & (ratios < 2.25 - 1e-6)).any()


class TestDiagnostics:
    def test_support_check_counts_hand_built_violation(self, heston, start):
        grid = m.TimeGrid(0.0, 0.5, 0.25)
        ens = m.simulate_sde(heston, start, grid, 10, 1)
        ens.states[3, 1, 1] = -0.5
        rep = m.support_check(ens)
        assert rep.violations >= 1


class TestCsvExport:
    def test_header_and_rows(self, heston, start):
        grid = m.TimeGrid(0.0, 0.5, 0.25)
        ens = m.simulate_ito_process(m.model_driver(heston), np.array(start.x), grid, 3, 1,
                                     _spec(0.5))
        buf = io.StringIO()
        m.ensemble_to_csv(ens, buf)
        lines = buf.getvalue().strip().split("\n")
        # states only, though an Itô ensemble carries driver sums
        assert lines[0] == "path_id,t,x_1,x_2"
        assert len(lines) == 1 + 3 * 3  # header + paths * nodes

    def test_deterministic_bytes(self, heston, start):
        grid = m.TimeGrid(0.0, 0.5, 0.25)
        out = []
        for _ in range(2):
            ens = m.simulate_sde(heston, start, grid, 5, 9)
            buf = io.StringIO()
            m.ensemble_to_csv(ens, buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]

    def test_blocks_match_row_writer(self, heston, start, monkeypatch):
        # reference: one csv.writer row per (path, node), every float as repr
        grid = m.TimeGrid(0.0, 0.5, 0.125)
        ens = m.simulate_ito_process(m.regime_switching_driver(heston), np.array(start.x),
                                     grid, 11, 4, _spec(0.5))
        ref = io.StringIO()
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(["path_id", "t", "x_1", "x_2"])
        for p in range(ens.n_paths):
            for k, t in enumerate(ens.grid.nodes):
                writer.writerow([str(p), repr(float(t))]
                                + [repr(float(v)) for v in ens.states[p, k]])
        for block_rows in (1, 7, 10, 1 << 14):
            monkeypatch.setattr(sdesim, "_CSV_BLOCK_ROWS", block_rows)
            buf = io.StringIO()
            m.ensemble_to_csv(ens, buf)
            assert buf.getvalue() == ref.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_write_csv_round_trips_bits(self, values):
        # the codec's one claim: %r of a float parses back to the same bits,
        # subnormals, signed zeros, infinities and nan included
        x = np.array(values + [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072e-308])
        buf = io.StringIO()
        sdesim.write_csv(buf, ["i", "v"], [[np.arange(x.size), x]])
        buf.seek(0)
        assert buf.readline() == "i,v\n"
        back = np.loadtxt(buf, delimiter=",", ndmin=2)
        assert np.array_equal(back[:, 0], np.arange(x.size))
        assert back[:, 1].tobytes() == x.tobytes()
