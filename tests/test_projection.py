import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sp_stats

import mimicsde as m
from mimicsde.projection import _ks_statistic, _w1

from conftest import affine_cell_error_ratio, same_law_ks_quantile


def heston_driver_ensemble(heston, n=8000, h=2.0**-6, stride=4, seed=21, spec=None):
    grid = m.TimeGrid(0.0, 1.0, h)
    return m.simulate_ito_process(m.model_driver(heston), np.array([0.0, 0.09]),
                                  grid, n, seed, spec or default_spec(), store_stride=stride)


def default_spec(min_count=10):
    e1 = np.linspace(-1.5, 1.5, 19)
    e2 = np.concatenate([[0.0], 0.5 * np.linspace(0.05, 1.0, 12) ** 1.3])
    times = tuple(np.arange(1, 9) / 8.0)
    return m.BinningSpec(times=times, edges=(e1, e2), min_count=min_count)


class TestBinningSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            m.BinningSpec(times=(0.5,), edges=(np.array([0.0, 1.0, 0.5]),))
        with pytest.raises(ValueError):
            m.BinningSpec(times=(0.5,), edges=(np.array([0.1, 1.0]),))  # x_d not from 0
        with pytest.raises(ValueError, match="at least one edge array"):
            m.BinningSpec(times=(0.5,), edges=())
        # min_count <= 0 would leave empty cells unmasked, as NaN in the built model
        for min_count in (0, -1.0):
            with pytest.raises(ValueError, match="min_count"):
                m.BinningSpec(times=(0.5,), edges=(np.array([0.0, 1.0]),), min_count=min_count)
        spec = m.BinningSpec(times=(0.5,), edges=(np.array([0.0, 0.5, 1.0]),))
        assert spec.cell_shape == (2,)
        assert np.allclose(spec.centers[0], [0.25, 0.75])


class TestEstimate:
    def test_requires_driver_records(self, heston, start):
        grid = m.TimeGrid(0.0, 1.0, 0.125)
        ens = m.simulate_sde(heston, start, grid, 50, 1)
        with pytest.raises(ValueError, match="driver sums"):
            m.estimate_mimicking_coefficients(ens)

    def test_markov_replay_recovers_coefficients(self, heston):
        # conditioning a deterministic function of the state recovers that
        # function up to binning bias
        ens = heston_driver_ensemble(heston, n=20_000)
        mc = m.estimate_mimicking_coefficients(ens)
        kt = 3  # t = 0.5
        occ = ~mc.mask[kt]
        centers = np.stack(np.meshgrid(*mc.spec.centers, indexing="ij"), axis=-1)
        pts = centers[occ]
        b_true = heston.b(0.5, pts)
        err_b = np.abs(mc.b_hat[kt][occ] - b_true).max()
        assert err_b < 0.05
        a_true = heston.a(0.5, pts)
        d_true = pts[:, -1][:, None, None] * a_true
        err_d = np.abs(mc.d_hat[kt][occ] - d_true).max()
        assert err_d < 0.02
        # b and D = x_d a are affine in x and beta = b(X), xi xi* = D(X), so
        # every cell's estimate is within the affine oracle's bound
        assert affine_cell_error_ratio(mc, heston.b, mc.b_hat) <= 1.0
        assert affine_cell_error_ratio(mc, lambda t, x: x[:, -1, None, None] * heston.a(t, x),
                                       mc.d_hat) <= 1.0

    def test_tower_property_box_kernel(self, heston):
        # with box-cell means and a lattice covering every sample, the
        # occupancy-weighted average of b-hat is exactly the plain mean of beta
        e1 = np.linspace(-6.0, 6.0, 13)
        e2 = np.concatenate([[0.0], np.linspace(0.05, 3.0, 9)])
        spec = m.BinningSpec(times=(0.5,), edges=(e1, e2), min_count=1)
        ens = heston_driver_ensemble(heston, n=5000, spec=spec)
        mc = m.estimate_mimicking_coefficients(ens)
        # the replayed drift is beta = b(t, X) at the stored states
        plain = heston.b(0.5, ens.states_at(0.5)).mean(axis=0)
        occ = mc.occupancy[0]
        good = ~mc.mask[0]
        weighted = (occ[good, None] * mc.b_hat[0][good]).sum(axis=0) / occ[good].sum()
        assert occ.sum() == ens.n_paths  # full coverage
        assert np.allclose(weighted, plain, rtol=1e-10, atol=1e-12)

    def test_outside_fraction_counts_paths_off_the_lattice(self, heston):
        # a narrow lattice, so a share of the paths falls outside it at each time
        spec = default_spec()
        spec = m.BinningSpec(times=spec.times, edges=(np.linspace(-0.3, 0.3, 7),
                                                      [0.0, 0.04, 0.08, 0.12]))
        ens = heston_driver_ensemble(heston, n=2000, spec=spec)
        mc = m.estimate_mimicking_coefficients(ens)
        direct = []
        for t in spec.times:
            x = ens.states_at(t)
            inside = np.ones(ens.n_paths, dtype=bool)
            for j, e in enumerate(spec.edges):
                inside &= (x[:, j] >= e[0]) & (x[:, j] < e[-1])
            direct.append(np.count_nonzero(~inside) / ens.n_paths)
        assert 0 < min(direct) and max(direct) < 1
        assert np.allclose(mc.outside_fraction, direct, rtol=0, atol=1e-15)

    def test_empty_cells_masked_not_zero(self, heston):
        ens = heston_driver_ensemble(heston, n=2000)
        mc = m.estimate_mimicking_coefficients(ens)
        assert mc.mask.any()
        assert np.isnan(mc.b_hat[mc.mask]).all()
        assert not np.isnan(mc.b_hat[~mc.mask]).any()

    def test_d_hat_symmetric(self, heston):
        ens = heston_driver_ensemble(heston, n=3000)
        mc = m.estimate_mimicking_coefficients(ens)
        good = ~mc.mask
        assert np.allclose(mc.d_hat[good], np.swapaxes(mc.d_hat[good], -1, -2))


class TestBuild:
    def test_identity_diffusion_round_trip(self):
        # D = x_d * I on the lattice gives a = I and sigma = sqrt(x_d) I
        e1 = np.linspace(-1.0, 1.0, 5)
        e2 = np.concatenate([[0.0], np.linspace(0.25, 2.0, 5)])
        spec = m.BinningSpec(times=(0.0, 1.0), edges=(e1, e2), min_count=1)
        cells = spec.cell_shape
        centers = np.stack(np.meshgrid(*spec.centers, indexing="ij"), axis=-1)
        k = len(spec.times)
        d_hat = np.zeros((k, *cells, 2, 2))
        d_hat[..., 0, 0] = centers[None, ..., -1]
        d_hat[..., 1, 1] = centers[None, ..., -1]
        b_hat = np.zeros((k, *cells, 2))
        b_hat[..., 1] = 0.3
        mc = m.MimickedCoefficients(
            spec=spec, b_hat=b_hat, d_hat=d_hat,
            occupancy=np.full((k, *cells), 100.0),
            mask=np.zeros((k, *cells), dtype=bool),
            n_paths=100)
        model = m.build_mimicking_model(mc)
        x = np.array([[0.3, 0.7], [0.0, 1.44], [-0.5, 0.0]])
        assert np.allclose(model.a(0.5, x), np.eye(2), atol=1e-9)
        sig = model.sigma(0.5, x)
        assert np.allclose(sig, np.sqrt(x[:, -1])[:, None, None] * np.eye(2), atol=1e-9)
        assert np.allclose(model.b(0.5, x)[:, 1], 0.3)

    def test_psd_clip_records_magnitude(self):
        e1 = np.array([0.0, 1.0, 2.0])
        spec = m.BinningSpec(times=(0.0,), edges=(e1,), min_count=1)
        d_hat = np.array([[[[0.5]], [[-0.001 * 1.5]]]])  # second cell: negative a
        b_hat = np.full((1, 2, 1), 0.1)
        mc = m.MimickedCoefficients(
            spec=spec, b_hat=b_hat, d_hat=d_hat,
            occupancy=np.full((1, 2), 10.0), mask=np.zeros((1, 2), dtype=bool),
            n_paths=10)
        model = m.build_mimicking_model(mc)
        assert mc.clip.max() > 0.0
        assert np.linalg.eigvalsh(model.a(0.0, np.array([[1.5]]))).min() >= 0.0

    def test_excessive_masking_rejected(self, heston):
        ens = heston_driver_ensemble(heston, n=500, spec=default_spec(min_count=50))
        mc = m.estimate_mimicking_coefficients(ens)
        with pytest.raises(ValueError, match="masked"):
            m.build_mimicking_model(mc, max_masked_fraction=0.05)

    def test_fill_distance_recorded(self, heston):
        ens = heston_driver_ensemble(heston, n=4000)
        mc = m.estimate_mimicking_coefficients(ens)
        m.build_mimicking_model(mc, max_masked_fraction=0.99)
        assert mc.fill_distance[mc.mask].min() > 0.0
        assert np.all(mc.fill_distance[~mc.mask] == 0.0)

    def test_round_trip_marginals(self, heston):
        ens = heston_driver_ensemble(heston, n=20_000, seed=77)
        mc = m.estimate_mimicking_coefficients(ens)
        built = m.build_mimicking_model(mc, max_masked_fraction=0.95)
        mimic = m.simulate_sde(built, m.SpaceTimePoint(0.0, (0.0, 0.09)),
                               m.TimeGrid(0.0, 1.0, 2.0**-6), 20_000, 78, store_stride=4)
        comp = m.compare_marginals(ens, mimic, [0.5, 1.0], thresholds={"ks": 0.025})
        assert comp.passed, comp.to_json()


    @pytest.mark.parametrize("replaced", [None, "a", "b"])
    def test_step_interpolates_a_and_b_in_one_pass(self, gridded_model, monkeypatch, replaced):
        # a and b are views of one table, so a step brackets (t, x) once;
        # an evaluator replaced by dataclasses.replace is evaluated as it is,
        # alone, with the same bits
        model = gridded_model
        if replaced is not None:
            field = getattr(model, replaced)
            model = dataclasses.replace(model, **{replaced: lambda t, x: field(t, x)})
        passes = []
        combine = m.LatticeInterpolator._combine
        monkeypatch.setattr(m.LatticeInterpolator, "_combine",
                            lambda *args: passes.append(1) or combine(*args))
        x = np.random.default_rng(3).uniform([-2.0, -0.1], [2.0, 0.6], (500, 2))
        beta, xi = model.drift_and_sigma(0.4, x)
        assert len(passes) == (1 if replaced is None else 2)
        assert np.array_equal(beta.view(np.uint64), gridded_model.b(0.4, x).view(np.uint64))
        assert np.array_equal(xi.view(np.uint64), gridded_model.sigma(0.4, x).view(np.uint64))


class TestCompareMarginals:
    def test_identical_ensembles_zero(self, heston, start):
        grid = m.TimeGrid(0.0, 1.0, 0.125)
        a = m.simulate_sde(heston, start, grid, 500, 5)
        b = m.simulate_sde(heston, start, grid, 500, 5)
        comp = m.compare_marginals(a, b, [0.5, 1.0],
                                   g_list=[("x1", lambda x: x[:, 0])])
        assert comp.max_ks == 0.0
        for e in comp.entries:
            assert e["sliced_w1"] == 0.0
            assert e["gaps"][0]["gap"] == 0.0

    def test_w1_threshold_gates(self, heston, start):
        # two seeds of one law under a KS bound of 1, which every KS meets, so
        # only the sliced-W1 bound decides (the loose bound shows the gaps pass)
        grid = m.TimeGrid(0.0, 1.0, 0.125)
        a = m.simulate_sde(heston, start, grid, 500, 5)
        b = m.simulate_sde(heston, start, grid, 500, 6)
        w1 = [e["sliced_w1"] for e in m.compare_marginals(a, b, [0.5, 1.0]).entries]
        assert min(w1) > 0.0
        for bound, passed in ((0.5 * min(w1), False), (2.0 * max(w1), True)):
            comp = m.compare_marginals(a, b, [0.5, 1.0], thresholds={"ks": 1.0, "w1": bound})
            assert comp.passed is passed

    def test_time_must_be_shared(self, heston, start):
        a = m.simulate_sde(heston, start, m.TimeGrid(0.0, 1.0, 0.125), 50, 5)
        b = m.simulate_sde(heston, start, m.TimeGrid(0.0, 1.0, 0.25), 50, 5)
        with pytest.raises(ValueError):
            m.compare_marginals(a, b, [0.375])

    def test_same_law_quantile_sane(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal(2000)
        y = gen.standard_normal(2000)
        q = same_law_ks_quantile(x, y, n_boot=100, q=0.99, seed=1)
        # asymptotic 99% two-sample quantile at n=m=2000: 1.628*sqrt(2/2000)
        assert 0.03 < q < 0.08
        assert float(np.abs(q - 1.628 * np.sqrt(2 / 2000))) < 0.02


@st.composite
def sample_pairs(draw):
    # unequal sizes; a share of each sample comes from a small palette shared
    # by both (ties within and across the samples) holding signed zeros,
    # subnormals and +-1e300, on top of a continuous part at a drawn scale
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-310, 1.0, 1e300]))
    palette = np.concatenate([[0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300],
                              scale * gen.standard_normal(3)])
    tie_share = draw(st.sampled_from([0.0, 0.5, 1.0]))

    def sample(n):
        x = scale * gen.standard_normal(n)
        tied = gen.random(n) < tie_share
        x[tied] = gen.choice(palette, tied.sum())
        return x

    return sample(draw(st.integers(1, 500))), sample(draw(st.integers(1, 500)))


def _bits(v) -> np.uint64:
    return np.float64(v).view(np.uint64)


class TestMergedCdfs:
    @settings(max_examples=200, deadline=None)
    @given(sample_pairs())
    def test_match_scipy_bitwise(self, pair):
        a, b = pair
        sa, sb = np.sort(a), np.sort(b)
        with np.errstate(divide="ignore"):  # the reference's p-value at size 1
            ks = sp_stats.ks_2samp(a, b, method="asymp").statistic
        assert _bits(_w1(sa, sb)) == _bits(sp_stats.wasserstein_distance(a, b))
        assert _bits(_ks_statistic(sa, sb)) == _bits(ks)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_raises(self, heston, start, bad):
        # merged counts would return a finite, wrong number for these
        grid = m.TimeGrid(0.0, 1.0, 0.125)
        a = m.simulate_sde(heston, start, grid, 50, 5)
        b = m.simulate_sde(heston, start, grid, 60, 6)
        a.states[7, grid.node_index(0.5), 0] = bad
        with pytest.raises(ValueError, match="finite"):
            m.compare_marginals(a, b, [0.5])
        with pytest.raises(ValueError, match="finite"):
            same_law_ks_quantile(a.states_at(0.5)[:, 0], b.states_at(0.5)[:, 0], n_boot=5)

    def test_no_comparison_time_raises(self, heston, start):
        # an empty list has no entry to fail, so the comparison would pass vacuously
        a = m.simulate_sde(heston, start, m.TimeGrid(0.0, 1.0, 0.125), 50, 5)
        with pytest.raises(ValueError, match="at least one comparison time"):
            m.compare_marginals(a, a, [])

    def test_empty_sample_raises(self, heston, start):
        a = m.simulate_sde(heston, start, m.TimeGrid(0.0, 1.0, 0.125), 50, 5)
        with pytest.raises(ValueError, match="non-empty"):
            m.compare_marginals(a, dataclasses.replace(a, states=a.states[:0]), [0.5])
        with pytest.raises(ValueError, match="non-empty"):
            same_law_ks_quantile(np.array([]), np.array([1.0, 2.0]), n_boot=5)


def _swap_columns(header: str, a: str, b: str) -> str:
    names = header.rstrip("\n").split(",")
    i, j = names.index(a), names.index(b)
    names[i], names[j] = names[j], names[i]
    return ",".join(names) + "\n"


def _with_field(row: str, col: int, value: str) -> str:
    fields = row.rstrip("\n").split(",")
    fields[col] = value
    return ",".join(fields) + "\n"


# each edit of (header, rows) leaves a file load_mimicked must reject; the
# parent loader filled cut rows from their neighbours, let a later duplicate
# win, wrapped index -1 into the last cell and ignored the header
CORRUPTIONS = {
    "last-100-rows-cut": lambda h, rows: (h, rows[:-100]),
    "duplicate-row-other-values": lambda h, rows: (h, rows + [_with_field(rows[7], 5, "99.0")]),
    "negative-cell-index": lambda h, rows: (h, rows[:-1] + [_with_field(rows[-1], 1, "-1")]),
    "header-columns-swapped": lambda h, rows: (_swap_columns(h, "b_1", "b_2"), rows),
}


class TestSerialization:
    @pytest.fixture(scope="class")
    def saved(self, heston, tmp_path_factory):
        """An unfilled estimate with masked rows, saved; 1728 rows."""
        mc = m.estimate_mimicking_coefficients(heston_driver_ensemble(heston, n=2000))
        assert 0 < mc.mask.sum() < mc.mask.size
        out = tmp_path_factory.mktemp("saved")
        m.save_mimicked(mc, out / "mc.csv")
        return out / "mc.csv"

    @staticmethod
    def _edited(saved, tmp_path, edit):
        header, *rows = saved.read_text().splitlines(keepends=True)
        header, rows = edit(header, rows)
        (tmp_path / "mc.csv").write_text(header + "".join(rows))
        (tmp_path / "mc.csv.meta.json").write_bytes(saved.with_name("mc.csv.meta.json").read_bytes())
        return tmp_path / "mc.csv"

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_load_rejects_incomplete_or_inconsistent_file(self, saved, tmp_path, case):
        path = self._edited(saved, tmp_path, CORRUPTIONS[case])
        with pytest.raises(ValueError):
            m.load_mimicked(path)

    def test_load_rejects_sidecar_of_other_geometry(self, saved, tmp_path):
        # same cell shape, other edges: the CSV's x_* columns give it away
        sidecar = saved.with_name("mc.csv.meta.json")
        meta = json.loads(sidecar.read_text())
        meta["edges"][0] = [2.0 * e for e in meta["edges"][0]]
        (tmp_path / "mc.csv").write_bytes(saved.read_bytes())
        (tmp_path / "mc.csv.meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="cell centres"):
            m.load_mimicked(tmp_path / "mc.csv")

    def test_load_rejects_kernel_weighted_sidecar(self, saved, tmp_path):
        # a Gaussian estimate's occupancy is a sum of kernel weights, so the
        # count rule that rebuilds the mask would not hold for it
        sidecar = saved.with_name("mc.csv.meta.json")
        meta = json.loads(sidecar.read_text())
        assert meta["kernel"] == "box"
        (tmp_path / "mc.csv").write_bytes(saved.read_bytes())
        (tmp_path / "mc.csv.meta.json").write_text(json.dumps({**meta, "kernel": "gaussian"}))
        with pytest.raises(ValueError, match="kernel"):
            m.load_mimicked(tmp_path / "mc.csv")

    def test_load_accepts_rows_in_any_order(self, saved, tmp_path):
        order = np.random.default_rng(0).permutation
        path = self._edited(saved, tmp_path, lambda h, rows: (h, list(order(rows))))
        a, b = m.load_mimicked(saved), m.load_mimicked(path)
        for name in ("b_hat", "d_hat", "occupancy", "mask", "clip"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        # the fill policy writes through reshape views of the loaded arrays
        m.build_mimicking_model(b, max_masked_fraction=1.0)
        assert not np.isnan(b.b_hat).any() and not np.isnan(b.d_hat).any()

    def test_save_load_round_trip(self, heston, tmp_path):
        ens = heston_driver_ensemble(heston, n=3000)
        mc = m.estimate_mimicking_coefficients(ens)
        csv_path = tmp_path / "mc.csv"
        m.save_mimicked(mc, csv_path)
        back = m.load_mimicked(csv_path)
        assert back.spec.times == mc.spec.times
        assert np.array_equal(back.occupancy, mc.occupancy)
        assert np.array_equal(back.mask, mc.mask)
        good = ~mc.mask
        assert np.allclose(back.b_hat[good], mc.b_hat[good], rtol=0, atol=0)
        assert np.allclose(back.d_hat[good], mc.d_hat[good], rtol=0, atol=0)

    def test_load_rejects_nonpositive_min_count(self, heston, tmp_path):
        ens = heston_driver_ensemble(heston, n=200)
        m.save_mimicked(m.estimate_mimicking_coefficients(ens), tmp_path / "mc.csv")
        sidecar = tmp_path / "mc.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps(dict(meta, min_count=0)))
        with pytest.raises(ValueError, match="min_count"):
            m.load_mimicked(tmp_path / "mc.csv")

    def test_loaded_model_usable(self, heston, tmp_path):
        ens = heston_driver_ensemble(heston, n=8000)
        mc = m.estimate_mimicking_coefficients(ens)
        m.save_mimicked(mc, tmp_path / "mc.csv")
        model = m.build_mimicking_model(m.load_mimicked(tmp_path / "mc.csv"),
                                        max_masked_fraction=0.95)
        x = np.array([[0.0, 0.09]])
        assert np.isfinite(model.b(0.5, x)).all()
        assert np.isfinite(model.sigma(0.5, x)).all()

    def test_saved_filled_lattice_rebuilds_bit_equal(self, heston, tmp_path):
        # the CLI saves after building, so the file holds the filled lattice:
        # masked rows carry their nearest unmasked cell's values, not nan, and
        # loading and building again gives the model that was built
        mc = m.estimate_mimicking_coefficients(heston_driver_ensemble(heston, n=3000))
        built = m.build_mimicking_model(mc, max_masked_fraction=0.95)
        m.save_mimicked(mc, tmp_path / "mc.csv")
        saved = m.load_mimicked(tmp_path / "mc.csv")
        assert saved.mask.any() and not np.isnan(saved.b_hat).any()
        loaded = m.build_mimicking_model(m.load_mimicked(tmp_path / "mc.csv"),
                                         max_masked_fraction=0.95)
        assert loaded.knots.tobytes() == built.knots.tobytes()
        assert loaded.budget == built.budget
        u = np.random.default_rng(5).uniform(size=(2000, 2))
        x = np.column_stack([3.6 * u[:, 0] - 1.8, 0.6 * u[:, 1]])
        for t in (0.0, 0.125, 0.3, 1.0, 1.5):
            for f in "ab":
                assert getattr(loaded, f)(t, x).tobytes() == getattr(built, f)(t, x).tobytes()
