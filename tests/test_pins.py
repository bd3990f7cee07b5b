"""Known-output pins: the random stream, the Euler ensembles, a PDE solution, the sampled norms,
the test functions and martingale increments, the CSV format and the artifacts of every CLI kind.

Every other test checks self-consistency; these check that the bits themselves
have not moved.  A change that alters any digest below changes the stream, the
stepping arithmetic or the artifact format, and must say so and re-run every
acceptance criterion at its unchanged seed instead of re-pinning quietly.
"""

import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import mimicsde as m
from mimicsde import cli, martingale, pde, rng
from mimicsde.martingale import constant_probe, left_coordinate_probe


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _csv_digest(ens) -> str:
    buf = io.StringIO()
    m.ensemble_to_csv(ens, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


_P32 = 2**32
_P63 = 2**63

# (seed, domain, path indices, step, n): odd n spans several Philox blocks;
# path indices next to 2^32 and 2^63 cross the 32-bit limbs of the multiply.
RNG_CASES = {
    "small": (0, rng.DOMAIN_BROWNIAN, list(range(7)), 0, 2),
    "odd-n": (123, rng.DOMAIN_DRIVER, list(range(5)), 17, 5),
    "limb32": (2**40 + 3, rng.DOMAIN_DRIVER_INIT, [_P32 - 2, _P32 - 1, _P32, _P32 + 1], 3, 3),
    "limb63": (987654321, rng.DOMAIN_BROWNIAN, [_P63 - 1, _P63, _P63 + 1, 2**64 - 1], 2**33 + 1, 1),
    "big-step": (2**64 - 1, rng.DOMAIN_DRIVER, [0, 1, 2**31, 2**48], 2**60, 4),
}

NORMALS_PINS = {
    "small":
        "05ac3bc52447ef52d5c3788eccc417f53fa8f084bb38298071db42b8c9561485",
    "odd-n":
        "52c2c9f2edf88223bbc528f5a85c06db1cfc336872d82eb34caa74dcc5b2498c",
    "limb32":
        "4063b5882dd372c6b47d83d7807b1652c831605877a7fb615597c30280564bc5",
    "limb63":
        "bb4a4fbb8b871a7a0d20ff85fc60159786c793f11dd4ec9076ad60e5f4239ff7",
    "big-step":
        "e4f812181773fc8ce1da28c20b7959aa147c384d38730296ee8cb236743a4b16",
}

UNIFORMS_PINS = {
    "small":
        "4d10bf643e3f3e29d8d7ed8cfe77b33b38e21b8d724dbd866735db4d29ca096e",
    "odd-n":
        "a567f23b91177f1bfeff7a8a6557609da5fc312d97b1e8bf79452302f1ddf230",
    "limb32":
        "ed631714fbe19ee0a16652e149fcce064cf81c1dcfde4aacb58d5e5ad241ad3f",
    "limb63":
        "dbc32d70ee836673f982979387bfe753b7f9dda42f15537ecae3f095b1b7c410",
    "big-step":
        "cc6350ad93d3153e6f62329e5a71ec57d44a93903d43d9018dd2acc121ae9f0f",
}

HESTON_PINS = {
    "full_truncation":
        "94c4e40ea15c314ffd8499e8806f44c92e3032926ade1a78b949f1159c41b9e7",
    "absorbed_euler":
        "3a9a30cf28e32f505bb4af65d7538407ab5bc9cc7e45acfb86de9fd26ae9a0ce",
}
HESTON_CSV_PIN = "9a61af0c56dd7a8efcad0792e2383c8818fefcaec03f392828972a4f38aab166"
GRIDDED_PIN = "677476567d53689a7bf84c065cfb814e21e3e9c1d25aeee85048b909106dfad6"
GRIDDED_PDE_PIN = "d17ead7f61a0fe7e9f028033f589e6ba01f216d757932a09b11a7b9a2f6f9696"
# states digest + the first 16 hex digits of the report's JSON digest
RESTART_PINS = {
    "full_truncation":
        "14865db80b6c0de821ff47786b432181b4c434c480c314bb75937fe2c1e4a4a1" "a3b4eb5de5829611",
    "absorbed_euler":
        "b2f56956fc74a5bd3baa680ff7dcb4ced58fbcb68af51b185b823c33da3e446a" "a3b4eb5de5829611",
    "full_truncation+perturb":
        "db5f5975c4d5990310e65a5e2aa4af202aa0b52f8b1f1c8daac7d449324428624" "be9057d6311a53b",
}
ITO_PINS = {
    "regime": "cc94280292c942fec677bd83520083b9e381b519969497d38a4d6dd34684550c",
    "leaky": "5359b01aaeb5c7ed1d3fbca7f45f0748f3d1c3a1ea35cda9f60b0b02d7a6e455",
}
VALIDATOR_PINS = {
    "heston": "6a2a8af2ee7936c24c1cbb367d735cea958be8602d207cfb1421179d12778daa",
    "gridded": "5fedd0929255a929d15e673a0c54efb5996fb7c69af1cf8ffdf70ad95e302b0b",
}
# the cycloidal and parabolic Hölder estimates of one field over one region
HOLDER_PIN = "a59582a5368f3483661487bf9d0c1eab957310d8a860c85105bd2c2f76cde3e8"
# acceptance 03's test functions at every node of the 256 Heston paths of
# _MARTINGALE_GRID at seed 707; "+drift" compensates with the drift-stripped
# generator
INCREMENTS_PINS = {
    "linear": "6f9c7b12547fc6c9785786fcac1797ca178aae35aaec606c5a498dc5f9a51445",
    "bump": "ab082d5e1a6238dfc6001c8d37cd1f017b81867735b4b475128ccc3cdb0b4d3e",
    "boundary_bump": "fa583e2e9ca661a5d08522d1da7a94352c798233decd4c964e77d38d1d8e1121",
    "linear+drift": "d51f338c6c721884df937d79618d62a2ee683b7ca62cec34594e9b1565557759",
}
# martingale_test's reports for the linear, bump and boundary-bump functions
# with the CLI's probes: on those Heston paths, on 256 paths of the gridded
# model at seed 708, and on the Heston paths compensated with the drift-stripped
# Heston
MARTINGALE_TEST_PINS = {
    "heston": "839d203af8c1a79b135708fbf2b58e1b3d2ab086f5e85bf2c4ab7b9969a62c7c",
    "gridded": "7d7a03976320f039189c50ed08dc85f8565dccbceb6c716f5eb4c21a9856491f",
    "drift-broken": "431be841c368829a482fc920468a30db990bbf8e44a5eba652903a9196abb63b",
}
ITO_RESIDUAL_PIN = "237bcf5cd888a141bc792e73dfe7399e3fb83d3fd202945dc011ae0e5a1354cc"
# value, gradient, Hessian, x_d * Hessian (and v_t where defined) at TF_POINTS, t = 0.3
TEST_FUNCTION_PINS = {
    "linear": "565cad8234f8f537b985799ea57810943c8c97890664049bfa327205d2e05603",
    "bump": "62baf497de8c50869bfba14932010f7f0cd9137a8f6b738b8957ee7ac06e3b9a",
    "boundary_bump": "013381f0469191a26a90b28a2d4533f0bc8560339ef406ed6a9e33b9301d9b05",
    "time_weighted": "db4e747dbbacbaa2396312381a637779cdd02674f346bfa5010d556672bd774c",
}
# interior points, points on x_d = 0, points outside both bumps' supports, and
# points 1 % of the radius and 1e-9 inside the support spheres of radius 1
# about (0, 0.05) and radius 0.6 about the origin
TF_POINTS = np.array([[0.1, 0.2], [-0.3, 0.05], [0.0, 0.0], [0.25, 0.0], [2.0, 0.5],
                      [0.0, 1.5], [0.99, 0.05], [1.0 - 1e-9, 0.05], [0.594, 0.0],
                      [0.6 - 1e-9, 0.0]])


def _paths(idx):
    return np.array(idx, dtype=np.uint64)


@pytest.mark.parametrize("case", sorted(RNG_CASES))
def test_normals_pinned(case):
    seed, domain, idx, step, n = RNG_CASES[case]
    z = rng.normals(seed, domain, _paths(idx), step, n)
    assert z.shape == (len(idx), n)
    assert _digest(z) == NORMALS_PINS[case]


@pytest.mark.parametrize("case", sorted(RNG_CASES))
def test_uniforms_pinned(case):
    seed, domain, idx, step, n = RNG_CASES[case]
    u = rng.uniforms(seed, domain, _paths(idx), step, n)
    assert u.shape == (len(idx), n)
    assert _digest(u) == UNIFORMS_PINS[case]


def _heston_ensemble(heston, start, scheme):
    grid = m.TimeGrid(0.0, 0.5, 2.0**-5)
    return m.simulate_sde(heston, start, grid, 64, 2024, scheme=scheme, store_stride=2)


@pytest.mark.parametrize("scheme", ["full_truncation", "absorbed_euler"])
def test_heston_ensemble_pinned(heston, start, scheme):
    ens = _heston_ensemble(heston, start, scheme)
    assert _digest(ens.states, ens.pre_clip_min_xd,
                   np.array([ens.n_clipped_steps])) == HESTON_PINS[scheme]


def test_heston_csv_pinned(heston, start):
    assert _csv_digest(_heston_ensemble(heston, start, "full_truncation")) == HESTON_CSV_PIN


def test_gridded_ensemble_pinned(gridded_model):
    grid = m.TimeGrid(0.0, 1.0, 2.0**-4)
    mimic = m.simulate_sde(gridded_model, m.SpaceTimePoint(0.0, (0.0, 0.09)), grid, 256, 32)
    assert _digest(mimic.states, mimic.pre_clip_min_xd,
                   np.array([mimic.n_clipped_steps])) == GRIDDED_PIN


def test_gridded_pde_pinned(gridded_model):
    # the time-reversed march evaluates the lattice at its knots and blends
    # them; the solution's own interpolation of v(0, .) covers a clamped
    # point and the x_d = 0 layer
    grid = m.Grid.build(dt=2.0**-5, x_prime_extent=1.0, x_max=0.5, counts=(9, 9))
    sol = m.solve_terminal_value(gridded_model,
                                 lambda x: np.exp(-x[:, 0] ** 2) * (1.0 + x[:, 1]), 1.0, grid)
    pts = np.array([[0.0, 0.09], [0.3, 0.0], [-1.2, 0.7], [0.95, 0.2]])
    assert _digest(sol.values, sol.layer_min, sol.layer_max, sol.meta["inner_min"],
                   sol.meta["inner_max"], [sol.value_at(p) for p in pts]) == GRIDDED_PDE_PIN


# duality reports on a 33^2 grid over T = 0.25 from (0, 0.09), 4000 paths at
# h = 2^-7, seed 11: the bump payoff scored at the start and at a start
# shifted by (0, 0.05), and g = 1 under Heston's constant killing rate
DUALITY_PINS = {
    "heston-bump": {
        "pde_value": 0.8943831174608872, "mc_mean": 0.8968084232390218,
        "mc_se": 0.002446605837932078, "grid_error": 0.002275350556751765,
        "gap": 0.002425305778134601, "tolerance": 0.011890518627299763,
        "interpolated": True, "passed": True},
    "heston-bump-shifted": {
        "pde_value": 0.827119414739122, "mc_mean": 0.8968084232390218,
        "mc_se": 0.002446605837932078, "grid_error": 0.0020775805044702667,
        "gap": 0.06968900849989978, "tolerance": 0.011494978522736767,
        "interpolated": True, "passed": False},
    "killing-ones": {
        "pde_value": 0.995013256384575, "mc_mean": 0.9950124791926824,
        "mc_se": 1.7556362025312897e-18, "grid_error": 7.768688289333525e-07,
        "gap": 7.771918926202659e-07, "tolerance": 1.5537376578719719e-06,
        "interpolated": True, "passed": True},
}


@pytest.mark.parametrize("case", sorted(DUALITY_PINS))
def test_duality_pinned(heston, heston_killing, case):
    bump = m.radial_bump([0.0, 0.04], 0.5)
    g = (lambda x: np.ones(x.shape[0])) if case == "killing-ones" else (
        lambda x: bump.jet(0.0, x)[0])
    model = heston_killing if case == "killing-ones" else heston
    grid = m.Grid.build(dt=1 / 64, x_prime_extent=1.5, x_max=0.5, counts=[33, 33])
    # the wrong-start control reads the solution at a shifted start
    x = np.add([0.0, 0.09], [0.0, 0.05] if case == "heston-bump-shifted" else 0.0)
    mc = m.discounted_mean(model, g, [0.0, 0.09], 0.25, 4000, 2.0**-7, 11)
    rep = m.solve_two_grid(model, g, 0.25, grid).report(x, *mc)
    assert rep.to_json() == DUALITY_PINS[case]


# w^T (P v) for the spatial operator P at t = dt on a 17^2 grid, with seeded
# standard normal w and v in grid order (w, v = rng(seed).standard_normal((2, N))),
# computed from the assembled sparse P before the march was split into line
# stages: the stages must still sum to that P
OPERATOR_PINS = {
    ("heston", 0): -508.8539842889448,
    ("heston", 1): -1200.041003847805,
    ("gridded_model", 0): -266.58265818140796,
    ("gridded_model", 1): -360.9346198532071,
}


@pytest.mark.parametrize("case", OPERATOR_PINS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_stage_sum_reproduces_operator(request, case):
    model_name, seed = case
    grid = m.Grid.build(dt=2.0**-5, x_prime_extent=1.0, x_max=0.5, counts=(17, 17))
    st = pde._Stencil(grid)
    w, v = np.random.default_rng(seed).standard_normal((2, grid.n_nodes))
    pv = np.zeros(grid.n_nodes)
    model = request.getfixturevalue(model_name)
    for lines, bands in pde._assemble_stages(st, pde._node_coefficients(model, st)(grid.dt))[0]:
        pv[lines.order] += pde._apply(bands, v[lines.order, None])[:, 0]
    assert abs(w @ pv - OPERATOR_PINS[case]) <= 1e-13 * abs(OPERATOR_PINS[case])


def _json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(RESTART_PINS))
def test_restart_continuation_pinned(gridded_model, case):
    # tau is a first hitting time, so each path restarts at its own time and
    # the lattice is evaluated at per-path t; g sees the continuation and the
    # restart sample of every bin, so the digest covers every bit of both
    scheme, _, perturb = case.partition("+")
    seen = []

    def g(x):
        seen.append(np.array(x))
        return x[:, 1]

    rep = m.strong_markov_restart_test(
        gridded_model, m.SpaceTimePoint(0.0, (0.0, 0.09)), level=0.06, t_cap=0.5, u=0.25,
        g_list=[("x_2", g)], n_paths=300, h=2.0**-5, seed=61, scheme=scheme,
        n_bins=2, min_bin=20, perturb=(0.05, -0.04) if perturb else None)
    assert len(seen) == 2 * len(rep.entries)
    assert _digest(*seen) + _json_digest(rep.to_json())[:16] == RESTART_PINS[case]


def _leaky_driver(heston):
    """A driver whose noise does not vanish on x_d = 0, despite its support claim."""
    xi = 0.2 * np.eye(2)
    return m.ItoDriver(d=2, r=2, coeffs=lambda t, x, aux: (
        heston.b(t, x), np.broadcast_to(xi, (x.shape[0], 2, 2))), name="leaky")


@pytest.mark.parametrize("case", sorted(ITO_PINS))
def test_ito_ensemble_pinned(heston, case):
    driver = (m.regime_switching_driver(heston, hi_factor=2.5) if case == "regime"
              else _leaky_driver(heston))
    grid = m.TimeGrid(0.0, 0.5, 2.0**-5)
    ens = m.simulate_ito_process(driver, m.SpaceTimePoint(0.0, (0.0, 0.09)), grid, 200, 808,
                                 store_stride=4)
    assert ens.n_clipped_steps > 0
    assert (ens.boundary_row_violations > 0) == (case == "leaky")
    assert _digest(ens.states, ens.pre_clip_min_xd,
                   np.array([ens.n_clipped_steps, ens.boundary_row_violations]),
                   np.array([ens.integrability_mean]),
                   ens.drivers.beta, ens.drivers.xi2) == ITO_PINS[case]


@pytest.mark.parametrize("case", sorted(VALIDATOR_PINS))
def test_validator_pinned(heston, gridded_model, case):
    # pair budgets above one 4096-pair batch, so the stratum parity runs on
    # absolute pair indices
    model = heston if case == "heston" else gridded_model
    rep = m.validate_coefficients(model, n_samples=1000, pair_budget=5000, seed=3,
                                  alphas=[0.3])
    assert _json_digest(rep.to_json()) == VALIDATOR_PINS[case]


def test_sampled_norms_pinned():
    region = m.Region(0.0, 1.0, (-1.0, 0.0), (1.0, 0.5))
    field = lambda t, x: np.sin(3.0 * x[:, 0]) * np.sqrt(x[:, 1]) + t
    holder = [m.holder_seminorm_estimate(field, region, 0.5, metric, 5000, 4).to_json()
              for metric in ("cycloidal", "parabolic")]
    assert _json_digest(holder) == HOLDER_PIN


def _test_functions() -> dict:
    return {"linear": m.linear_function([0.0, 1.0]),
            "bump": m.radial_bump([0.0, 0.05], 1.0),
            "boundary_bump": m.boundary_bump([0.0], 0.6),
            "time_weighted": m.time_weighted_xd(0.5)}


_MARTINGALE_GRID = m.TimeGrid(0.0, 0.5, 2.0**-5)


@pytest.mark.parametrize("case", sorted(INCREMENTS_PINS))
def test_martingale_increments_pinned(heston, start, case):
    name, _, part = case.partition("+")
    generator = m.strip_generator_term(heston, part) if part else heston
    grid = _MARTINGALE_GRID
    inc, _ = m.martingale_increments(heston, generator, [_test_functions()[name]],
                                     np.arange(grid.n_steps + 1), start, grid, 256, 707)
    assert _digest(inc[0]) == INCREMENTS_PINS[case]


@pytest.mark.parametrize("case", sorted(MARTINGALE_TEST_PINS))
def test_martingale_test_pinned(heston, gridded_model, start, case):
    # the CLI's three test functions and probes; the gridded case simulates
    # and compensates with the gridded model itself
    model, seed = (gridded_model, 708) if case == "gridded" else (heston, 707)
    generator = m.strip_generator_term(heston, "drift") if case == "drift-broken" else model
    tfs = [_test_functions()[name] for name in ("linear", "bump", "boundary_bump")]
    probes = [constant_probe()] + [left_coordinate_probe(i) for i in range(model.d)]
    reports = m.martingale_test(model, generator, tfs, probes, start, _MARTINGALE_GRID, 256, seed)
    assert _json_digest([r.to_json() for r in reports]) == MARTINGALE_TEST_PINS[case]


def test_ito_residual_pinned(heston, start):
    # the same paths as the martingale pins' Heston paths, simulated by the residual itself
    rep = m.ito_formula_residual(heston, m.time_weighted_xd(0.5), start,
                                 _MARTINGALE_GRID, 256, 707, "full_truncation")
    assert _json_digest(rep.to_json()) == ITO_RESIDUAL_PIN


@pytest.mark.parametrize("case", sorted(TEST_FUNCTION_PINS))
def test_test_function_pinned(case):
    v = _test_functions()[case]
    arrays = [*v.jet(0.3, TF_POINTS), v.xd_hess(0.3, TF_POINTS)]
    if v.dt is not None:
        arrays.append(v.dt(0.3, TF_POINTS))
    assert _digest(*[np.asarray(a, dtype=float) for a in arrays]) == TEST_FUNCTION_PINS[case]


# compare_marginals' report as JSON: two unequal Heston ensembles with a g_list,
# and two unequal full-truncation ensembles whose x_d sits exactly at 0 on most
# paths (ties inside and across the samples); same_law_ks_quantile on the tied x_d
COMPARE_PINS = {
    "heston": "c0b99cdc58103a16d50eeaec4d234773d904f73a163140d18f9ceff3a0cf755b",
    "ties": "a729947a6d05b8d5c11a5d577ff9c8b29d4a0465c95c77580cb03478ece7cae5",
}
SAME_LAW_KS_PIN = "81c2cb228cc7ab6bd1cf6731cf6aa16ad4582129d6e8d0e3d4a1130cb0199bed"


@pytest.fixture(scope="module")
def compare_ensembles(heston, start):
    grid = m.TimeGrid(0.0, 0.5, 2.0**-5)
    sticky = m.heston_model(1.0, 0.02, 0.8, -0.3, r=0.02, q=0.0)
    near_zero = m.SpaceTimePoint(0.0, (0.0, 0.02))
    return {"heston": (m.simulate_sde(heston, start, grid, 300, 41, store_stride=4),
                       m.simulate_sde(heston, start, grid, 217, 42, store_stride=4)),
            "ties": (m.simulate_sde(sticky, near_zero, grid, 400, 11, store_stride=4),
                     m.simulate_sde(sticky, near_zero, grid, 333, 12, store_stride=4))}


@pytest.mark.parametrize("case", sorted(COMPARE_PINS))
def test_compare_marginals_pinned(compare_ensembles, case):
    a, b = compare_ensembles[case]
    g_list = ([("x_1", lambda x: x[:, 0]), ("x_2^2", lambda x: x[:, 1] ** 2)]
              if case == "heston" else ())
    comp = m.compare_marginals(a, b, [0.25, 0.5], g_list=g_list, seed=7)
    if case == "ties":
        assert min((e.states_at(0.5)[:, 1] == 0.0).sum() for e in (a, b)) > 200
    assert _json_digest(comp.to_json()) == COMPARE_PINS[case]


def test_same_law_ks_quantile_pinned(compare_ensembles):
    a, b = compare_ensembles["ties"]
    q = m.same_law_ks_quantile(a.states_at(0.5)[:, 1], b.states_at(0.5)[:, 1],
                               n_boot=60, q=0.9, seed=5)
    assert _digest(np.array([q])) == SAME_LAW_KS_PIN


_HESTON_PARAMS = {"kappa": 1.5, "theta": 0.04, "zeta": 0.3, "rho": -0.5, "r": 0.02, "q": 0.0}
_MIMIC_BINNING = {"times": [0.125, 0.25, 0.375, 0.5],
                  "edges": [[-0.9 + 0.3 * i for i in range(7)], [0.0, 0.03, 0.06, 0.1, 0.15, 0.3]],
                  "kernel": "box", "min_count": 10}


def _cli_config(kind: str, out: Path) -> dict:
    """A small config of ``kind`` at a pinned seed, reaching every section its runner reads."""
    cfg = {"kind": kind, "seed": 97, "output_dir": str(out),
           "model": {"builtin": "heston", "params": dict(_HESTON_PARAMS)},
           "start": {"t": 0.0, "x": [0.0, 0.09]},
           "ensemble": {"n_paths": 600, "step": 2.0**-5, "horizon": 0.5,
                        "scheme": "full_truncation", "store_stride": 2}}
    pde = {"dt": 1.0 / 16, "x_prime_extent": 1.5, "x_max": 0.5, "counts": [9, 9], "horizon": 0.25}
    if kind == "validate":
        cfg["validator"] = {"n_samples": 256, "pair_budget": 256, "alphas": [0.3]}
    elif kind == "martingale":
        cfg["ensemble"] = {"n_paths": 1000, "step": 2.0**-5, "horizon": 0.5, "store_stride": 1}
        cfg["martingale"] = {"n_intervals": 3, "test_functions": [
            {"type": "linear", "weights": [0.0, 1.0]},
            {"type": "radial_bump", "center": [0.0, 0.05], "radius": 1.0},
            {"type": "boundary_bump", "center_prime": [0.0], "radius": 0.6}]}
    elif kind in ("project", "full-mimic"):
        cfg["ensemble"] = {"n_paths": 2000, "step": 2.0**-5, "horizon": 0.5, "store_stride": 2}
        cfg["driver"] = {"kind": "regime_switching", "hi_factor": 1.5, "switch_rate": 2.0}
        cfg["binning"] = dict(_MIMIC_BINNING)
        cfg["compare_times"] = [0.25, 0.5]
        cfg["thresholds"] = {"ks": 0.08, "gap_z": 8.0}
    elif kind == "pde":
        cfg["pde"] = pde
    elif kind == "duality":
        cfg["ensemble"] = {"n_paths": 4000, "step": 2.0**-6, "horizon": 0.25}
        cfg["pde"] = dict(pde, counts=[17, 17])
        cfg["duality"] = {"horizon": 0.25,
                          "g": {"type": "radial_bump", "center": [0.0, 0.04], "radius": 0.5}}
    elif kind == "restart":
        cfg["ensemble"] = {"n_paths": 800, "step": 2.0**-5, "horizon": 1.0}
        cfg["restart"] = {"level": 0.06, "t_cap": 0.25, "u": 0.125, "n_bins": 2,
                          "min_bin": 100, "ks_threshold": 0.2}
    return cfg


# kind, or kind+part for a --break-generator run -> exit status and the sha256
# of every file the run writes except the (timestamped) manifest
CLI_PINS = {
    "simulate": {
        "status": 0,
        "ensemble.csv":
            "6ee889e578ffddf13345697395eb68f23bbdf5ed13119e368d022aa0cc7adb7e",
        "report.json":
            "7fcf33ed79d8cc40cbb21cebb0e7f00fa0e5aee75ce43eb9b6fe294a3a41ba95",
    },
    "validate": {
        "status": 0,
        "report.json":
            "fe008bbf2437829646ddcba1f5a7f4b6bc49f8f1a4979cc52ef2d526380afc97",
    },
    "martingale": {
        "status": 0,
        "report.json":
            "c1506917918938959964229ab58af191869b4b9ba2bc8293eba1a9e58e84a606",
    },
    "project": {
        "status": 0,
        "mimicked.csv":
            "ee5af15587b8d8ac9280017deb092856b7945b4b8a7a998552823af3984a0b85",
        "mimicked.csv.meta.json":
            "19ec41e3a1063c0a331d1efdc5dbb7982a0f820124b5666e092d9724e8d6d8a7",
        "report.json":
            "0c1f6d186c58ff689fec3caefeefb2c2f43e2099c07b662d93e38991581978b5",
    },
    "pde": {
        "status": 0,
        "report.json":
            "5bc89a98282e53699dc5354052e53d32d558dda9ea6939e884730491c2386ead",
        "solution.csv":
            "1e54011187559890e07763a13ba432bf49769c48f24962b1311afd9ab5f8c789",
    },
    "duality": {
        "status": 0,
        "report.json":
            "da90208bf98ee759ba06105a201cba63284b387fe7da17d3ced73519e8ca2a02",
    },
    "restart": {
        "status": 0,
        "report.json":
            "aee1a721becf0481785d8e0b7fc1adf576d6d99eb52e3783a539825f630f73bd",
    },
    "full-mimic": {
        "status": 0,
        "mimicked.csv":
            "ee5af15587b8d8ac9280017deb092856b7945b4b8a7a998552823af3984a0b85",
        "mimicked.csv.meta.json":
            "19ec41e3a1063c0a331d1efdc5dbb7982a0f820124b5666e092d9724e8d6d8a7",
        "report.json":
            "247a043f8c2a017c9a7eda9e013aede24b7e5e0a8d5d7aa6abb4cacab4dd1e42",
    },
    "martingale+drift": {
        "status": 1,
        "report.json":
            "432c2479492bf31c8b0c18b6285b54a82627ef33913d97d14bbe217b96ec67e9",
    },
    "duality+drift": {
        "status": 1,
        "report.json":
            "3275de99e5a127b2aed2eab7a13aaeca33aff6b087bc37a34889b9e8a59c2a36",
    },
}


def _cli_digests(cfg: dict, break_generator: str | None = None) -> dict:
    status = cli.run(cfg, break_generator=break_generator)
    files = sorted(p for p in Path(cfg["output_dir"]).iterdir() if p.name != "manifest.json")
    return {"status": status,
            **{p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}}


def test_cli_pins_cover_every_kind():
    assert {case.partition("+")[0] for case in CLI_PINS} == set(cli.KINDS)


@pytest.mark.parametrize("kind", cli.KINDS)
def test_cli_kind_pinned(tmp_path, kind):
    cases = [c for c in CLI_PINS if c.partition("+")[0] == kind]
    assert cases, f"no CLI pin for kind {kind!r}"
    for case in cases:
        part = case.partition("+")[2]
        digests = _cli_digests(_cli_config(kind, tmp_path / case), break_generator=part or None)
        assert digests == CLI_PINS[case], case


def _bare_cli_config(case: str, out: Path) -> dict:
    """``case``'s kind with every optional key and section omitted, so each default runs:
    only the sizes of the sections the kind requires are given.  ``project+sections``
    adds a regime-switching driver with every other key of that section omitted."""
    kind, _, variant = case.partition("+")
    cfg = {"kind": kind, "seed": 97, "output_dir": str(out)}
    if kind in ("simulate", "martingale", "project", "full-mimic"):
        cfg["ensemble"] = {"n_paths": 2000, "step": 2.0**-5, "horizon": 1.0}
    if kind in ("project", "full-mimic"):
        cfg["binning"] = {"times": [0.25, 0.5], "edges": _MIMIC_BINNING["edges"]}
    if variant:
        cfg["driver"] = {"kind": "regime_switching"}
    return cfg


# the CLI_PINS digests of _bare_cli_config's runs; the full-mimic run fails its
# compare_marginals check at t = 1 (KS 0.048 against the default 0.03)
CLI_DEFAULT_PINS = {
    "simulate": {
        "status": 0,
        "ensemble.csv": "7fe6ac5759191c68474395611a5fdf2a7c5a1b5ca6ae839f5c35efa404f7bdb9",
        "report.json": "ed78fcfe0e9a0a01d1b9ac791fb95553eb69d3baea1769e5a3d720be79649a3c",
    },
    "validate": {
        "status": 0,
        "report.json": "4964f66e033a07c9002e9495e7f0c710192dfdde76a263a50dbf7a7afe0b8ebe",
    },
    "martingale": {
        "status": 0,
        "report.json": "79aee89bc464185bb5293bf4488a7610613e612d694430af09d750309b53062b",
    },
    "project": {
        "status": 0,
        "mimicked.csv": "da8a7623fa359d29be5aded3e5237bcb2ec40acb892f2d73929520fd6dddd621",
        "mimicked.csv.meta.json":
            "f7dd084b9c5fade4a6878be175cc9925c5303110cb9253e3362e8d72e09b1feb",
        "report.json": "abdae8d539a4b588b60a55dc9a532fd1f59e38fbaa1a735a05a6d36c2e53fe0b",
    },
    "pde": {
        "status": 0,
        "report.json": "04bfeb108c2e8969a4ecf5b71c037ef08ded9227ff5df67cbca277dda37a167d",
        "solution.csv": "47e27fb7e45e9eee76faa9951cc36b64134867448e04a44e9e3cc20c2dc40f32",
    },
    "duality": {
        "status": 0,
        "report.json": "c169f7b37dfa53d00ea4798c56b935cee3a38a50d8c5e30fb32d791232481026",
    },
    "restart": {
        "status": 0,
        "report.json": "925ff9af564e1ad75b611a8c56b43a6840b99e7fb7f09fee6326c72c64aec8cc",
    },
    "full-mimic": {
        "status": 1,
        "mimicked.csv": "da8a7623fa359d29be5aded3e5237bcb2ec40acb892f2d73929520fd6dddd621",
        "mimicked.csv.meta.json":
            "f7dd084b9c5fade4a6878be175cc9925c5303110cb9253e3362e8d72e09b1feb",
        "report.json": "78093331f59396bab9a4648cc751bdb719b3c12c424a48b3d5730f2f4f17a9ba",
    },
    "project+sections": {
        "status": 0,
        "mimicked.csv": "ba35ec1c2ad90a1754b60b97e0a88effe315765fd732bd842f11beecd429b4b3",
        "mimicked.csv.meta.json":
            "f7dd084b9c5fade4a6878be175cc9925c5303110cb9253e3362e8d72e09b1feb",
        "report.json": "a9cc3e463e577b9c642a87dfa31137bde2d6924c137b32853ab7719b6f9a3473",
    },
}


def test_cli_default_pins_cover_every_kind():
    assert {case.partition("+")[0] for case in CLI_DEFAULT_PINS} == set(cli.KINDS)


@pytest.mark.parametrize("case", sorted(CLI_DEFAULT_PINS))
def test_cli_defaults_pinned(tmp_path, case):
    assert _cli_digests(_bare_cli_config(case, tmp_path)) == CLI_DEFAULT_PINS[case]


# the pde kind on the time-dependent model that the pinned project config
# builds, where every march step assembles its own stages
GRIDDED_CLI_PDE_PIN = {
    "status": 0,
    "report.json":
        "9e42e2c7401537e74c5fae3bad8636bfc99d280cb3d6b49f461e6d96019ac953",
    "solution.csv":
        "addb664f9d6c90f3e68c9a5cac8fc579f82bf27cf13b806f08505c368a7fbed2",
}


@pytest.fixture(scope="module")
def project_csv(tmp_path_factory) -> Path:
    """The time-dependent mimicked lattice that the pinned project config writes."""
    out = tmp_path_factory.mktemp("project")
    assert cli.run(_cli_config("project", out)) == 0
    return out / "mimicked.csv"


def _gridded_pde_config(out: Path, csv: Path) -> dict:
    cfg = _cli_config("pde", out)
    cfg["model"] = {"gridded": {"csv": str(csv)}}
    cfg["pde"]["horizon"] = 0.5
    return cfg


def test_cli_pde_gridded_pinned(tmp_path, project_csv):
    assert _cli_digests(_gridded_pde_config(tmp_path, project_csv)) == GRIDDED_CLI_PDE_PIN



# save_mimicked's CSV and sidecar for an unfilled box estimate whose
# masked rows hold NaN, and load_mimicked's arrays read back from that file
# ("unfilled") and from the filled lattice the pinned project config writes
MIMICKED_IO_PINS = {
    "mimicked.csv":
        "d57ea3bb248cfa64375a0aca0c9c8708a32cbdff2c50d4908651a50139ffdcb5",
    "mimicked.csv.meta.json":
        "e97af8b62e7dc653eb3aa3c76f45af3b2c91c84630f48544621f4ce0eb74132b",
    "unfilled": "69cd3fbd9b75c989ca8bd84a897ac7f669ccd573ab1b72f6376a3a94fa7ce6a1",
    "project": "5d2c2bebe964856fee6d987a949c48795ff35c94d376d283e73dacd58e45bbfd",
}


def _loaded_digest(csv_path: Path) -> str:
    mc = m.load_mimicked(csv_path)
    return _digest(mc.b_hat, mc.d_hat, mc.occupancy, mc.mask, mc.clip)


def test_mimicked_io_pinned(heston, tmp_path, project_csv):
    ens = m.simulate_ito_process(m.regime_switching_driver(heston), np.array([0.0, 0.09]),
                                 m.TimeGrid(0.0, 0.5, 2.0**-5), 300, 4301,
                                 store_stride=4)
    spec = m.BinningSpec(times=(0.25, 0.5), edges=(np.linspace(-0.9, 0.9, 7),
                                                   [0.0, 0.04, 0.08, 0.15, 0.3]),
                         min_count=4.0)
    mc = m.estimate_mimicking_coefficients(ens, spec)
    assert 0 < mc.mask.sum() < mc.mask.size and np.isnan(mc.b_hat[mc.mask]).all()
    m.save_mimicked(mc, tmp_path / "mimicked.csv")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    digests["unfilled"] = _loaded_digest(tmp_path / "mimicked.csv")
    digests["project"] = _loaded_digest(project_csv)
    assert digests == MIMICKED_IO_PINS

@pytest.mark.parametrize("model", ["heston", "gridded"])
def test_cli_pde_factorizations(tmp_path, project_csv, monkeypatch, model):
    # both solves share one march, which assembles and factors its stages
    # only when its coefficients change: Heston, constant in t (one knot),
    # once; the gridded model at each of its 8 steps but the last two, not
    # once per step per solve: t = 7/16 and 1/2 lie past the last reversed
    # knot 3/8 and reuse its stages
    assembled, factored = [], []
    assemble, factor = pde._assemble_stages, pde.lapack.dgttrf
    monkeypatch.setattr(pde, "_assemble_stages",
                        lambda *a, **k: assembled.append(r := assemble(*a, **k)) or r)
    monkeypatch.setattr(pde.lapack, "dgttrf", lambda *a, **k: factored.append(1) or factor(*a, **k))
    cfg = (_gridded_pde_config(tmp_path, project_csv) if model == "gridded"
           else _cli_config("pde", tmp_path))
    assert cli.run(cfg) == 0
    assert len(assembled) == (6 if model == "gridded" else 1)
    assert len(factored) == sum(len(stages) for stages, _ in assembled)


def test_cli_pde_gridded_evaluates_each_knot_once(tmp_path, project_csv, monkeypatch):
    # the march reads a, b and c once at each lattice time it reaches, not at
    # each step: the 8 steps over [0, 0.5] reach the lattice times 1/8, 1/4,
    # 3/8 and 1/2, so 12 calls where evaluating at every step made 40
    calls = []
    march = cli._march

    def counted_march(model, *args):
        fields = {f: lambda t, x, f=f, fn=getattr(model, f): calls.append(f) or fn(t, x)
                  for f in "abc"}
        return march(dataclasses.replace(model, **fields), *args)

    monkeypatch.setattr(cli, "_march", counted_march)
    assert cli.run(_gridded_pde_config(tmp_path, project_csv)) == 0
    assert sorted(calls) == ["a"] * 4 + ["b"] * 4 + ["c"] * 4


def test_cli_martingale_evaluates_model_once_per_node(tmp_path, monkeypatch):
    # inside the kernel's observation hook, the check evaluates a and b once
    # per step for all three test functions together, not once per step per
    # function; the final node needs only the jets
    calls, observed = [], []
    heston_model, simulate = cli.heston_model, martingale.simulate_sde

    def counted_model(*args, **kwargs):
        model = heston_model(*args, **kwargs)
        for f in "ab":
            def counted(t, x, f=f, fn=getattr(model, f)):
                calls.append(f)
                return fn(t, x)
            setattr(model, f, counted)
        return model

    def counted_simulate(*args, observe, **kwargs):
        def counted_observe(*step):
            first = len(calls)
            observe(*step)
            observed.extend(calls[first:])
        return simulate(*args, observe=counted_observe, **kwargs)

    monkeypatch.setattr(cli, "heston_model", counted_model)
    monkeypatch.setattr(martingale, "simulate_sde", counted_simulate)
    cfg = _cli_config("martingale", tmp_path)
    assert cli.run(cfg) == 0
    n_steps = round(cfg["ensemble"]["horizon"] / cfg["ensemble"]["step"])
    assert (observed.count("a"), observed.count("b")) == (n_steps, n_steps)
