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
import scipy

import mimicsde as m
from mimicsde import cli, martingale, pde, rng
from mimicsde.martingale import constant_probe, left_coordinate_probe

from conftest import same_law_ks_quantile, time_weighted_xd


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


# what the stream pins were made with: numpy fixes the Philox words and
# scipy's ndtri the normals, so a stream pin that fails names any change
PINNED_WITH = {"rng_stream": "philox4x64-ndtri/1", "numpy": "2.4.6", "scipy": "1.17.1"}


def _stream_note() -> str:
    now = {"rng_stream": rng.STREAM, "numpy": np.__version__, "scipy": scipy.__version__}
    moved = [f"{k} {v} -> {now[k]}" for k, v in PINNED_WITH.items() if now[k] != v]
    return "pinned with " + (", ".join(moved) if moved else "the same stream and versions")


def _one_path_ranges(*paths) -> list[range]:
    return [range(p, p + 1) for p in paths]


# (seed, domain, path ranges, step, n), the draws of the ranges stacked in the
# listed order: a block of 4096 paths shares its counter, so paths 4095 /
# 4096 / 4097 straddle a block boundary; path 2^64 - 1, the last of the last
# block, comes first in an unsorted list; step 2^60 fills the key's second
# word; odd n splits a path's words across Philox's 4-word outputs
RNG_CASES = {
    "small": (0, rng.DOMAIN_BROWNIAN, [range(7)], 0, 2),
    "odd-n": (123, rng.DOMAIN_DRIVER, [range(5)], 17, 5),
    "block-edge": (2**40 + 3, rng.DOMAIN_DRIVER_INIT, [range(4095, 4098)], 3, 3),
    "last-path": (987654321, rng.DOMAIN_BROWNIAN, _one_path_ranges(2**64 - 1, 8191, 0),
                  2**33 + 1, 1),
    "big-step": (2**64 - 1, rng.DOMAIN_DRIVER, _one_path_ranges(0, 1, 2**31, 2**48), 2**60, 4),
}

NORMALS_PINS = {
    "small":
        "df54b20a18ee73ba7e9052a6fa61898add9c5e44093cae4fc665bb6de2cc61db",
    "odd-n":
        "3ce0a6a5b55b8ea421329112e57809b2dce1e19ad51a6ae6c68e0bd1aaa119c9",
    "block-edge":
        "ebfe1782522ebbccf192a30d3efbefc037c02627c84e0e48774d9c64dd18ed95",
    "last-path":
        "b1a55b9bb75647c5c702876ffe3db765dddcbf28055020b0a2db4e4266391b4c",
    "big-step":
        "99bb037ab42e44010197fd4da5bc47ec60d1d91d6269577beecca17abcbc6539",
}

UNIFORMS_PINS = {
    "small":
        "87483aeef256bfa176f4bed060f76ccbc9d39364201789645a4839c49eae0c35",
    "odd-n":
        "0ebb861afeefd7edd02330d0cb1343737810bf58fda1b04ad203ccb966b4262a",
    "block-edge":
        "a762e4325c62e7fe3936ce3cb98335c2c5e372c3b58d1faa08cece14a9c46816",
    "last-path":
        "0b8fd6578d22c6e3f46b5cc9dfce7c0d1839226ee69e1e1a8075327e50ef0c5d",
    "big-step":
        "0eef6eb4d367bb4876115e56d7159bf8a6b08ee3fb4570dc32772bfe5a200cfd",
}

HESTON_PINS = {
    "full_truncation":
        "5f8cfbfcd658eaa80cbaf2ae1364e0bf8a99f82898933a2c6c0e78de857f4dfb",
    "absorbed_euler":
        "dc3cd90aac8f4c0bb4c32aab89775d0cb11b85fa4eaf2aa8862dad729a0207f4",
}
HESTON_CSV_PIN = "a1ccb12f422fd33175ea64331dd3d541c42ec745eb8f782260f5e1b8ec8b8d21"
# _heston_ensemble's and the CLI's three test functions' increments from x = (0, 0),
# where step 0's xi is +-0 on every path (the root's negative rho zeta times
# sqrt(0) is -0), so every sum there must start from +0.0
ORIGIN_PINS = {
    "full_truncation":
        "4b953bceafd5e892ae671c2d054d0105156a17ba3958d394630e7c68ed4f4098",
    "absorbed_euler":
        "f49b23dfb417d27b03db1a8b13c10ef16ae82de148653e94d26ee2f756afd0c0",
    "linear": "ef6254b73370a4e3f699e23e08dc45238b40a3e554213f83607adffe8da4830e",
    "bump": "6192d0eb7505774a54047af0be244e075144a3e58dadcb3a595c7cac08b2ec0f",
    "boundary_bump": "0bb3f7b9ccbf7dbc14e71a4866d6e5ce1f39728ee7832b76fbbcb6a4892bf862",
}
GRIDDED_PIN = "33f0a27253e8f00b418bba51b52755a5335865e2876fa9b547d86efcde5b82e7"
GRIDDED_PDE_PIN = "7fa95e831071ba9679c9f943ef0b187bbef8a1dc409eb97dabe7eac132cb0d4a"
# states digest + the first 16 hex digits of the report's JSON digest
RESTART_PINS = {
    "full_truncation":
        "887ca9103e1befa99b0a5dfa3b180fcf7999d14c9f484eb6e0bba0f967ce3dfd" "3d11aba4267bc905",
    "absorbed_euler":
        "8722f9ab82a088e56b46f98891af888bc60afed16574914f66cf7b7dda133c1c" "3d11aba4267bc905",
    "full_truncation+perturb":
        "e4ce2dcebbf2ba82e229cbb8b7fb17bb773f313fbbda7362095963a2cf6ad1b6" "275878439620d904",
}
# the Itô ensemble and its box estimate on _ITO_SPEC, computed from the
# per-path driver records that simulate_ito_process kept before it summed
# its drivers into the cells as it stepped
ITO_PINS = {
    "regime": "5c685180bb650734dca300b5b3749c566e8a56db7cd91ee90206ddeb11485a72",
    "leaky": "ba946d6b0935aedd18803d24257266d0c4e3ae9411a274c22f6980e56debb9b3",
}
VALIDATOR_PINS = {
    "heston": "bd32790a483f7ffbdd236ae523e96988232f623fd7d1ab3aee5db05c7e8855f4",
    "gridded": "73dfc3d05a514fe9306b08416763e5a69229ed62d4b822511a8b6f49902d6d8b",
}
# the cycloidal and parabolic Hölder estimates of one field over one region
HOLDER_PIN = "da5b5217fb177bec17c61be9563723b32109c0bca8c19bdc8279022ac21a507b"
# acceptance 03's test functions at every node of the 256 Heston paths of
# _MARTINGALE_GRID at seed 707; "+drift" compensates with the drift-stripped
# generator
INCREMENTS_PINS = {
    "linear": "072cde954def0266621a23eca2af6d4aada5c24955eb54a63cb83ee1060fe7b4",
    "bump": "ae9715537b2cc33b421a8f7e8f722157c12356ba9f73de6d6aaded4fb41aeadb",
    "boundary_bump": "e3a41ca73dc9e3b8cc6a5e7b39d6d1c498227b4680de64dbef022b07f68b439e",
    "linear+drift": "573a56e3660ed612acfc8be4257564aa061922d0ac9e2a68599e93127f7c4cbf",
}
# martingale_test's reports for the linear, bump and boundary-bump functions
# with the CLI's probes: on those Heston paths, on 256 paths of the gridded
# model at seed 708, and on the Heston paths compensated with the drift-stripped
# Heston
MARTINGALE_TEST_PINS = {
    "heston": "0ff1f9c7e40861fe5416a7b357be17b2816d733c71d77da2fe5867142f9a2c0c",
    "gridded": "b03b7a2e8b60db3321caa1d226e190445a982c384fd885d4c7f3672045afdd39",
    "drift-broken": "39759b2a731188f01c249e7961b86654f8ce870bfffb309e5e0f38ace5187960",
}
ITO_RESIDUAL_PIN = "bc2e700d2cd1897274bc3eed20fd0875f191b30721f2daf34c67d74c5600cf34"
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


def _stacked_draws(draw, case):
    seed, domain, ranges, step, n = RNG_CASES[case]
    out = np.concatenate([draw(seed, domain, r, step, n) for r in ranges])
    assert out.shape == (sum(map(len, ranges)), n)
    return out


@pytest.mark.parametrize("case", sorted(RNG_CASES))
def test_normals_pinned(case):
    assert _digest(_stacked_draws(rng.normals, case)) == NORMALS_PINS[case], _stream_note()


@pytest.mark.parametrize("case", sorted(RNG_CASES))
def test_uniforms_pinned(case):
    assert _digest(_stacked_draws(rng.uniforms, case)) == UNIFORMS_PINS[case], _stream_note()


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


_ORIGIN = m.SpaceTimePoint(0.0, (0.0, 0.0))


@pytest.mark.parametrize("scheme", ["full_truncation", "absorbed_euler"])
def test_heston_ensemble_from_origin_pinned(heston, scheme):
    ens = _heston_ensemble(heston, _ORIGIN, scheme)
    assert _digest(ens.states, ens.pre_clip_min_xd,
                   np.array([ens.n_clipped_steps])) == ORIGIN_PINS[scheme]


@pytest.mark.parametrize("case", ["linear", "bump", "boundary_bump"])
def test_martingale_increments_from_origin_pinned(heston, case):
    # the CLI's default martingale test functions
    v = {"linear": m.linear_function([1.0, 0.0]), "bump": m.radial_bump([0.0, 0.05], 1.0),
         "boundary_bump": m.boundary_bump([0.0], 0.6)}[case]
    grid = _MARTINGALE_GRID
    inc, _ = m.martingale_increments(heston, heston, [v], np.arange(grid.n_steps + 1), _ORIGIN,
                                     grid, 256, 707)
    assert _digest(inc[0]) == ORIGIN_PINS[case]


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
        "pde_value": 0.8943831174608872, "mc_mean": 0.8953507085744561,
        "mc_se": 0.0024129159107350467, "grid_error": 0.002275350556751765,
        "gap": 0.0009675911135689219, "tolerance": 0.01178944884570867,
        "interpolated": True, "passed": True},
    "heston-bump-shifted": {
        "pde_value": 0.827119414739122, "mc_mean": 0.8953507085744561,
        "mc_se": 0.0024129159107350467, "grid_error": 0.0020775805044702667,
        "gap": 0.0682312938353341, "tolerance": 0.011393908741145674,
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
# stages (the gridded values with that assembler, from a272442, on the model
# the current random stream builds): the stages must still sum to that P
OPERATOR_PINS = {
    ("heston", 0): -508.8539842889448,
    ("heston", 1): -1200.041003847805,
    ("gridded_model", 0): -284.06041453864447,
    ("gridded_model", 1): -630.6733285246772,
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
    return m.ItoDriver(d=2, coeffs=lambda t, x, aux: (
        heston.b(t, x), np.broadcast_to(xi, (x.shape[0], 2, 2))))


# 1/2 twice: a repeated time, at the final node, which the kernel's hook does not see
_ITO_SPEC = m.BinningSpec(times=(0.125, 0.5, 0.5),
                          edges=(np.linspace(-0.6, 0.6, 5), [0.0, 0.05, 0.1, 0.2, 0.4]),
                          min_count=5.0)


@pytest.mark.parametrize("case", sorted(ITO_PINS))
def test_ito_ensemble_pinned(heston, case):
    driver = (m.regime_switching_driver(heston, hi_factor=2.5) if case == "regime"
              else _leaky_driver(heston))
    grid = m.TimeGrid(0.0, 0.5, 2.0**-5)
    ens = m.simulate_ito_process(driver, m.SpaceTimePoint(0.0, (0.0, 0.09)), grid, 200, 808,
                                 _ITO_SPEC, store_stride=4)
    assert ens.n_clipped_steps > 0
    assert (ens.boundary_row_violations > 0) == (case == "leaky")
    mc = m.estimate_mimicking_coefficients(ens)
    assert _digest(ens.states, ens.pre_clip_min_xd,
                   np.array([ens.n_clipped_steps, ens.boundary_row_violations]),
                   np.array([ens.integrability_mean]),
                   mc.occupancy, mc.b_hat, mc.d_hat) == ITO_PINS[case]


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
            "time_weighted": time_weighted_xd(0.5)}


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
    rep = m.ito_formula_residual(heston, time_weighted_xd(0.5), start,
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
    "heston": "6d8b376a35eda6f53d59d5b16bc567f36c20078439a3e333539a0174affda70b",
    "ties": "baf603ab516ff1ab8ab9e71a8cb44385054719dfb006a72702380b2f1d915b14",
}
SAME_LAW_KS_PIN = "c5a1c557b67252eb0519172cc304a8af9970f95d92aa3fc16bd255e0184538fe"


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
    q = same_law_ks_quantile(a.states_at(0.5)[:, 1], b.states_at(0.5)[:, 1],
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
        # the grid of test_cli's negative control: the drift-stripped model
        # fails it by a clear margin, which a 17^2, dt 1/16 grid does not
        cfg["ensemble"] = {"n_paths": 4000, "step": 2.0**-7, "horizon": 0.25}
        cfg["pde"] = dict(pde, dt=1.0 / 64, counts=[33, 33])
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
            "482263d939ef9357ac013b8ca740865240b1ea908d34940f0e39ad9f050c4864",
        "report.json":
            "fd3ded0f35d3a83ff38fa3870c66e7d0119cf591fcb6442c7c47640ee81cfaba",
    },
    "validate": {
        "status": 0,
        "report.json":
            "2c5a6ddc82730ea30a550d9c89583dc00f6d6c81528a4dd8346d4dc230c6231d",
    },
    "martingale": {
        "status": 0,
        "report.json":
            "275ea851db6f35898032cad3cc16f88d2fa4b7531272ac60eb8cd27811dbea3c",
    },
    "project": {
        "status": 0,
        "mimicked.csv":
            "aabf5bfe0fd44d71b58804f5a632923b7cb5fa3841ce4b9f0c1863866431a6c3",
        "mimicked.csv.meta.json":
            "19ec41e3a1063c0a331d1efdc5dbb7982a0f820124b5666e092d9724e8d6d8a7",
        "report.json":
            "526f037882e504dd62f850d56a519a032eb7e2af592bd2f0710bd18853090136",
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
            "fa195822c43efdd3b693f8644af64a4654fda3e8664c9968607539dda1800944",
    },
    "restart": {
        "status": 0,
        "report.json":
            "0cbe0d3b9980b3d64bfb379e0fe6883269cff1eb36cb691fbba4ac8ca7d06a76",
    },
    "full-mimic": {
        "status": 0,
        "mimicked.csv":
            "aabf5bfe0fd44d71b58804f5a632923b7cb5fa3841ce4b9f0c1863866431a6c3",
        "mimicked.csv.meta.json":
            "19ec41e3a1063c0a331d1efdc5dbb7982a0f820124b5666e092d9724e8d6d8a7",
        "report.json":
            "95cb6c74da52f1bd0793bf3047ba73cedab9c6e8b50eb76b96a8a7cdd8d54df7",
    },
    "martingale+drift": {
        "status": 1,
        "report.json":
            "04cb0f149f5e9ea4018163543a3782516c1276a797474f6df5cb6f1aa7722cca",
    },
    "duality+drift": {
        "status": 1,
        "report.json":
            "bb96fac4402cdd268f5bbe0fd88818b684d170f51ab678397d2202238ec7ca03",
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
        "ensemble.csv": "4d731aa9f762d617540833b6aa7d7a83ffce4f1875280fdba9b06739dd14b41e",
        "report.json": "06f2b31dd63ff96e26b1e65517b77cb7bdb8bc0702fe146df23c11624716fa6f",
    },
    "validate": {
        "status": 0,
        "report.json": "3ee6ab71e5ac67d15c50abb1ffd67e319aef0f805432acee0846aa0766c5cf22",
    },
    "martingale": {
        "status": 0,
        "report.json": "52f26fe4cd09f3326569cf501ea01c58d57c1b665be028a8fe33858c286f83b2",
    },
    "project": {
        "status": 0,
        "mimicked.csv": "2b340cd9fd5cd6d39482df72bc2dfa59e87a8d610637062fbf93a2bb59569f22",
        "mimicked.csv.meta.json":
            "f7dd084b9c5fade4a6878be175cc9925c5303110cb9253e3362e8d72e09b1feb",
        "report.json": "eb547358af81bcb077589d208ca2de48e39de67db541453aaf7e30ef066bcd06",
    },
    "pde": {
        "status": 0,
        "report.json": "04bfeb108c2e8969a4ecf5b71c037ef08ded9227ff5df67cbca277dda37a167d",
        "solution.csv": "47e27fb7e45e9eee76faa9951cc36b64134867448e04a44e9e3cc20c2dc40f32",
    },
    "duality": {
        "status": 0,
        "report.json": "297c6f1fe2fc967e12b34a1ba8ad959999c855545b6c58392a1addeee9a04bd3",
    },
    "restart": {
        "status": 0,
        "report.json": "09d286b505e0de1439c4f663b5b0fdac0adf0d703356f843407e88e19191b23b",
    },
    "full-mimic": {
        "status": 1,
        "mimicked.csv": "2b340cd9fd5cd6d39482df72bc2dfa59e87a8d610637062fbf93a2bb59569f22",
        "mimicked.csv.meta.json":
            "f7dd084b9c5fade4a6878be175cc9925c5303110cb9253e3362e8d72e09b1feb",
        "report.json": "14a3c129fa1469da17d08128d2339c9bbdfdb0c7828049e3a6b8447c3126986e",
    },
    "project+sections": {
        "status": 0,
        "mimicked.csv": "24e251fc309aebb4a88be1cbd8c92e47ad72792a502e3b6df458134bfdec002b",
        "mimicked.csv.meta.json":
            "f7dd084b9c5fade4a6878be175cc9925c5303110cb9253e3362e8d72e09b1feb",
        "report.json": "de75f5ada9f3e038bea47acfe137d48eaa184a55229ce570b34721bed002102b",
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
        "2795c8a67f6174c84dd8b5fab93887f8121c60ec866bcc49d9760ca3ec34b689",
    "solution.csv":
        "7c69e5d2d9a8dda1f8160b6b957b688d60e2c58df6cf631393967e5af1deaaf1",
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
        "4b629874cd24e4e10b994dd9a69fe9117a5f028b23f26d83d5dd3a1138f00cd4",
    "mimicked.csv.meta.json":
        "e97af8b62e7dc653eb3aa3c76f45af3b2c91c84630f48544621f4ce0eb74132b",
    "unfilled": "cedf554f93a67f0bd7684b82a6771b4662f9aa16baba894cdb509187ad6f4e81",
    "project": "5976636bf48ef705dcccfe271dc15d8572fe3027f21de0cbc2240ab82a981c04",
}


def _loaded_digest(csv_path: Path) -> str:
    mc = m.load_mimicked(csv_path)
    return _digest(mc.b_hat, mc.d_hat, mc.occupancy, mc.mask, mc.clip)


def test_mimicked_io_pinned(heston, tmp_path, project_csv):
    spec = m.BinningSpec(times=(0.25, 0.5), edges=(np.linspace(-0.9, 0.9, 7),
                                                   [0.0, 0.04, 0.08, 0.15, 0.3]),
                         min_count=4.0)
    ens = m.simulate_ito_process(m.regime_switching_driver(heston), np.array([0.0, 0.09]),
                                 m.TimeGrid(0.0, 0.5, 2.0**-5), 300, 4301, spec,
                                 store_stride=4)
    mc = m.estimate_mimicking_coefficients(ens)
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


def _martingale_hook_calls(tmp_path, monkeypatch, break_generator=None) -> tuple[int, list, int]:
    """The martingale kind's exit status, every call of the Heston model's a
    and b and of a broken generator's b (as "broken b") that its observation
    hook makes, and its number of steps."""
    calls, observed = [], []
    heston_model, strip = cli.heston_model, cli.strip_generator_term
    simulate = martingale.simulate_sde

    def counted(name, fn):
        return lambda t, x: calls.append(name) or fn(t, x)

    def counted_model(*args, **kwargs):
        model = heston_model(*args, **kwargs)
        for f in "ab":
            setattr(model, f, counted(f, getattr(model, f)))
        return model

    def counted_strip(model, part):
        broken = strip(model, part)
        return dataclasses.replace(broken, b=counted("broken b", broken.b))

    def counted_simulate(*args, observe, **kwargs):
        def counted_observe(*step):
            first = len(calls)
            observe(*step)
            observed.extend(calls[first:])
        return simulate(*args, observe=counted_observe, **kwargs)

    monkeypatch.setattr(cli, "heston_model", counted_model)
    monkeypatch.setattr(cli, "strip_generator_term", counted_strip)
    monkeypatch.setattr(martingale, "simulate_sde", counted_simulate)
    cfg = _cli_config("martingale", tmp_path)
    status = cli.run(cfg, break_generator=break_generator)
    return status, observed, round(cfg["ensemble"]["horizon"] / cfg["ensemble"]["step"])


def test_cli_martingale_evaluates_model_once_per_node(tmp_path, monkeypatch):
    # inside the kernel's observation hook, the check evaluates a once per
    # step for all three test functions together, not once per step per
    # function, and takes b from the step itself; the final node needs only
    # the jets
    status, observed, n_steps = _martingale_hook_calls(tmp_path, monkeypatch)
    assert status == 0
    assert (observed.count("a"), observed.count("b")) == (n_steps, 0)


def test_cli_broken_martingale_compensates_with_its_own_drift(tmp_path, monkeypatch):
    # a broken generator is not the model: the hook evaluates its b, never
    # reuses the step's, so CLI_PINS["martingale+drift"] still fails
    status, observed, n_steps = _martingale_hook_calls(tmp_path, monkeypatch, "drift")
    assert status == CLI_PINS["martingale+drift"]["status"]
    assert sorted(set(observed)) == ["a", "broken b"]
    assert (observed.count("a"), observed.count("broken b")) == (n_steps, n_steps)
