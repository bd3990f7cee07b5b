"""Known-output pins for the random stream, the Euler ensembles, a PDE solution and the CSV format.

Every other test checks self-consistency; these check that the bits themselves
have not moved.  A change that alters any digest below changes the stream, the
stepping arithmetic or the artifact format, and must say so and re-run every
acceptance criterion at its unchanged seed instead of re-pinning quietly.
"""

import hashlib
import io

import numpy as np
import pytest

import mimicsde as m
from mimicsde import rng


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
DRIVER_CSV_PIN = "9fa334c79a1297e14df3d1b421b8a53bd3dbdf8ae5b36ff7f607e925d3caee6b"
GRIDDED_PIN = "677476567d53689a7bf84c065cfb814e21e3e9c1d25aeee85048b909106dfad6"
GRIDDED_PDE_PIN = "d6c2ebcf585d87226842cf1d0548eea1d8d5c9529d445bef8af6f5fc9457bff6"


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


def test_driver_records_csv_pinned(heston):
    grid = m.TimeGrid(0.0, 0.25, 2.0**-4)
    ens = m.simulate_ito_process(m.regime_switching_driver(heston), np.array([0.0, 0.09]),
                                 grid, 12, 77, record_drivers=True)
    assert _csv_digest(ens) == DRIVER_CSV_PIN


@pytest.fixture(scope="module")
def gridded_model(heston):
    """A time-dependent mimicking model: 4 time layers on an 8 x 8-cell lattice."""
    grid = m.TimeGrid(0.0, 1.0, 2.0**-4)
    ens = m.simulate_ito_process(m.model_driver(heston), np.array([0.0, 0.09]),
                                 grid, 2000, 31, record_drivers=True, store_stride=2)
    e1 = np.linspace(-1.5, 1.5, 9)
    e2 = np.concatenate([[0.0], 0.5 * np.linspace(0.05, 1.0, 8) ** 1.3])
    spec = m.BinningSpec(times=(0.25, 0.5, 0.75, 1.0), edges=(e1, e2), min_count=5)
    return m.build_mimicking_model(m.estimate_mimicking_coefficients(ens, spec),
                                   max_masked_fraction=0.99)


def test_gridded_ensemble_pinned(gridded_model):
    grid = m.TimeGrid(0.0, 1.0, 2.0**-4)
    mimic = m.simulate_sde(gridded_model, m.SpaceTimePoint(0.0, (0.0, 0.09)), grid, 256, 32)
    assert _digest(mimic.states, mimic.pre_clip_min_xd,
                   np.array([mimic.n_clipped_steps])) == GRIDDED_PIN


def test_gridded_pde_pinned(gridded_model):
    # the time-reversed march evaluates the lattice at 0-d t; the solution's
    # own interpolation covers a clamped point and the x_d = 0 layer
    grid = m.Grid.build(dt=2.0**-5, x_prime_extent=1.0, x_max=0.5, counts=(9, 9))
    sol = m.solve_terminal_value(gridded_model,
                                 lambda x: np.exp(-x[:, 0] ** 2) * (1.0 + x[:, 1]), 1.0, grid)
    pts = np.array([[0.0, 0.09], [0.3, 0.0], [-1.2, 0.7], [0.95, 0.2]])
    assert _digest(sol.values, sol.layer_min, sol.layer_max,
                   sol.interpolate(0.3, pts)) == GRIDDED_PDE_PIN
