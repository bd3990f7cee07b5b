"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; seeds are fixed so the whole suite is
reproducible bit for bit.  Statistical criteria were checked for bias
separately (z statistics show no step-size drift), so a fixed representative
seed is sound.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import numpy as np
import pytest
from scipy import stats as sp_stats

import mimicsde as m
from mimicsde.coeffs import strip_generator_term
from mimicsde.martingale import constant_probe, left_coordinate_probe

from conftest import (affine_cell_error_ratio, heston_cf, ito_residual_ladder,
                      same_law_ks_quantile, time_weighted_xd)

HESTON = dict(kappa=1.5, theta=0.04, zeta=0.3, rho=-0.5, r=0.02, q=0.0)
START = (0.0, 0.09)


def announce(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} failed: {detail}"


def cir_cdf(t: float):
    """CDF of Heston's variance coordinate at time t: the exact CIR marginal.

    With c = 2 kappa / (zeta^2 (1 - e^{-kappa t})) and x0 = START[1], 2c X_t is
    noncentral chi-squared with df = 4 kappa theta / zeta^2 and
    nc = 2c x0 e^{-kappa t} (Cox, Ingersoll & Ross 1985).
    """
    kappa, theta, zeta = HESTON["kappa"], HESTON["theta"], HESTON["zeta"]
    c = 2.0 * kappa / (zeta**2 * (1.0 - np.exp(-kappa * t)))
    law = sp_stats.ncx2(df=4.0 * kappa * theta / zeta**2,
                        nc=2.0 * c * START[1] * np.exp(-kappa * t))
    return lambda x: law.cdf(2.0 * c * np.asarray(x))


def exact_law_ks(ens, t: float) -> float:
    """One-sample KS distance of the ensemble's x_2 at time t from the CIR law."""
    return float(sp_stats.kstest(ens.states_at(t)[:, 1], cir_cdf(t)).statistic)


@pytest.fixture(scope="module")
def model():
    return m.heston_model(**HESTON)


@pytest.fixture(scope="module")
def start():
    return m.SpaceTimePoint(0.0, START)


def test_01_support_invariance(model, start):
    grid = m.TimeGrid(0.0, 1.0, 2.0**-9)
    ens = m.simulate_sde(model, start, grid, 10_000, 1011, store_stride=8)
    rep = m.support_check(ens)
    announce(1, "support-invariance", rep.violations == 0,
             f"stored violations={rep.violations}, "
             f"pre-clip excursion p99={rep.p99_negative_excursion_pre_clip:.2e}, "
             f"max={rep.max_negative_excursion_pre_clip:.2e}")


def test_02_cir_moment_oracle(model, start):
    # oracle: dE/dt = kappa (theta - E)  =>  E(1) = theta + (x2 - theta) e^{-kappa}
    grid = m.TimeGrid(0.0, 1.0, 2.0**-9)
    ens = m.simulate_sde(model, start, grid, 100_000, 1021, store_stride=512)
    x2 = ens.states[:, -1, 1]
    oracle = HESTON["theta"] + (START[1] - HESTON["theta"]) * np.exp(-HESTON["kappa"])
    se = x2.std(ddof=1) / np.sqrt(x2.size)
    gap = abs(float(x2.mean()) - oracle)
    # the whole law, too: one-sample KS against the exact CIR marginal at its
    # 1 % critical value
    ks = exact_law_ks(ens, 1.0)
    ks_crit = 1.628 / np.sqrt(x2.size)
    announce(2, "cir-moment-oracle", gap <= 3.0 * se and ks <= ks_crit,
             f"mean={x2.mean():.6f}, oracle={oracle:.6f}, gap={gap:.2e} <= 3*SE={3*se:.2e}; "
             f"exact-law KS of x_2 at t=1: {ks:.5f} <= {ks_crit:.5f}")


def test_03_martingale_definition(model, start):
    grid = m.TimeGrid(0.0, 1.0, 2.0**-7)
    test_functions = [
        m.linear_function([0.0, 1.0]),
        m.radial_bump([0.0, 0.05], 1.0),
        m.boundary_bump([0.0], 0.6),
    ]
    probes = [constant_probe(), left_coordinate_probe(1)]
    # each generator compensates the same paths: one simulation each, at one seed
    worst = max(rep.max_abs_z for rep in m.martingale_test(
        model, model, test_functions, probes, start, grid, 100_000, 1043, n_intervals=4))
    broken = strip_generator_term(model, "drift")
    neg, = m.martingale_test(model, broken, test_functions[:1], probes, start, grid, 100_000,
                             1043, n_intervals=4)
    announce(3, "martingale-problem", worst <= 3.0 and neg.max_abs_z > 5.0,
             f"max|z| over 3 test functions={worst:.2f} <= 3; "
             f"drift-broken max|z|={neg.max_abs_z:.1f} > 5")


def test_04_ito_formula_residual(model, start):
    ladder = ito_residual_ladder(model, time_weighted_xd(1.0), start, 1.0,
                                   [2.0**-6, 2.0**-7, 2.0**-8], 20_000, 51)
    ratios = ladder["halving_ratios"]
    ok = all(1.4 <= r <= 2.6 for r in ratios)
    announce(4, "ito-formula-residual", ok,
             f"mean residuals={[f'{v:.2e}' for v in ladder['mean_abs_residuals']]}, "
             f"halving ratios={[f'{r:.2f}' for r in ratios]} within 2 +/- 30%")


def test_05_duality(model):
    bump = m.radial_bump([0.0, 0.04], 0.5)
    g = lambda x: bump.jet(0.0, x)[0]
    grid = m.Grid.build(dt=1 / 256, x_prime_extent=1.5, x_max=0.5, counts=[129, 129])
    # one solve and one simulation, scored at the start and, as the
    # wrong-start negative control, at a start shifted by (0, 0.05)
    pde_side = m.solve_two_grid(model, g, 0.5, grid)
    mc = m.discounted_mean(model, g, START, 0.5, 100_000, 2.0**-9, 1051)
    rep = pde_side.report(START, *mc)
    neg = pde_side.report(np.add(START, [0.0, 0.05]), *mc)
    announce(5, "pde-mc-duality", rep.passed and not neg.passed,
             f"gap={rep.gap:.2e} <= tol={rep.tolerance:.2e} "
             f"(pde={rep.pde_value:.5f}, mc={rep.mc_mean:.5f}); "
             f"wrong-start gap={neg.gap:.3f} exceeds tol")


def _mimic_lattice():
    times = tuple(np.arange(1, 17) / 16.0)
    e1 = np.linspace(-1.8, 1.8, 25)
    e2 = np.concatenate([[0.0], 0.6 * np.linspace(0.025, 1.0, 26) ** 1.2])
    return m.BinningSpec(times=times, edges=(e1, e2), min_count=20)


def test_06_mimicking_round_trip(model, start):
    grid = m.TimeGrid(0.0, 1.0, 2.0**-7)
    ens = m.simulate_ito_process(m.model_driver(model), np.array(START), grid, 100_000,
                                 1061, _mimic_lattice(), store_stride=8)
    mc = m.estimate_mimicking_coefficients(ens)
    built = m.build_mimicking_model(mc, max_masked_fraction=0.97)
    mimic = m.simulate_sde(built, start, grid, 100_000, 1062, store_stride=8)
    comp = m.compare_marginals(ens, mimic, [0.25, 0.5, 1.0], thresholds={"ks": 0.02})
    # reported, not asserted: x_2's KS distance from the exact CIR law
    exact = {name: [f"{exact_law_ks(e, t):.4f}" for t in (0.25, 0.5, 1.0)]
             for name, e in (("mimicked", mimic), ("driver", ens))}
    # beta = b(X) and xi xi* = x_d a(X) are affine in x, so every unmasked
    # cell's estimate is within the affine oracle's bound of its exact value
    oracle = max(affine_cell_error_ratio(mc, model.b, mc.b_hat),
                 affine_cell_error_ratio(mc, lambda t, x: x[:, -1, None, None] * model.a(t, x),
                                         mc.d_hat))
    announce(6, "mimicking-round-trip", comp.passed and oracle <= 1.0,
             f"per-coordinate KS at t in (0.25, 0.5, 1.0): max={comp.max_ks:.4f} <= 0.02; "
             f"masked fraction={mc.masked_fraction:.2f}; exact-law KS of x_2: "
             f"mimicked={exact['mimicked']}, driver={exact['driver']}; "
             f"b-hat and D-hat worst error/affine bound={oracle:.3f} <= 1")


def test_07_mimicking_regime_switching(model, start):
    driver = m.regime_switching_driver(model, hi_factor=1.5, switch_rate=2.0)
    grid = m.TimeGrid(0.0, 1.0, 2.0**-7)
    ens = m.simulate_ito_process(driver, np.array(START), grid, 100_000, 3071,
                                 _mimic_lattice(), store_stride=8)
    mc = m.estimate_mimicking_coefficients(ens)
    built = m.build_mimicking_model(mc, max_masked_fraction=0.97)
    mimic = m.simulate_sde(built, start, grid, 100_000, 3072, store_stride=8)

    # expectation gaps over the theorem's own class (smooth compact support)
    # plus the bias-free coordinate; the x_2 coordinate mean at this sample
    # size resolves lattice-regression bias and is reported, not asserted
    b1 = m.radial_bump([0.0, 0.05], 1.0)
    b2 = m.boundary_bump([0.0], 0.6)
    gs = [("x_1", lambda x: x[:, 0]),
          ("bump", lambda x: b1.jet(0.0, x)[0]),
          ("boundary_bump", lambda x: b2.jet(0.0, x)[0])]
    comp = m.compare_marginals(ens, mimic, [0.25, 0.5, 1.0], g_list=gs,
                               thresholds={"ks": 0.03})
    boot = same_law_ks_quantile(ens.states_at(1.0)[:20_000, 1],
                                  mimic.states_at(1.0)[:20_000, 1],
                                  n_boot=100, q=0.99, seed=37)
    # mixture-order sanity: estimated D sits between the regime extremes
    kt = 7
    occ = (~mc.mask[kt]) & (mc.occupancy[kt] > 200)
    centers = np.stack(np.meshgrid(*mc.spec.centers, indexing="ij"), axis=-1)
    pts = centers[occ]
    lo = pts[:, -1][:, None, None] * model.a(0.5, pts)
    dd = mc.d_hat[kt][occ]
    tol = 0.05 * np.abs(lo).max()
    order_ok = (np.linalg.eigvalsh(dd - lo).min() >= -tol
                and np.linalg.eigvalsh(2.25 * lo - dd).min() >= -tol)

    # the driver scales sigma only, so beta = b(X), affine in x: every
    # unmasked cell's b-hat is within the affine oracle's bound
    oracle = affine_cell_error_ratio(mc, model.b, mc.b_hat)
    # reported, not asserted: the paths the lattice drops at t = 1/4, 1/2 and 1
    outside = ", ".join(f"{mc.outside_fraction[kt]:.2%}" for kt in (3, 7, 15))

    worst_z = max(g["z"] for e in comp.entries for g in e["gaps"])
    announce(7, "mimicking-regime-switching",
             comp.passed and worst_z <= 3.0 and order_ok and oracle <= 1.0,
             f"max KS={comp.max_ks:.4f} <= 0.03 (same-law bootstrap q99 at n=2e4: {boot:.4f}); "
             f"max gap z={worst_z:.2f} <= 3 pooled SE; regime mixture order holds; "
             f"b-hat worst error/affine bound={oracle:.3f} <= 1; "
             f"paths outside the lattice at t in (0.25, 0.5, 1.0): {outside}")


def test_08_scheme_agreement(model, start):
    # common random numbers isolate the scheme difference; the marginal gap
    # must shrink with the step and be small at the finest step
    ks = {}
    for h in (2.0**-6, 2.0**-9):
        tg = m.TimeGrid(0.0, 1.0, h)
        ft = m.simulate_sde(model, start, tg, 100_000, 1081,
                            scheme="full_truncation", store_stride=tg.n_steps)
        ab = m.simulate_sde(model, start, tg, 100_000, 1081,
                            scheme="absorbed_euler", store_stride=tg.n_steps)
        ks[h] = [float(sp_stats.ks_2samp(ft.states[:, -1, j], ab.states[:, -1, j],
                                         method="asymp").statistic) for j in (0, 1)]
    coarse, fine = ks[2.0**-6], ks[2.0**-9]
    decreasing = all(fine[j] <= coarse[j] for j in (0, 1))
    announce(8, "uniqueness-in-law-evidence", decreasing and max(fine) <= 0.02,
             f"KS(h=2^-6)={[f'{v:.4f}' for v in coarse]} -> "
             f"KS(h=2^-9)={[f'{v:.4f}' for v in fine]} (decreasing, final <= 0.02)")


def test_09_strong_markov_restart(model, start):
    gs = [("x_1", lambda x: x[:, 0]), ("x_2", lambda x: x[:, 1])]
    common = dict(level=0.01, t_cap=0.5, u=0.25, g_list=gs, n_paths=10_000,
                  h=2.0**-7, seed=1091, min_bin=500, ks_threshold=0.05)
    rep = m.strong_markov_restart_test(model, start, **common)
    neg = m.strong_markov_restart_test(model, start, perturb=[0.0, 0.05], **common)
    announce(9, "strong-markov-restart",
             rep.passed and rep.n_hits >= 10_000 and not neg.passed,
             f"hits={rep.n_hits}, per-bin max KS={rep.max_ks:.4f} <= 0.05; "
             f"perturbed restart max KS={neg.max_ks:.3f} fails")


def test_10_pde_exactness_oracles(model):
    ones = lambda x: np.ones(x.shape[0])
    grid = m.Grid.build(dt=1 / 64, x_prime_extent=1.5, x_max=0.5, counts=[65, 65])
    const_err = 0.0
    for scheme in ("implicit_euler", "crank_nicolson"):
        sol = m.solve_cauchy(model, None, ones, grid, 0.5, scheme=scheme)
        const_err = max(const_err, float(np.abs(sol.values - 1.0).max()))

    const_model = m.CoefficientModel(
        d=2,
        a=lambda t, x: np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy(),
        b=lambda t, x: np.broadcast_to(np.array([0.3, 0.2]), x.shape).copy(),
        c=lambda t, x: np.zeros(x.shape[0]),
        budget=m.RegularityBudget(0.5, 10.0, 0.1, 0.5), knots=[0.0])
    sol = m.solve_cauchy(const_model, None, lambda x: x[:, 0], grid, 0.5)
    nodes = grid.nodes()
    inner = (np.abs(nodes[:, 0]) <= 0.75) & (nodes[:, 1] <= 0.25)
    affine_err = float(np.abs(sol.values.ravel() - (nodes[:, 0] + 0.15))[inner].max())

    # discrete maximum principle on 50 random bump data (box sized so the
    # extrapolation closure only sees negligible tails)
    mp_grid = m.Grid.build(dt=1 / 64, x_prime_extent=2.5, x_max=1.0, counts=[81, 97])
    gen = np.random.default_rng(10)
    mp_min, mp_max = 0.0, 1.0
    for _ in range(50):
        radius = gen.uniform(0.08, 0.15)
        center = np.array([gen.uniform(-0.6, 0.6), gen.uniform(0.1, 0.3)])
        bump = m.radial_bump(center, radius)
        g = lambda x: bump.jet(0.0, x)[0]
        solb = m.solve_cauchy(model, None, g, mp_grid, 0.25)
        mp_min = min(mp_min, solb.layer_min)
        mp_max = max(mp_max, solb.layer_max)
    max_principle = mp_min >= -1e-6 and mp_max <= 1.0 + 1e-6

    bump = m.radial_bump([0.0, 0.1], 0.35)
    g = lambda x: bump.jet(0.0, x)[0]
    ladder = {n: m.Grid.build(dt=dt, x_prime_extent=1.5, x_max=0.5, counts=[n, n])
              for n, dt in ((33, 1 / 64), (65, 1 / 128), (129, 1 / 256))}
    sols = {n: m.solve_cauchy(model, None, g, grd, 0.25) for n, grd in ladder.items()}
    d1 = float(np.abs(sols[65].values[::2, ::2] - sols[33].values).max())
    d2 = float(np.abs(sols[129].values[::4, ::4] - sols[65].values[::2, ::2]).max())
    order = float(np.log2(d1 / d2))

    # the same ladder scored against the exact law at START: reported, not asserted
    exact = []
    for u in ((2.0, 0.0), (2.0, 10.0)):
        cos_u = lambda x, u=u: np.cos(x @ np.asarray(u))
        errs = [m.solve_cauchy(model, None, cos_u, grd, 0.25).value_at(START)
                - heston_cf(u, 0.25, START).real for grd in ladder.values()]
        orders = [float(np.log2(e0 / e1)) for e0, e1 in zip(errs, errs[1:])]
        exact.append(f"u=({u[0]:g},{u[1]:g}): " + ", ".join(f"{e:.2e}" for e in errs)
                     + " (orders " + ", ".join(f"{o:.2f}" for o in orders) + ")")
    print("ACCEPTANCE 10 exact-law error of cos(u.x) at START on the ladder, not asserted: "
          + "; ".join(exact))

    ok = const_err <= 1e-8 and affine_err <= 1e-8 and max_principle and order >= 1.0
    announce(10, "pde-exactness-oracles", ok,
             f"const err={const_err:.1e}, affine err={affine_err:.1e} (<= 1e-8); "
             f"max principle over 50 bumps: [{mp_min:.1e}, {mp_max:.8f}]; "
             f"self-convergence order={order:.2f} >= 1")


def test_11_validator(model):
    rep = m.validate_coefficients(model, seed=1111)
    counter = m.CoefficientModel(
        d=2, a=model.a,
        b=lambda t, x: np.stack([0.02 - 0.5 * x[:, 1], -1.5 * x[:, 1]], axis=1),
        c=model.c, budget=model.budget, knots=[0.0])
    crep = m.validate_coefficients(counter, seed=1111)
    floor_clause = crep.condition("boundary_drift_floor")
    emp = rep.empirical
    announce(11, "coefficient-validator",
             rep.passed and not floor_clause.passed,
             f"heston passes; empirical (delta={emp['delta']:.4f}, K={emp['K']:.2f}, "
             f"nu={emp['nu']:.3f}, alpha={emp['alpha']}); "
             f"zero-boundary-drift model fails the floor clause "
             f"(observed {floor_clause.observed:.1e})")
