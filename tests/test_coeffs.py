import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import mimicsde as m
from mimicsde import geometry
from mimicsde.coeffs import strip_generator_term

from conftest import (HESTON, constant_model, generator_apply_batch, heston_cf, kinked_model,
                      record_holder_pair_distances)


def _generate(model, t, x, grad, hess) -> float:
    """The generator at one point: ``generator_apply_batch`` on a single row."""
    rows = [np.asarray(v, dtype=float)[None] for v in (x, grad, hess)]
    return float(generator_apply_batch(model, t, *rows)[0])


class TestGenerator:
    def test_zero_derivatives(self, heston):
        out = _generate(heston, 0.2, (0.5, 1.0), np.zeros(2), np.zeros((2, 2)))
        assert out == 0.0

    def test_hand_value_d1(self):
        # (1/2) * x_d * a * H = 0.5 * 3 * 2 * 1 = 3 with zero drift
        model = constant_model([0.0], a_mat=[[2.0]], d=1)
        out = _generate(model, 0.0, (3.0,), np.zeros(1), np.ones((1, 1)))
        assert out == pytest.approx(3.0)

    def test_boundary_returns_drift_floor(self, heston):
        # at x_d = 0 with grad = e_d the generator is b_d(t, x', 0) = kappa*theta
        h = np.array([[3.0, 1.0], [1.0, -2.0]])
        out = _generate(heston, 0.5, (0.7, 0.0), np.array([0.0, 1.0]), h)
        assert out == pytest.approx(1.5 * 0.04)
        assert out >= heston.budget.nu

    def test_boundary_independent_of_hessian(self, heston):
        x = (0.3, 0.0)
        g = np.array([0.4, -0.2])
        h1 = np.array([[5.0, 2.0], [2.0, 7.0]])
        a1 = _generate(heston, 0.1, x, g, h1)
        a2 = _generate(heston, 0.1, x, g, np.zeros((2, 2)))
        assert a1 == a2

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.01, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, alpha, beta, xd):
        model = m.heston_model(1.5, 0.04, 0.3, -0.5)
        x = (0.5, xd)
        gen = np.random.default_rng(int(xd * 1000))
        g1, g2 = gen.standard_normal((2, 2))
        h1 = gen.standard_normal((2, 2))
        h1 = h1 + h1.T
        h2 = gen.standard_normal((2, 2))
        h2 = h2 + h2.T
        lhs = _generate(model, 0.3, x, alpha * g1 + beta * g2, alpha * h1 + beta * h2)
        rhs = (alpha * _generate(model, 0.3, x, g1, h1)
               + beta * _generate(model, 0.3, x, g2, h2))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestVarsigma:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bitwise_equal_to_lapack_cholesky(self, d):
        gen = np.random.default_rng(d)
        scale = np.exp(3.0 * gen.standard_normal((20_000, 1, 1)))
        f = gen.standard_normal((20_000, d, d)) * scale
        a = f @ np.swapaxes(f, -1, -2) + 1e-2 * scale**2 * np.eye(d)
        a[::3, -1, 0] *= 1.0 + 1e-12  # slightly asymmetric rows: the lower triangle is read
        model = m.CoefficientModel(d=d, a=lambda t, x: a, b=None, c=None,
                                   budget=m.RegularityBudget(1e-9, 1.0, 1e-9, 0.5))
        root = model.varsigma(0.0, np.zeros((a.shape[0], d)))
        assert np.array_equal(root.view(np.uint64), np.linalg.cholesky(a).view(np.uint64))

    @given(st.sampled_from([2, 3]),
           st.lists(st.tuples(st.sampled_from([-2.0, -1.0, -0.3, 0.0, 0.7, 1.0, 1.5])
                              | st.floats(-2.0, 2.0),
                              st.floats(0.0, 3.0)), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_rows_independent_of_batch(self, d, rows):
        # a is singular where |x_1| >= 1: those rows take the eigh root and
        # must not drag the positive-definite rows of the batch along
        model = kinked_model(d)
        x = np.array([[x1] + [0.2] * (d - 2) + [xd] for x1, xd in rows])
        batch = model.varsigma(0.0, x)
        for i in range(x.shape[0]):
            alone = model.varsigma(0.0, x[i:i + 1])[0]
            assert np.array_equal(batch[i].view(np.uint64), alone.view(np.uint64))
            assert np.abs(batch[i] @ batch[i].T - model.a(0.0, x[i:i + 1])[0]).max() <= 1e-12

    @pytest.mark.parametrize("case", ["heston", "constant-d3", "zero", "rank-one"])
    def test_broadcast_root_equals_materialised(self, heston, monkeypatch, case):
        # a constant a returned as one matrix broadcast over the batch is
        # factored once; a matrix that is not positive definite takes the
        # per-row path, eigh roots included, as its materialised copy does
        if case == "heston":
            model = heston
        else:
            mat = {"constant-d3": [[2.0, 0.3, -0.1], [0.3, 1.0, 0.2], [-0.1, 0.2, 0.5]],
                   "zero": np.zeros((2, 2)), "rank-one": [[1.0, 1.0], [1.0, 1.0]]}[case]
            mat = np.asarray(mat, dtype=float)
            model = m.CoefficientModel(
                d=mat.shape[0], a=lambda t, x: np.broadcast_to(mat, (len(x),) + mat.shape),
                b=None, c=None, budget=m.RegularityBudget(1e-9, 1.0, 1e-9, 0.5))
        copy = dataclasses.replace(model, a=lambda t, x: np.array(model.a(t, x)))
        x = np.random.default_rng(4).uniform(0.0, 1.0, (50, model.d))
        assert model.a(0.2, x).strides[0] == 0 and copy.a(0.2, x).strides[0] != 0
        eigh_rows = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda av: eigh_rows.append(len(av)) or eigh(av))
        root = model.varsigma(0.2, x)
        factored_once = case in ("heston", "constant-d3")
        assert (root.strides[0] == 0) == factored_once
        assert eigh_rows == ([] if factored_once else [50])
        want = copy.varsigma(0.2, x)
        assert np.array_equal(root.view(np.uint64), want.view(np.uint64))

    def test_diffusion_stripped_root_is_zero(self, heston):
        broken = strip_generator_term(heston, "diffusion")
        x = np.random.default_rng(6).uniform(0.0, 1.0, (20, 2))
        assert np.all(broken.varsigma(0.5, x) == 0.0)
        assert np.all(broken.sigma(0.5, x) == 0.0)

    def test_constant_a_cannot_be_overwritten(self, heston):
        # the broadcast view shares the model's one matrix: a write must raise
        x = np.zeros((3, 2))
        with pytest.raises(ValueError, match="read-only"):
            heston.a(0.0, x)[1, 0, 1] = 5.0
        assert np.array_equal(heston.a(0.0, x)[1], [[1.0, -0.15], [-0.15, 0.09]])

    def test_negative_eigenvalue_rejected(self):
        a = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]])
        model = m.CoefficientModel(d=2, a=lambda t, x: a, b=None, c=None,
                                   budget=m.RegularityBudget(1e-9, 1.0, 1e-9, 0.5))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            model.varsigma(0.0, np.zeros((2, 2)))


class TestHeston:
    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            m.heston_model(0.0, 0.04, 0.3, -0.5)
        with pytest.raises(ValueError):
            m.heston_model(1.5, 0.04, 0.0, -0.5)
        with pytest.raises(ValueError):
            m.heston_model(1.5, 0.04, 0.3, 1.0)
        with pytest.raises(ValueError):
            m.heston_model(1.5, 0.04, 0.3, -0.5, r=-0.1)

    def test_boundary_drift_positive(self, heston):
        x = np.array([[3.0, 0.0], [-1.0, 0.0]])
        b = heston.b(0.7, x)
        assert np.allclose(b[:, 1], 1.5 * 0.04)

    def test_sigma_squares_to_xd_a(self, heston):
        x = np.array([[0.2, 0.5], [0.0, 1.3], [1.0, 0.0]])
        sig = heston.sigma(0.0, x)
        target = x[:, -1][:, None, None] * heston.a(0.0, x)
        assert np.allclose(np.einsum("nik,njk->nij", sig, sig), target, atol=1e-14)

    def test_a_matrix_value(self, heston):
        a = heston.a(0.0, np.array([[0.0, 1.0]]))[0]
        assert np.allclose(a, [[1.0, -0.15], [-0.15, 0.09]])
        assert np.linalg.eigvalsh(a)[0] == pytest.approx(0.0659, abs=2e-4)

    def test_killing_flag(self, heston, heston_killing):
        x = np.array([[0.0, 0.5]])
        assert heston.c(0.0, x)[0] == 0.0
        assert heston_killing.c(0.0, x)[0] == -0.02

    @pytest.mark.parametrize("t", [0.25, 0.5])
    @pytest.mark.parametrize("u", [(2.0, 0.0), (0.0, 20.0), (2.0, 10.0)])
    def test_closed_form_cf_solves_its_riccati_equation(self, u, t):
        kappa, theta, zeta, rho, r, q = HESTON.values()
        phi, x0 = 1j * u[0], (0.1, 0.09)

        def rhs(_, y):
            b = y[2] + 1j * y[3]
            db = 0.5 * (phi * phi - phi) + (rho * zeta * phi - kappa) * b + 0.5 * zeta**2 * b * b
            da = (r - q) * phi + kappa * theta * b
            return [da.real, da.imag, db.real, db.imag]

        sol = solve_ivp(rhs, (0.0, t), [0.0, 0.0, 0.0, u[1]], method="DOP853",
                        rtol=1e-12, atol=1e-14)
        assert sol.success
        a, b = complex(*sol.y[:2, -1]), complex(*sol.y[2:, -1])
        np.testing.assert_allclose(heston_cf(u, t, x0), np.exp(a + phi * x0[0] + b * x0[1]),
                                   rtol=1e-12)


class TestValidator:
    def test_heston_passes_with_default_budget(self, heston):
        rep = m.validate_coefficients(heston, seed=5)
        assert rep.passed
        assert rep.condition("boundary_drift_floor").observed == pytest.approx(0.06, abs=1e-9)
        assert rep.condition("near_boundary_ellipticity").observed == pytest.approx(0.0659, abs=2e-4)

    def test_self_reported_budget_passes(self, heston):
        rep = m.validate_coefficients(heston, seed=5)
        emp = rep.empirical
        tightened = m.RegularityBudget(delta=emp["delta"] * 0.95, K=emp["K"] * 1.05,
                                       nu=emp["nu"] * 0.95, alpha=emp["alpha"])
        assert m.validate_coefficients(dataclasses.replace(heston, budget=tightened), seed=6).passed

    def test_zero_boundary_drift_fails_floor_clause(self, heston):
        counter = m.CoefficientModel(
            d=2, a=heston.a,
            b=lambda t, x: np.stack([0.02 - 0.5 * x[:, 1], -1.5 * x[:, 1]], axis=1),
            c=heston.c, budget=heston.budget, knots=[0.0])
        rep = m.validate_coefficients(counter, seed=5)
        clause = rep.condition("boundary_drift_floor")
        assert not clause.passed
        assert clause.observed <= 0.0
        assert clause.witness is not None
        assert not rep.passed

    def test_witnesses_recorded(self, heston):
        rep = m.validate_coefficients(heston, seed=5, n_samples=512, pair_budget=512)
        for clause in rep.conditions:
            assert clause.witness is None or "t" in clause.witness or "p1" in clause.witness

    def test_extra_alphas_reported(self, heston):
        rep = m.validate_coefficients(heston, seed=5, n_samples=512, pair_budget=512,
                                      alphas=[0.3, 0.7])
        details = rep.condition("near_boundary_holder_cycloidal").details
        assert set(details["reported_alphas"]) == {"alpha=0.3", "alpha=0.7"}

    @pytest.mark.parametrize("seed, clause", [(12, "near_boundary_holder_cycloidal"),
                                              (10, "interior_holder_parabolic")],
                             ids=["near", "interior"])
    def test_holder_clause_without_a_scored_pair_raises(self, heston, monkeypatch, seed, clause):
        # the one sampled pair of ``clause`` lies beyond distance 1, and any
        # clause before it scored its pair, so ``clause`` would score no pair
        # and pass with observed 0.0 and no witness
        distances = record_holder_pair_distances(monkeypatch)
        with pytest.raises(ValueError, match=f"{clause}: no admissible pair among pair_budget=1"):
            m.validate_coefficients(heston, n_samples=8, pair_budget=1, seed=seed)
        assert [d.shape for d in distances] == [(1,)] * (1 if clause.startswith("near") else 2)
        assert distances[-1][0] > 1.0 and all(d[0] <= 1.0 for d in distances[:-1])

    @pytest.mark.parametrize("pair_budget, alphas, calls", [(1024, None, 2), (5000, [0.3], 4)])
    def test_holder_clause_draws_its_pairs_once(self, heston, monkeypatch, pair_budget, alphas,
                                                calls):
        # one draw per clause and batch of pairs, whatever the number of
        # coefficient entries (6 at d = 2) and exponents
        drawn = []
        real = geometry._sample_pair_batch

        def counted(*args):
            drawn.append(args)
            return real(*args)

        monkeypatch.setattr(geometry, "_sample_pair_batch", counted)
        m.validate_coefficients(heston, seed=5, n_samples=256, pair_budget=pair_budget,
                                alphas=alphas)
        assert len(drawn) == calls

    def test_json_round_trip(self, heston):
        import json

        rep = m.validate_coefficients(heston, seed=5, n_samples=256, pair_budget=256)
        blob = json.loads(json.dumps(rep.to_json()))
        assert blob["passed"] is True
        assert len(blob["clauses"]) == 8


class TestModelSurgery:
    def test_strip_drift(self, heston):
        broken = strip_generator_term(heston, "drift")
        x = np.array([[0.3, 0.5]])
        assert np.all(broken.b(0.0, x) == 0.0)
        assert np.array_equal(broken.a(0.0, x), heston.a(0.0, x))

    def test_strip_diffusion(self, heston):
        broken = strip_generator_term(heston, "diffusion")
        x = np.array([[0.3, 0.5]])
        assert np.all(broken.a(0.0, x) == 0.0)

    def test_unknown_part(self, heston):
        with pytest.raises(ValueError):
            strip_generator_term(heston, "both")


def test_generator_batch_matches_pointwise(heston):
    # oracle: (1/2) x_d^+ sum_ij a_ij H_ij + sum_i b_i g_i, row by row in plain
    # Python from the model's own a and b; x_d takes both signs and 0
    gen = np.random.default_rng(0)
    x = gen.standard_normal((16, 2))
    x[0, 1] = 0.0
    grads = gen.standard_normal((16, 2))
    hesss = gen.standard_normal((16, 2, 2))
    hesss = hesss + np.swapaxes(hesss, 1, 2)
    batch = generator_apply_batch(heston, 0.4, x, grads, hesss)
    assert (x[:, 1] < 0).any() and (x[:, 1] > 0).any()
    for i in range(16):
        a = heston.a(0.4, x[i:i + 1])[0]
        b = heston.b(0.4, x[i:i + 1])[0]
        second = sum(a[j, k] * hesss[i, j, k] for j in range(2) for k in range(2))
        first = sum(b[j] * grads[i, j] for j in range(2))
        expected = 0.5 * max(x[i, 1], 0.0) * second + first
        assert batch[i] == pytest.approx(expected, rel=1e-12, abs=1e-14)
