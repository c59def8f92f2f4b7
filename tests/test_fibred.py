"""Jet data over fibred pairs: affine functions, total derivatives, lifts."""

import re

import numpy as np
import numpy.testing as npt
import pytest

from algfield.algebroid import PForm, Section, lie_derivative, structure_residual_max
from algfield.fibred import (
    AffineDualSection,
    JetPoint,
    ProjectableSection,
    affine_eval,
    complete_lift,
    lie_derivative_affine_dual,
    total_derivative,
    z_functions,
)
from algfield.algebroid import flow_of_section
from algfield.smoothfields import trig_polynomial

from helpers import (
    EPS3,
    connection_pair,
    heavy_top_style_pair,
    random_jet_point,
    trivial_pair,
)


class TestPairAssembly:
    def test_trivial_pair_structure_residuals_zero(self):
        pair = trivial_pair(2, 2)
        total = pair.total_algebroid()
        assert structure_residual_max(total, [np.zeros(4), np.ones(4)]) < 1e-12

    def test_heavy_top_pair_structure_residuals_zero(self):
        pair = heavy_top_style_pair()
        total = pair.total_algebroid()
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(10, 4))
        assert structure_residual_max(total, pts) < 1e-9

    def test_connection_pair_structure_residuals_zero(self):
        rng = np.random.default_rng(9)
        pair = connection_pair(rng)
        total = pair.total_algebroid()
        pts = rng.uniform(-1, 1, size=(5, 4))
        assert structure_residual_max(total, pts) < 1e-7

    def test_mismatched_action_breaks_structure_equations(self):
        # rotation action paired with the +epsilon kernel constants violates
        # the anchor equation; the residual check must catch it
        from algfield.fibred import FibredAlgebroidPair

        bad = FibredAlgebroidPair(
            base_dim=1, fibre_dim=3, kernel_rank=3,
            rho_kernel_u=lambda x, u: -np.einsum("kAB,B->kA", EPS3, u),
            c_kernel=lambda x, u: EPS3,
        )
        total = bad.total_algebroid()
        assert structure_residual_max(total, [np.array([0.0, 0.3, -0.2, 0.5])]) > 0.1


class TestAffineEval:
    def test_coordinate_function(self):
        pair = trivial_pair(2, 2)
        theta = AffineDualSection(
            base_dim=2, kernel_rank=2,
            coeff_base=lambda x, u: np.zeros((2, 2)),
            coeff_kernel=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]),
        )
        p = JetPoint(x=np.zeros(2), u=np.zeros(2), y=np.array([[1.0, 2.0], [3.0, 4.0]]))
        # picks out y[alpha=1, a=0]
        assert affine_eval(theta, p) == pytest.approx(3.0)

    def test_trace_of_identity(self):
        pair = trivial_pair(3, 1)
        theta = AffineDualSection(
            base_dim=3, kernel_rank=1,
            coeff_base=lambda x, u: np.eye(3),
            coeff_kernel=lambda x, u: np.zeros((3, 1)),
        )
        p = JetPoint(x=np.zeros(3), u=np.zeros(1), y=np.zeros((1, 3)))
        assert affine_eval(theta, p) == pytest.approx(3.0)

    def test_matches_matrix_trace_oracle(self):
        rng = np.random.default_rng(21)
        r, mk = 3, 2
        t = rng.standard_normal((r, r))
        k = rng.standard_normal((r, mk))
        y = rng.standard_normal((mk, r))
        theta = AffineDualSection(base_dim=r, kernel_rank=mk,
                                  coeff_base=lambda x, u: t,
                                  coeff_kernel=lambda x, u: k)
        p = JetPoint(x=np.zeros(r), u=np.zeros(1), y=y)

        theta_mat = np.concatenate([t, k], axis=1)        # map E -> F
        phi_mat = np.concatenate([np.eye(r), y], axis=0)  # splitting F -> E
        expected = np.trace(theta_mat @ phi_mat)
        assert affine_eval(theta, p) == pytest.approx(expected, rel=1e-13)


class TestTotalDerivative:
    def test_base_function_coordinate_case(self):
        rng = np.random.default_rng(3)
        pair = trivial_pair(2, 2)
        f = trig_polynomial(rng, 2)
        p = random_jet_point(rng, pair)

        def fxu(x, u):
            return f(x)

        out = total_derivative(pair, fxu, p)
        npt.assert_allclose(out, f.gradient(p.x), atol=1e-8)

    def test_fibre_coordinate_reads_velocity(self):
        rng = np.random.default_rng(31)
        pair = heavy_top_style_pair()
        p = random_jet_point(rng, pair)
        for a_idx in range(3):
            out = total_derivative(pair, lambda x, u, j=a_idx: u[j], p)
            rho_k = pair.coefficient("rho_kernel_u", p.x, p.u)
            expected = (pair.coefficient("rho_base_u", p.x, p.u)[:, a_idx]
                        + np.einsum("k,ka->a", rho_k[:, a_idx], p.y))
            npt.assert_allclose(out, expected, atol=1e-8)

    def test_heavy_top_contraction_oracle(self):
        rng = np.random.default_rng(33)
        pair = heavy_top_style_pair()
        p = random_jet_point(rng, pair)
        out = total_derivative(pair, lambda x, u: u[0], p, a=0)
        # d u^1 / dt along the jet: -eps[k, 0, B] u^B y^k
        expected = float(-np.einsum("kB,B,k->", EPS3[:, 0, :], p.u, p.y[:, 0]))
        assert out == pytest.approx(expected, abs=1e-8)

    def test_analytic_gradients_match_fd(self):
        rng = np.random.default_rng(35)
        pair = connection_pair(rng)
        p = random_jet_point(rng, pair)

        def f(x, u):
            return np.sin(x[0]) * u[1] + x[1] * u[0] ** 2

        fd = total_derivative(pair, f, p)
        an = total_derivative(
            pair, f, p,
            grad_x=lambda x, u: np.array([np.cos(x[0]) * u[1], u[0] ** 2]),
            grad_u=lambda x, u: np.array([2 * x[1] * u[0], np.sin(x[0])]),
        )
        npt.assert_allclose(fd, an, atol=1e-8)


class TestZFunctions:
    def test_zero_jet_gives_plain_coefficients(self):
        rng = np.random.default_rng(41)
        pair = connection_pair(rng)
        x = rng.uniform(-1, 1, size=2)
        u = rng.uniform(-1, 1, size=2)
        p = JetPoint(x=x, u=u, y=np.zeros((2, 2)))
        z_mixed, z_base = z_functions(pair, p)
        cm = pair.coefficient("c_mixed", x, u)
        cbk = pair.coefficient("c_base_kernel", x, u)
        npt.assert_array_equal(z_mixed, np.einsum("agk->kag", cm))
        npt.assert_array_equal(z_base, np.einsum("ack->kac", cbk))

    def test_flat_mixed_block_reduces_to_kernel_contraction(self):
        rng = np.random.default_rng(43)
        pair = heavy_top_style_pair()
        p = random_jet_point(rng, pair)
        z_mixed, _ = z_functions(pair, p)
        expected = np.einsum("bgk,ba->kag", -EPS3, p.y)
        npt.assert_allclose(z_mixed, expected, atol=1e-14)

    def test_z_matches_lie_derivative_affine_oracle(self):
        # Z as the affine function of the derived coframe: the kernel
        # coefficient of d_{e}(e^alpha) tensored with a base direction
        rng = np.random.default_rng(45)
        pair = connection_pair(rng)
        p = random_jet_point(rng, pair)
        r, mk = pair.base_dim, pair.kernel_rank
        total = pair.total_algebroid()
        z = np.concatenate([p.x, p.u])
        z_mixed, z_base = z_functions(pair, p)

        for alpha in range(mk):
            omega = PForm.basis_covector(r + mk, r + alpha)
            for gamma in range(mk):
                e_gamma = np.zeros(r + mk)
                e_gamma[r + gamma] = 1.0
                w = lie_derivative(total, Section.constant(e_gamma), omega, z)
                for a in range(r):
                    val = w[a] + float(w[r:] @ p.y[:, a])
                    assert val == pytest.approx(z_mixed[alpha, a, gamma], abs=1e-8)
            for c in range(r):
                e_c = np.zeros(r + mk)
                e_c[c] = 1.0
                w = lie_derivative(total, Section.constant(e_c), omega, z)
                for a in range(r):
                    val = w[a] + float(w[r:] @ p.y[:, a])
                    assert val == pytest.approx(z_base[alpha, a, c], abs=1e-8)


class TestCompleteLift:
    def test_zero_section(self):
        rng = np.random.default_rng(51)
        pair = connection_pair(rng)
        p = random_jet_point(rng, pair)
        sigma = ProjectableSection(base_coeffs=lambda x: np.zeros(2),
                                   vertical_coeffs=lambda x, u: np.zeros(2))
        dx, du, dy = complete_lift(pair, sigma, p)
        npt.assert_allclose(dx, 0.0, atol=1e-14)
        npt.assert_allclose(du, 0.0, atol=1e-14)
        npt.assert_allclose(dy, 0.0, atol=1e-12)

    @pytest.mark.parametrize("name, wrong", [
        ("d_vertical_x", (2, 1)), ("d_vertical_u", (2, 1)), ("d_base", (2, 1)),
        ("base_coeffs", (1,)), ("vertical_coeffs", (2, 1)),
        ("coeff_base", (2, 1)), ("coeff_kernel", (1, 2))])
    def test_wrongly_shaped_section_data_raises(self, name, wrong):
        # a (2, 1) d_vertical_x would broadcast in the lift's einsum and move
        # dy silently; every section reader checks its shape, and so do the
        # readers of an affine-dual section
        rng = np.random.default_rng(51)
        pair = connection_pair(rng)
        p = random_jet_point(rng, pair)
        fields = dict(base_coeffs=lambda x: np.array([x[0], 0.5]),
                      vertical_coeffs=lambda x, u: np.array([x[1], u[0]]),
                      d_base=lambda x: np.array([[1.0, 0.0], [0.0, 0.0]]),
                      d_vertical_x=lambda x, u: np.array([[0.0, 1.0], [0.0, 0.0]]),
                      d_vertical_u=lambda x, u: np.array([[0.0, 0.0], [1.0, 0.0]]))
        correct = complete_lift(pair, ProjectableSection(**fields), p)
        fallback = complete_lift(pair, ProjectableSection(
            base_coeffs=fields["base_coeffs"], vertical_coeffs=fields["vertical_coeffs"]), p)
        for a, b in zip(correct, fallback):
            npt.assert_allclose(a, b, atol=1e-8)
        bad = lambda *args: np.ones(wrong)
        if name.startswith("coeff_"):
            coeffs = {"coeff_base": lambda x, u: np.eye(2),
                      "coeff_kernel": lambda x, u: np.ones((2, 2)), name: bad}
            call = lambda: affine_eval(AffineDualSection(2, 2, **coeffs), p)
        else:
            call = lambda: complete_lift(pair, ProjectableSection(**{**fields, name: bad}), p)
        with pytest.raises(ValueError, match=f"^{name} returned shape {re.escape(str(wrong))}"):
            call()

    def test_vertical_constant_on_abelian_kernel(self):
        rng = np.random.default_rng(53)
        pair = trivial_pair(2, 3)
        p = random_jet_point(rng, pair)
        sigma = ProjectableSection.vertical_constant([1.0, -2.0, 0.5])
        dx, du, dy = complete_lift(pair, sigma, p)
        npt.assert_allclose(dx, 0.0, atol=1e-14)
        npt.assert_allclose(du, [1.0, -2.0, 0.5], atol=1e-14)
        npt.assert_allclose(dy, 0.0, atol=1e-14)

    def test_linearity_in_section(self):
        rng = np.random.default_rng(55)
        pair = connection_pair(rng)
        p = random_jet_point(rng, pair)

        def make(seed):
            r = np.random.default_rng(seed)
            f = trig_polynomial(r, 2)
            g = trig_polynomial(r, 2)
            return ProjectableSection(
                base_coeffs=lambda x: np.array([f(x), g(x)]),
                vertical_coeffs=lambda x, u: np.array([f(x) * u[0], g(x) + u[1]]),
            )

        s1, s2 = make(1), make(2)
        lam = 0.7
        combo = ProjectableSection(
            base_coeffs=lambda x: s1.base_at(x, 2) + lam * s2.base_at(x, 2),
            vertical_coeffs=lambda x, u: (s1.vertical_points(x, u, 2)
                                          + lam * s2.vertical_points(x, u, 2)),
        )
        out1 = complete_lift(pair, s1, p)
        out2 = complete_lift(pair, s2, p)
        outc = complete_lift(pair, combo, p)
        for a, b, c in zip(out1, out2, outc):
            npt.assert_allclose(c, a + lam * b, atol=1e-7)

    def test_vertical_lift_matches_jet_flow_oracle(self):
        # finite difference of the prolonged flow: push the splitting
        # through the total-algebroid flow of the vertical section and
        # difference the resulting jet coordinates in the flow parameter
        rng = np.random.default_rng(57)
        pair = heavy_top_style_pair()
        p = random_jet_point(rng, pair)
        r, mk = 1, 3

        f = trig_polynomial(rng, 3)
        sigma = ProjectableSection(
            vertical_coeffs=lambda x, u: np.array([np.sin(u[0]), u[1] * u[2], f(u)]),
        )
        total = pair.total_algebroid()
        sig_total = Section(coeffs=lambda z: np.concatenate(
            [np.zeros(r), sigma.vertical_points(z[:r], z[r:], mk)]))

        def jet_after_flow(s):
            z0 = np.concatenate([p.x, p.u])
            zs, m = flow_of_section(total, sig_total, s, z0, steps=40)
            phi = np.concatenate([np.eye(r), p.y], axis=0)
            w = m @ phi
            base_block = w[:r, :]
            npt.assert_allclose(base_block, np.eye(r), atol=1e-10)
            return zs[r:], w[r:, :]

        s = 1e-3
        u_p, y_p = jet_after_flow(s)
        u_m, y_m = jet_after_flow(-s)
        du_fd = (u_p - u_m) / (2 * s)
        dy_fd = (y_p - y_m) / (2 * s)

        dx, du, dy = complete_lift(pair, sigma, p)
        npt.assert_allclose(dx, 0.0, atol=1e-14)
        npt.assert_allclose(du_fd, du, atol=1e-5)
        npt.assert_allclose(dy_fd, dy, atol=1e-5)

    @pytest.mark.parametrize("vertical", [True, False])
    def test_affine_duality_of_lift_and_derivative(self, vertical):
        # the derivative of an affine function along the lift equals the
        # affine function of the Lie-derived dual section
        rng = np.random.default_rng(61)
        pair = connection_pair(rng)
        p = random_jet_point(rng, pair)

        tb = trig_polynomial(rng, 2)
        tk = trig_polynomial(rng, 2)
        theta = AffineDualSection(
            base_dim=2, kernel_rank=2,
            coeff_base=lambda x, u: np.array([[tb(x), u[0]], [x[1] * u[1], 1.0]]),
            coeff_kernel=lambda x, u: np.array([[tk(x), u[1] ** 2], [0.3, x[0]]]),
        )
        if vertical:
            sigma = ProjectableSection(
                vertical_coeffs=lambda x, u: np.array([np.cos(x[0]) + u[1], u[0]]))
        else:
            sigma = ProjectableSection(
                base_coeffs=lambda x: np.array([np.sin(x[1]), 0.5 * x[0]]),
                vertical_coeffs=lambda x, u: np.array([np.cos(x[0]) + u[1], u[0]]))

        dx, du, dy = complete_lift(pair, sigma, p)

        t = 1e-5
        def theta_hat(xx, uu, yy):
            return affine_eval(theta, JetPoint(x=xx, u=uu, y=yy))

        fd = (theta_hat(p.x + t * dx, p.u + t * du, p.y + t * dy)
              - theta_hat(p.x - t * dx, p.u - t * du, p.y - t * dy)) / (2 * t)

        derived = lie_derivative_affine_dual(pair, sigma, theta)
        exact = affine_eval(derived, p)
        assert fd == pytest.approx(exact, abs=2e-6)
