"""Single-chart algebroid calculus: anchor, bracket, differential, flows."""

import itertools
import math
import re

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

from algfield.algebroid import (
    FlowBlowupError,
    LieAlgebroid,
    PForm,
    Section,
    anchor_apply,
    antisymmetrize,
    bracket,
    exterior_differential,
    flow_morphism_defect,
    flow_of_section,
    flow_pullback_form,
    lie_derivative,
    sample_points,
    stacked,
    structure_equation_residuals,
    structure_residual_max,
)
from algfield.smoothfields import trig_polynomial

from helpers import (
    EPS3,
    broken_so3_algebroid,
    flow_reference,
    frame_algebroid,
    random_one_form,
    random_section,
    random_zero_form,
    so3_algebroid,
)


class TestAnchorApply:
    def test_identity_anchor_returns_input(self):
        model = LieAlgebroid.standard_tangent(3)
        a = np.array([0.3, -1.2, 2.0])
        npt.assert_array_equal(anchor_apply(model, np.zeros(3), a), a)

    def test_zero_anchor_returns_zero(self):
        model = so3_algebroid()
        out = anchor_apply(model, np.zeros(1), np.array([1.0, 2.0, 3.0]))
        npt.assert_array_equal(out, np.zeros(1))

    def test_dimension_mismatch_rejected(self):
        model = LieAlgebroid.standard_tangent(2)
        with pytest.raises(ValueError):
            anchor_apply(model, np.zeros(2), np.ones(3))


class TestBracket:
    def test_bracket_with_itself_vanishes(self):
        rng = np.random.default_rng(7)
        model = frame_algebroid(rng)
        sigma = random_section(rng, model)
        x = np.array([0.4, -0.2])
        npt.assert_allclose(bracket(model, sigma, sigma, x), 0.0, atol=1e-14)

    def test_so3_frame_bracket(self):
        model = so3_algebroid()
        e1 = Section.constant([1.0, 0.0, 0.0])
        e2 = Section.constant([0.0, 1.0, 0.0])
        out = bracket(model, e1, e2, np.zeros(1))
        npt.assert_allclose(out, [0.0, 0.0, 1.0], atol=1e-15)

    def test_antisymmetry(self):
        rng = np.random.default_rng(11)
        model = frame_algebroid(rng)
        sigma = random_section(rng, model)
        eta = random_section(rng, model)
        x = np.array([0.9, 0.1])
        lhs = bracket(model, sigma, eta, x)
        rhs = bracket(model, eta, sigma, x)
        npt.assert_allclose(lhs + rhs, 0.0, atol=1e-14)

    def test_leibniz_rule(self):
        # [sigma, f eta] - f [sigma, eta] - (rho(sigma) f) eta = 0
        rng = np.random.default_rng(13)
        model = frame_algebroid(rng)
        sigma = random_section(rng, model)
        eta = random_section(rng, model)
        f = trig_polynomial(rng, 2)
        x = np.array([0.25, -0.6])

        f_eta = Section(coeffs=lambda z: f(z) * eta.at(z, model.rank))
        lhs = bracket(model, sigma, f_eta, x)
        rho_sigma_f = float(anchor_apply(model, x, sigma.at(x, model.rank)) @ f.gradient(x))
        rhs = f(x) * bracket(model, sigma, eta, x) + rho_sigma_f * eta.at(x, model.rank)
        npt.assert_allclose(lhs, rhs, atol=1e-8)

    def test_wrongly_shaped_section_derivative_raises(self):
        # a (2, 1) derivative would broadcast against the (2, 2) Jacobian
        model = LieAlgebroid.standard_tangent(2)
        x = np.array([0.3, 0.5])
        eta = Section(coeffs=lambda z: np.array([z[0] * z[1], 1.0]))

        def sigma(derivative):
            return Section(coeffs=lambda z: np.array([z[1], 0.0]), derivative=derivative)

        wrong = sigma(lambda z: np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError, match=r"^derivative returned shape \(2, 1\) at x = "
                                             r"\[0\.3 0\.5\], expected \(2, 2\)$"):
            bracket(model, wrong, eta, x)
        right = bracket(model, sigma(lambda z: np.array([[0.0, 1.0], [0.0, 0.0]])), eta, x)
        npt.assert_allclose(right, bracket(model, sigma(None), eta, x), atol=1e-10)
        # coefficients are checked against the rank too, in the bracket and the flow
        short = Section(coeffs=lambda z: np.array([z[1]]))
        message = r"^coeffs returned shape \(1,\) at x = \[0\.3 0\.5\], expected \(2,\)$"
        with pytest.raises(ValueError, match=message):
            bracket(model, short, eta, x)
        with pytest.raises(ValueError, match=message):
            flow_of_section(model, short, 0.1, x)

    def test_anchor_is_bracket_homomorphism(self):
        # rho([sigma, eta]) equals the commutator of the anchored fields,
        # checked by finite differences on a valid algebroid.
        rng = np.random.default_rng(17)
        model = frame_algebroid(rng)
        sigma = random_section(rng, model)
        eta = random_section(rng, model)
        x = np.array([0.3, 0.7])
        h = 1e-5

        def push(sec, z):
            return anchor_apply(model, z, sec.at(z, model.rank))

        lhs = anchor_apply(model, x, bracket(model, sigma, eta, x))
        comm = np.zeros(2)
        for j in range(2):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            dv_eta = (push(eta, xp) - push(eta, xm)) / (2 * h)
            dv_sig = (push(sigma, xp) - push(sigma, xm)) / (2 * h)
            comm += push(sigma, x)[j] * dv_eta - push(eta, x)[j] * dv_sig
        npt.assert_allclose(lhs, comm, atol=1e-8)


class TestExteriorDifferential:
    def test_coordinate_function_on_tangent_algebroid(self):
        model = LieAlgebroid.standard_tangent(2)
        f = PForm.function(lambda x: x[0], derivative=lambda x: np.array([1.0, 0.0]))
        npt.assert_allclose(exterior_differential(model, f, np.array([0.3, 0.4])),
                            [1.0, 0.0], atol=1e-12)

    def test_wrongly_shaped_form_derivative_raises(self):
        # a (1,) derivative of a 0-form would broadcast against the anchor
        model = LieAlgebroid.standard_tangent(2)
        x = np.array([0.3, 0.5])
        wrong = PForm.function(lambda z: z[0] * z[1], derivative=lambda z: np.array([z[1]]))
        with pytest.raises(ValueError, match=r"^derivative returned shape \(1,\) at x = "
                                             r"\[0\.3 0\.5\], expected \(2,\)$"):
            exterior_differential(model, wrong, x)
        right = PForm.function(lambda z: z[0] * z[1], derivative=lambda z: z[::-1].copy())
        npt.assert_allclose(exterior_differential(model, right, x), [0.5, 0.3], atol=1e-15)
        # and the coefficients of a 1-form against the rank
        wide = PForm(degree=1, coeffs=lambda z: np.array([z[0], z[1], 1.0]),
                     derivative=lambda z: np.eye(2))
        with pytest.raises(ValueError, match=r"^coeffs returned shape \(3,\) at x = "
                                             r"\[0\.3 0\.5\], expected \(2,\)$"):
            exterior_differential(model, wide, x)

    def test_so3_coframe_differential(self):
        # d e^1 = -e^2 ^ e^3: coefficient array entries (1,2) = -1, (2,1) = +1
        model = so3_algebroid()
        e1 = PForm.basis_covector(3, 0)
        out = exterior_differential(model, e1, np.zeros(1))
        expected = np.zeros((3, 3))
        expected[1, 2] = -1.0
        expected[2, 1] = 1.0
        npt.assert_allclose(out, expected, atol=1e-15)

    def test_coordinate_differential_reads_anchor_row(self):
        # (d x^i)_alpha = rho_alpha^i on any model
        rng = np.random.default_rng(19)
        model = frame_algebroid(rng)
        x = np.array([0.2, -0.7])
        for i in range(2):
            f = PForm.function(lambda z, i=i: z[i])
            df = exterior_differential(model, f, x)
            npt.assert_allclose(df, model.anchor_at(x)[:, i], atol=1e-10)

    def test_degree_overflow_rejected(self):
        model = LieAlgebroid.standard_tangent(2)
        top = PForm.constant(2, np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            exterior_differential(model, top, np.zeros(2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_d_squared_zero_form(self, seed):
        rng = np.random.default_rng(seed)
        model = frame_algebroid(rng)
        f = random_zero_form(rng, model)
        x = rng.uniform(-1, 1, size=2)
        df = PForm(degree=1, coeffs=lambda z: exterior_differential(model, f, z))
        ddf = exterior_differential(model, df, x)
        npt.assert_allclose(ddf, 0.0, atol=1e-6)

    def test_d_squared_nonzero_on_broken_jacobi(self):
        model = broken_so3_algebroid(delta=0.5)
        e2 = PForm.basis_covector(3, 1)
        de2 = PForm(degree=2, coeffs=lambda z: exterior_differential(model, e2, z))
        dde2 = exterior_differential(model, de2, np.zeros(1))
        # frozen from the direct cyclic-sum evaluation: the (0,1,2) slot is -delta
        npt.assert_allclose(dde2[0, 1, 2], -0.5, atol=1e-12)
        assert np.max(np.abs(dde2)) > 1e-2


class TestStructureEquations:
    def test_so3_residuals_exactly_zero(self):
        model = so3_algebroid()
        anchor_res, jacobi_res = structure_equation_residuals(model, np.zeros(1))
        assert np.max(np.abs(anchor_res)) == 0.0
        assert np.max(np.abs(jacobi_res)) == 0.0

    def test_tangent_coordinate_frame_zero(self):
        model = LieAlgebroid.standard_tangent(3)
        anchor_res, jacobi_res = structure_equation_residuals(model, np.zeros(3))
        assert np.max(np.abs(anchor_res)) == 0.0
        assert np.max(np.abs(jacobi_res)) == 0.0

    def test_smooth_frame_residuals_vanish(self):
        rng = np.random.default_rng(23)
        model = frame_algebroid(rng)
        for x in rng.uniform(-1, 1, size=(5, 2)):
            anchor_res, jacobi_res = structure_equation_residuals(model, x)
            assert np.max(np.abs(anchor_res)) < 1e-8
            assert np.max(np.abs(jacobi_res)) < 1e-8

    def test_epsilon_rescaling_keeps_jacobi(self):
        # scaling one epsilon entry yields an isomorphic Lie algebra, so the
        # Jacobi residual stays exactly zero; the genuine negative control
        # needs an off-pattern perturbation.
        c = EPS3.copy()
        c[0, 1, 2] = 1.1
        c[1, 0, 2] = -1.1
        model = LieAlgebroid.from_lie_algebra(c)
        _, jacobi_res = structure_equation_residuals(model, np.zeros(1))
        assert np.max(np.abs(jacobi_res)) == 0.0

    def test_broken_jacobi_residual_matches_cyclic_oracle(self):
        delta = 0.5
        model = broken_so3_algebroid(delta=delta)
        x = np.zeros(1)
        _, jacobi_res = structure_equation_residuals(model, x)

        c = model.bracket_at(x)
        oracle = np.zeros((3, 3, 3, 3))
        for a in range(3):
            for b in range(3):
                for g in range(3):
                    for n in range(3):
                        acc = 0.0
                        for (p, q, s) in [(a, b, g), (b, g, a), (g, a, b)]:
                            for m in range(3):
                                acc += c[p, m, n] * c[q, s, m]
                        oracle[a, b, g, n] = acc
        npt.assert_allclose(jacobi_res, oracle, atol=1e-14)
        npt.assert_allclose(jacobi_res[0, 1, 2, 1], delta, atol=1e-14)
        assert np.max(np.abs(oracle)) == pytest.approx(delta)


class TestLieDerivative:
    def test_zero_section_gives_zero(self):
        rng = np.random.default_rng(31)
        model = frame_algebroid(rng)
        omega = random_one_form(rng, model)
        zero = Section.constant([0.0, 0.0])
        out = lie_derivative(model, zero, omega, np.array([0.1, 0.2]))
        npt.assert_allclose(out, 0.0, atol=1e-14)

    def test_so3_constant_frame_derivative(self):
        # d_{e1} e^2 = e^3 for the epsilon constants
        model = so3_algebroid()
        e1 = Section.constant([1.0, 0.0, 0.0])
        omega = PForm.basis_covector(3, 1)
        out = lie_derivative(model, e1, omega, np.zeros(1))
        npt.assert_allclose(out, [0.0, 0.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_commutes_with_differential_on_functions(self, seed):
        rng = np.random.default_rng(seed)
        model = frame_algebroid(rng)
        sigma = random_section(rng, model)
        f = random_zero_form(rng, model)
        x = rng.uniform(-1, 1, size=2)

        df = PForm(degree=1, coeffs=lambda z: exterior_differential(model, f, z))
        lhs = lie_derivative(model, sigma, df, x)
        dsf = PForm(degree=0, coeffs=lambda z: lie_derivative(model, sigma, f, z))
        rhs = exterior_differential(model, dsf, x)
        npt.assert_allclose(lhs, rhs, atol=1e-6)

    def test_matches_flow_pullback_derivative(self):
        # d_sigma omega = d/ds of the flow pullback at s = 0 (central difference)
        rng = np.random.default_rng(37)
        model = frame_algebroid(rng)
        sigma = random_section(rng, model, amplitude=0.5)
        omega = random_one_form(rng, model)
        x = np.array([0.3, -0.4])
        s = 1e-3
        pull_p = flow_pullback_form(model, sigma, s, x, omega, steps=8)
        pull_m = flow_pullback_form(model, sigma, -s, x, omega, steps=8)
        fd = (pull_p - pull_m) / (2 * s)
        exact = lie_derivative(model, sigma, omega, x)
        npt.assert_allclose(fd, exact, atol=1e-5)


class TestAntisymmetrize:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_signs_match_determinant_oracle(self, p):
        # each permutation's sign is the determinant of its permutation matrix
        a = np.random.default_rng(p).standard_normal((3,) * p + (2, 3))
        want = np.zeros_like(a)
        for perm in itertools.permutations(range(p)):
            sign = round(np.linalg.det(np.eye(p)[list(perm)]))
            want += sign * np.transpose(a, perm + (p, p + 1))
        npt.assert_array_equal(antisymmetrize(a, p), want / math.factorial(p))


class TestFlow:
    @pytest.mark.parametrize("case", ["so3", "curved_frame"])
    def test_one_state_vector_matches_two_array_reference(self, case):
        # the RK4 loop on z = (x, M.ravel()) keeps every bit of the loop that
        # wrote each line once for x and once for M
        if case == "so3":
            model, sigma, x0 = so3_algebroid(), Section.constant([0.3, -0.4, 0.8]), np.zeros(1)
        else:
            rng = np.random.default_rng(41)
            model = frame_algebroid(rng)
            sigma, x0 = random_section(rng, model, amplitude=0.4), np.array([0.2, 0.1])
        x, m = flow_of_section(model, sigma, 0.7, x0, steps=50)
        want_x, want_m = flow_reference(model, sigma, 0.7, x0, steps=50)
        npt.assert_array_equal(x, want_x)
        npt.assert_array_equal(m, want_m)

    def test_zero_section_is_identity(self):
        model = so3_algebroid()
        zero = Section.constant([0.0, 0.0, 0.0])
        x, m = flow_of_section(model, zero, 2.0, np.zeros(1), steps=10)
        npt.assert_array_equal(x, np.zeros(1))
        npt.assert_array_equal(m, np.eye(3))

    def test_so3_flow_matches_matrix_exponential(self):
        model = so3_algebroid()
        sigma = Section.constant([0.0, 0.0, 1.0])
        s = np.pi / 2
        x, m = flow_of_section(model, sigma, s, np.zeros(1), steps=1000)
        d = np.einsum("gab,a->bg", EPS3, np.array([0.0, 0.0, 1.0]))
        npt.assert_allclose(m, expm(s * d), atol=1e-8)

    def test_so3_flow_mixed_axis(self):
        model = so3_algebroid()
        vec = np.array([0.3, -0.4, 0.8])
        sigma = Section.constant(vec)
        s = 0.7
        _, m = flow_of_section(model, sigma, s, np.zeros(1), steps=400)
        d = np.einsum("gab,a->bg", EPS3, vec)
        npt.assert_allclose(m, expm(s * d), atol=1e-9)

    def test_flow_composition(self):
        rng = np.random.default_rng(41)
        model = frame_algebroid(rng)
        sigma = random_section(rng, model, amplitude=0.4)
        x0 = np.array([0.2, 0.1])
        x1, m1 = flow_of_section(model, sigma, 0.3, x0, steps=300)
        x2, m2 = flow_of_section(model, sigma, 0.5, x1, steps=500)
        x12, m12 = flow_of_section(model, sigma, 0.8, x0, steps=800)
        npt.assert_allclose(x12, x2, atol=1e-9)
        npt.assert_allclose(m12, m2 @ m1, atol=1e-9)

    def test_step_count_validated(self):
        model = so3_algebroid()
        with pytest.raises(ValueError):
            flow_of_section(model, Section.constant([1, 0, 0]), 1.0, np.zeros(1), steps=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_reported(self):
        model = LieAlgebroid.standard_tangent(1)
        sigma = Section(coeffs=lambda x: np.array([1.0 + x[0] ** 2]))
        with pytest.raises(FlowBlowupError):
            flow_of_section(model, sigma, 10.0, np.zeros(1), steps=40)

    def test_flow_is_morphism_on_smooth_frame(self):
        rng = np.random.default_rng(43)
        model = frame_algebroid(rng)
        sigma = random_section(rng, model, amplitude=0.4)
        adm, mor = flow_morphism_defect(model, sigma, 0.5, np.array([0.1, -0.3]),
                                        steps=200)
        assert np.max(np.abs(adm)) < 1e-6
        assert np.max(np.abs(mor)) < 1e-6

    def test_tangent_flow_is_base_jacobian(self):
        # on the tangent algebroid the fibre matrix is the Jacobian of the
        # base flow (finite-difference cross-check)
        model = LieAlgebroid.standard_tangent(2)
        f = trig_polynomial(np.random.default_rng(47), 2, amplitude=0.5)
        sigma = Section(coeffs=lambda x: np.array([f(x), 0.2]),
                        derivative=lambda x: np.stack([f.gradient(x), np.zeros(2)]))
        x0 = np.array([0.3, 0.6])
        s = 0.4
        _, m = flow_of_section(model, sigma, s, x0, steps=200)
        h = 1e-5
        jac = np.zeros((2, 2))
        for j in range(2):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            fp, _ = flow_of_section(model, sigma, s, xp, steps=200)
            fm, _ = flow_of_section(model, sigma, s, xm, steps=200)
            jac[:, j] = (fp - fm) / (2 * h)
        npt.assert_allclose(m, jac, atol=1e-7)


class TestStackedPoints:
    @staticmethod
    def _f(x, u):
        return np.stack([x[..., 0] * u[..., 1], x[..., 1] * x[..., 1] - u[..., 0],
                         u[..., 0] * u[..., 1] * x[..., 0]], axis=-1)

    def test_stacked_callable_is_called_once_per_block(self):
        calls = []

        def f(x, u):
            calls.append(x.shape)
            return self._f(x, u)

        rng = np.random.default_rng(2)
        x, u = rng.uniform(-1, 1, (4, 3, 2)), rng.uniform(-1, 1, (4, 3, 2))
        per_point = sample_points(f, "f", (3,), x, u)
        assert len(calls) == 12
        calls.clear()
        block = sample_points(stacked(f), "f", (3,), x, u)
        assert calls == [(4, 3, 2)]
        npt.assert_array_equal(block, per_point)
        calls.clear()
        npt.assert_array_equal(sample_points(stacked(f), "f", (3,), x[1, 2], u[1, 2]),
                               per_point[1, 2])
        assert calls == [(2,)]

    def test_wrongly_shaped_stacked_result_raises(self):
        # a point-shaped result would broadcast against the block
        fn = stacked(lambda x: np.zeros(2))
        with pytest.raises(ValueError, match=r"^anchor returned shape \(2,\) at points of "
                                             r"shape \(4, 3\), expected \(4, 2\)$"):
            sample_points(fn, "anchor", (2,), np.zeros((4, 3)))
        model = LieAlgebroid(base_dim=3, rank=2, anchor=stacked(lambda x: np.zeros((2, 3))),
                             bracket_coeffs=lambda x: np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match=r"^anchor returned shape \(2, 3\) at points"):
            structure_residual_max(model, np.zeros((5, 3)))
        # so would a point-shaped analytic Jacobian
        for name, point in [("anchor_derivative", (2, 3, 3)), ("bracket_derivative", (2, 2, 2, 3))]:
            model = LieAlgebroid(base_dim=3, rank=2, anchor=lambda x: np.zeros((2, 3)),
                                 bracket_coeffs=lambda x: np.zeros((2, 2, 2)),
                                 **{name: stacked(lambda x, point=point: np.zeros(point))})
            with pytest.raises(ValueError, match=f"^{name} returned shape "
                                                 f"{re.escape(str(point))} at points"):
                structure_residual_max(model, np.zeros((5, 3)))

    def test_stacked_method_keeps_its_mark(self):
        calls = []

        class Holder:
            @stacked
            def value(self, x):
                calls.append(x.shape)
                return x * 2.0

        out = sample_points(Holder().value, "value", (3,), np.ones((5, 3)))
        npt.assert_array_equal(out, np.full((5, 3), 2.0))
        assert calls == [(5, 3)]
