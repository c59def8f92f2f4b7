"""Euler-Lagrange residuals, Noether currents and the first-variation identity."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from algfield.fibred import FibredAlgebroidPair, ProjectableSection, stacked
from algfield.fields import DiscretizedSection, GridSpec, grid_derivative
from algfield.smoothfields import trig_polynomial, trig_vector
from algfield.variational import (
    Lagrangian,
    el_residual,
    first_variation_identity_defect,
    invariance_defect,
    noether_current,
    noether_current_field,
)

from algfield.scenarios import scalar_field_lagrangian

from helpers import (
    EPS3, complete_lift_reference, connection_pair, heavy_top_style_pair, trivial_pair)


def rigid_body_pair():
    return FibredAlgebroidPair(base_dim=1, fibre_dim=0, kernel_rank=3,
                               c_kernel=lambda x, u: EPS3)


def rigid_body_lagrangian(inertia):
    inertia = np.asarray(inertia, dtype=float)
    return Lagrangian(
        value=lambda x, u, y: 0.5 * float(np.sum(inertia * y[:, 0] ** 2)),
        grad_u=lambda x, u, y: np.zeros(0),
        grad_y=lambda x, u, y: (inertia * y[:, 0])[:, None],
    )


def heavy_top_lagrangian(inertia, mgl, chi):
    inertia = np.asarray(inertia, dtype=float)
    chi = np.asarray(chi, dtype=float)
    return Lagrangian(
        value=lambda x, u, y: 0.5 * float(np.sum(inertia * y[:, 0] ** 2)) - mgl * float(u @ chi),
        grad_u=lambda x, u, y: -mgl * chi,
        grad_y=lambda x, u, y: (inertia * y[:, 0])[:, None],
    )


def free_field_lagrangian():
    return Lagrangian(
        value=lambda x, u, y: 0.5 * float(np.sum(y ** 2)),
        grad_u=lambda x, u, y: np.zeros(u.shape),
        grad_y=lambda x, u, y: y.copy(),
    )


def mechanics_section(ts, u_fn, y_fn, m_u, m_k):
    grid = GridSpec(extents=(ts.size,), spacing=(ts[1] - ts[0],), boundary="one_sided")
    u = np.zeros((ts.size, m_u))
    y = np.zeros((ts.size, m_k, 1))
    for i, t in enumerate(ts):
        if m_u:
            u[i] = u_fn(t)
        y[i, :, 0] = y_fn(t)
    return DiscretizedSection(grid=grid, u=u, y=y)


class TestLagrangian:
    def test_fd_partials_match_analytic(self):
        rng = np.random.default_rng(3)
        lag = Lagrangian(
            value=lambda x, u, y: float(np.sin(u[0]) + u[1] ** 3 + np.sum(y ** 2) * u[0]),
        )
        analytic = Lagrangian(
            value=lag.value,
            grad_u=lambda x, u, y: np.array([np.cos(u[0]) + np.sum(y ** 2), 3 * u[1] ** 2]),
            grad_y=lambda x, u, y: 2 * y * u[0],
        )
        from algfield.fibred import JetPoint
        p = JetPoint(x=np.zeros(2), u=rng.uniform(-1, 1, 2), y=rng.uniform(-1, 1, (2, 2)))
        npt.assert_allclose(lag.partial_u_points(p.x, p.u, p.y),
                            analytic.partial_u_points(p.x, p.u, p.y), atol=1e-8)
        npt.assert_allclose(lag.partial_y_points(p.x, p.u, p.y),
                            analytic.partial_y_points(p.x, p.u, p.y), atol=1e-8)

    def test_requires_coordinate_base(self):
        pair = FibredAlgebroidPair(base_dim=2, fibre_dim=0, kernel_rank=1,
                                   rho_f=lambda x: 2 * np.eye(2))
        grid = GridSpec(extents=(4, 4), spacing=(0.1, 0.1))
        sec = DiscretizedSection(grid=grid, u=np.zeros((4, 4, 0)),
                                 y=np.zeros((4, 4, 1, 2)))
        with pytest.raises(ValueError):
            el_residual(pair, free_field_lagrangian(), sec, (1, 1))


class TestElResidual:
    def test_harmonic_bilinear_field_is_flat_point(self):
        # u = x1 x2 with exact gradient data: the residual is the discrete
        # Laplacian, which vanishes for this field
        pair = trivial_pair(2, 1)
        grid = GridSpec(extents=(5, 5), spacing=(0.01, 0.01), boundary="one_sided")
        sec = DiscretizedSection.from_functions(
            grid, 1, 1,
            u_fn=lambda x: np.array([x[0] * x[1]]),
            y_fn=lambda x: np.array([[x[1], x[0]]]),
        )
        lag = free_field_lagrangian()
        for idx in [(2, 2), (1, 3), (0, 0)]:
            res = el_residual(pair, lag, sec, idx)
            npt.assert_allclose(res, 0.0, atol=1e-6)

    def test_linearity_in_lagrangian(self):
        rng = np.random.default_rng(7)
        pair = connection_pair(rng)
        grid = GridSpec.periodic_box((6, 6))
        sec = DiscretizedSection(grid=grid,
                                 u=rng.standard_normal((6, 6, 2)),
                                 y=rng.standard_normal((6, 6, 2, 2)))
        l1 = free_field_lagrangian()
        l2 = Lagrangian(
            value=lambda x, u, y: float(u[0] * y[0, 0] + np.cos(u[1])),
            grad_u=lambda x, u, y: np.array([y[0, 0], -np.sin(u[1])]),
            grad_y=lambda x, u, y: np.array([[u[0], 0.0], [0.0, 0.0]]),
        )
        lam = 1.7
        combo = Lagrangian(
            value=lambda x, u, y: l1.value(x, u, y) + lam * l2.value(x, u, y),
            grad_u=lambda x, u, y: l1.grad_u(x, u, y) + lam * l2.grad_u(x, u, y),
            grad_y=lambda x, u, y: l1.grad_y(x, u, y) + lam * l2.grad_y(x, u, y),
        )
        idx = (3, 2)
        r1 = el_residual(pair, l1, sec, idx)
        r2 = el_residual(pair, l2, sec, idx)
        rc = el_residual(pair, combo, sec, idx)
        npt.assert_allclose(rc, r1 + lam * r2, atol=1e-12)

    def test_matches_independent_classical_oracle(self):
        # trivial pair: the residual must agree with a separately coded
        # classical Euler-Lagrange operator at relative rounding level
        rng = np.random.default_rng(11)
        pair = trivial_pair(2, 1)
        grid = GridSpec.periodic_box((8, 8))
        cu = trig_polynomial(rng, 2)
        cy = trig_vector(rng, 2, 2)
        sec = DiscretizedSection.from_functions(
            grid, 1, 1,
            u_fn=lambda x: np.array([cu(x)]),
            y_fn=lambda x: np.array([[cy[0](x), cy[1](x)]]),
        )
        coeff = np.array([1.3, 0.4])
        lag = Lagrangian(
            value=lambda x, u, y: 0.5 * float(coeff @ (y[0] ** 2)) - 0.25 * float(u[0] ** 4),
            grad_u=lambda x, u, y: np.array([-u[0] ** 3]),
            grad_y=lambda x, u, y: (coeff * y[0])[None, :],
        )

        # oracle: momentum field array, plain central differences, no shared code
        mom = np.zeros(grid.extents + (2,))
        for idx in grid.nodes():
            mom[idx] = coeff * sec.y[idx][0]
        div = sum(grid_derivative(mom[..., a], grid, a) for a in range(2))
        for idx in [(0, 0), (3, 5), (7, 7), (4, 1)]:
            oracle = div[idx] + sec.u[idx][0] ** 3
            got = el_residual(pair, lag, sec, idx)
            npt.assert_allclose(got, oracle, rtol=1e-12, atol=1e-13)


class TestNoetherCurrent:
    def test_zero_section_zero_current(self):
        pair = rigid_body_pair()
        ts = np.linspace(0, 1, 11)
        sec = mechanics_section(ts, None, lambda t: np.array([np.sin(t), t, 1.0]), 0, 3)
        sigma = ProjectableSection.vertical_constant([0.0, 0.0, 0.0])
        out = noether_current(pair, rigid_body_lagrangian([1, 2, 3]), sigma, sec, (4,))
        npt.assert_array_equal(out, np.zeros(1))

    def test_rigid_body_axis_current_is_momentum_component(self):
        pair = rigid_body_pair()
        inertia = [1.0, 2.0, 3.0]
        ts = np.linspace(0, 1, 11)
        y_fn = lambda t: np.array([np.sin(t), np.cos(t), 0.7 + t])
        sec = mechanics_section(ts, None, y_fn, 0, 3)
        sigma = ProjectableSection.vertical_constant([0.0, 0.0, 1.0])
        idx = (6,)
        out = noether_current(pair, rigid_body_lagrangian(inertia), sigma, sec, idx)
        expected = inertia[2] * y_fn(ts[6])[2]
        npt.assert_allclose(out, [expected], rtol=1e-14)

    def test_shift_symmetry_current_is_gradient(self):
        pair = trivial_pair(2, 1)
        grid = GridSpec.periodic_box((6, 6))
        rng = np.random.default_rng(13)
        sec = DiscretizedSection(grid=grid, u=rng.standard_normal((6, 6, 1)),
                                 y=rng.standard_normal((6, 6, 1, 2)))
        sigma = ProjectableSection.vertical_constant([1.0])
        idx = (2, 4)
        out = noether_current(pair, free_field_lagrangian(), sigma, sec, idx)
        npt.assert_allclose(out, sec.y[idx][0], rtol=1e-14)

    def test_non_vertical_rejected(self):
        pair = trivial_pair(2, 1)
        grid = GridSpec.periodic_box((6, 6))
        sec = DiscretizedSection(grid=grid, u=np.zeros((6, 6, 1)),
                                 y=np.zeros((6, 6, 1, 2)))
        sigma = ProjectableSection(base_coeffs=lambda x: np.ones(2),
                                   vertical_coeffs=lambda x, u: np.ones(1))
        with pytest.raises(ValueError):
            noether_current(pair, free_field_lagrangian(), sigma, sec, (1, 1))


class TestInvarianceDefect:
    def _rigid_section(self, rng):
        ts = np.linspace(0, 2, 21)
        comps = trig_vector(rng, 1, 3)
        return mechanics_section(ts, None,
                                 lambda t: np.array([c(np.array([t])) for c in comps]), 0, 3)

    def test_round_inertia_invariant_under_all_rotations(self):
        rng = np.random.default_rng(17)
        pair = rigid_body_pair()
        sec = self._rigid_section(rng)
        lag = rigid_body_lagrangian([2.0, 2.0, 2.0])
        for vec in np.eye(3):
            sigma = ProjectableSection.vertical_constant(vec)
            assert abs(invariance_defect(pair, lag, sigma, sec, (8,))) < 1e-12

    def test_symmetric_top_axis_symmetry(self):
        # defect formula frozen by hand:
        #   (I2 - I1) y1 y2 - mgl chi . (e3 x u)   for sigma = e3
        pair = heavy_top_style_pair()
        inertia = [2.0, 2.0, 1.0]
        lag = heavy_top_lagrangian(inertia, mgl=1.5, chi=[0.0, 0.0, 1.0])
        ts = np.linspace(0, 1, 11)
        rng = np.random.default_rng(19)
        uc = trig_vector(rng, 1, 3)
        yc = trig_vector(rng, 1, 3)
        sec = mechanics_section(ts,
                                lambda t: np.array([c(np.array([t])) for c in uc]),
                                lambda t: np.array([c(np.array([t])) for c in yc]), 3, 3)
        e3 = ProjectableSection.vertical_constant([0.0, 0.0, 1.0])
        assert abs(invariance_defect(pair, lag, e3, sec, (5,))) < 1e-12

        e1 = ProjectableSection.vertical_constant([1.0, 0.0, 0.0])
        idx = (5,)
        got = invariance_defect(pair, lag, e1, sec, idx)
        p = sec.jet_point(idx)
        y = p.y[:, 0]
        expected = (inertia[2] - inertia[1]) * y[1] * y[2] - 1.5 * p.u[1]
        assert got == pytest.approx(expected, abs=1e-10)
        assert abs(got) > 1e-3

    def test_constant_lagrangian_invariant(self):
        rng = np.random.default_rng(23)
        pair = heavy_top_style_pair()
        lag = Lagrangian(value=lambda x, u, y: 4.2)
        sec = mechanics_section(np.linspace(0, 1, 11),
                                lambda t: np.array([np.sin(t), np.cos(t), t]),
                                lambda t: np.array([t, 1.0, t ** 2]), 3, 3)
        sigma = ProjectableSection.vertical_constant(rng.uniform(-1, 1, 3))
        assert abs(invariance_defect(pair, lag, sigma, sec, (4,))) < 1e-9

    def test_casimir_direction_has_zero_lift(self):
        # sigma^alpha = u^alpha generates a transformation with vanishing
        # lift for the rotation pair, so every Lagrangian is invariant
        pair = heavy_top_style_pair()
        lag = heavy_top_lagrangian([1.0, 2.0, 3.0], mgl=0.7, chi=[0.1, 0.2, 0.9])
        sec = mechanics_section(np.linspace(0, 1, 11),
                                lambda t: np.array([np.sin(t), np.cos(t), 0.5]),
                                lambda t: np.array([1.0, t, -t]), 3, 3)
        sigma = ProjectableSection(vertical_coeffs=lambda x, u: u.copy())
        assert abs(invariance_defect(pair, lag, sigma, sec, (7,))) < 1e-9


class TestFirstVariationIdentity:
    def test_zero_section_exact_zero(self):
        rng = np.random.default_rng(29)
        pair = connection_pair(rng)
        grid = GridSpec.periodic_box((6, 6))
        sec = DiscretizedSection(grid=grid,
                                 u=rng.standard_normal((6, 6, 2)),
                                 y=rng.standard_normal((6, 6, 2, 2)))
        sigma = ProjectableSection.vertical_constant([0.0, 0.0])
        lag = free_field_lagrangian()
        assert first_variation_identity_defect(pair, lag, sigma, sec, [(2, 3)])[0] == 0.0

    @pytest.mark.parametrize("seed", [31, 37])
    def test_off_shell_defect_second_order_field_case(self, seed):
        # arbitrary smooth non-solution fields, x-dependent vertical section:
        # the identity holds at stencil order, halving h quarters the defect
        rng = np.random.default_rng(seed)
        pair = connection_pair(rng)
        lag = Lagrangian(
            value=lambda x, u, y: 0.5 * float(np.sum(y ** 2)) + float(u[0] * y[1, 0]) - float(np.cos(u[1])),
            grad_u=lambda x, u, y: np.array([y[1, 0], np.sin(u[1])]),
            grad_y=lambda x, u, y: y + np.array([[0.0, 0.0], [u[0], 0.0]]),
        )
        su = trig_vector(rng, 2, 2)
        sigma = ProjectableSection(
            vertical_coeffs=lambda x, u: np.array([su[0](x), su[1](x)]),
            d_vertical_x=lambda x, u: np.stack([su[0].gradient(x), su[1].gradient(x)]),
            d_vertical_u=lambda x, u: np.zeros((2, 2)),
        )
        fu = trig_vector(rng, 2, 2)
        fy = trig_vector(rng, 2, 4)

        base_nodes = [(0, 0), (3, 5), (10, 1), (6, 6)]
        defects = []
        for scale, n in ((1, 12), (2, 24)):
            grid = GridSpec.periodic_box((n, n))
            sec = DiscretizedSection.from_functions(
                grid, 2, 2,
                u_fn=lambda x: np.array([f(x) for f in fu]),
                y_fn=lambda x: np.array([f(x) for f in fy]).reshape(2, 2),
            )
            # same physical points at both resolutions
            defects.append(max(first_variation_identity_defect(
                pair, lag, sigma, sec, [(scale * i, scale * j) for i, j in base_nodes])))
        assert defects[0] > 1e-8  # genuinely off-shell
        assert 3.0 < defects[0] / defects[1] < 5.0

    def test_probe_block_matches_point_reference(self):
        # the defect at the probe nodes, read as one block, against its terms
        # at each node: the per-point lift contracted with the partials, the
        # one-node residual and the divergence of the whole-grid current.
        # u-dependent gamma and section, so the field is off-shell and the
        # terms do not cancel
        rng = np.random.default_rng(43)
        pair = connection_pair(rng)
        lag = Lagrangian(
            value=lambda x, u, y: 0.5 * float(np.sum(y ** 2)) + float(u[0] * y[1, 0]),
            grad_u=lambda x, u, y: np.array([y[1, 0], 0.0]),
            grad_y=lambda x, u, y: y + np.array([[0.0, 0.0], [u[0], 0.0]]))
        f = trig_polynomial(rng, 2)
        sigma = ProjectableSection(vertical_coeffs=lambda x, u: f(x) * u + np.sin(u[::-1]))
        n = 12
        grid = GridSpec.periodic_box((n, n))
        sec = DiscretizedSection(grid=grid, u=rng.standard_normal((n, n, 2)),
                                 y=rng.standard_normal((n, n, 2, 2)))
        nodes = [(0, 0), (3, 5), (n - 2, 1), (n // 2, n // 2)]
        current = noether_current_field(pair, lag, sigma, sec)
        terms = []
        for idx in nodes:
            p = sec.jet_point(idx)
            _, du, dy = complete_lift_reference(pair, sigma, p)
            inv = (float(np.sum(lag.partial_y_points(p.x, p.u, p.y) * dy))
                   + float(lag.partial_u_points(p.x, p.u, p.y) @ du))
            el_s = float(el_residual(pair, lag, sec, idx) @ sigma.vertical_points(p.x, p.u, 2))
            terms.append([inv, el_s, current.divergence(idx)])
        terms = np.array(terms)
        want = np.abs(terms[:, 0] + terms[:, 1] - terms[:, 2])
        assert np.min(want) > 1e-3
        npt.assert_allclose(first_variation_identity_defect(pair, lag, sigma, sec, nodes), want,
                            rtol=0.0, atol=1e-13 * np.max(np.abs(terms)))

    def test_probe_nodes_are_read_as_one_block(self):
        # a stacked grad_y sees the whole-grid momentum field in blocks, then
        # the four probe nodes of the CLI's field check as one block
        shapes = []
        lag = scalar_field_lagrangian(1.0)

        @stacked
        def grad_y(x, u, y):
            shapes.append(x.shape)
            return scalar_field_lagrangian(1.0).grad_y(x, u, y)

        lag = dataclasses.replace(lag, grad_y=grad_y)
        rng = np.random.default_rng(47)
        n = 24
        sec = DiscretizedSection(grid=GridSpec.periodic_box((n, n)),
                                 u=rng.standard_normal((n, n, 1)),
                                 y=rng.standard_normal((n, n, 1, 2)))
        first_variation_identity_defect(
            trivial_pair(2, 1), lag, ProjectableSection.vertical_constant([1.0]), sec,
            [(0, 0), (3, 5), (n - 2, 1), (n // 2, n // 2)])
        assert shapes == [(512, 2), (64, 2), (4, 2)]

    def test_constant_section_defect_is_pointwise_algebraic(self):
        # for a constant vertical section the grid terms cancel identically,
        # so the identity holds to rounding regardless of resolution
        pair = heavy_top_style_pair()
        lag = heavy_top_lagrangian([1.0, 2.0, 3.0], mgl=1.0, chi=[0.0, 0.0, 1.0])
        sigma = ProjectableSection.vertical_constant([0.4, -0.2, 0.9])
        ts = np.linspace(0.0, 2.0, 51)
        sec = mechanics_section(ts,
                                lambda t: np.array([np.sin(t), t, np.cos(2 * t)]),
                                lambda t: np.array([t ** 2, 1.0, np.sin(t)]), 3, 3)
        for defect in first_variation_identity_defect(pair, lag, sigma, sec,
                                                      [(0,), (25,), (50,)]):
            assert defect < 1e-12

    def test_mechanics_defect_second_order_in_dt(self):
        # time-dependent vertical section: the product rule enters through
        # the stencil, so the defect is second order in the step
        pair = heavy_top_style_pair()
        lag = heavy_top_lagrangian([1.0, 2.0, 3.0], mgl=1.0, chi=[0.0, 0.0, 1.0])
        rng = np.random.default_rng(41)
        uc = trig_vector(rng, 1, 3)
        yc = trig_vector(rng, 1, 3)
        sc = trig_vector(rng, 1, 3)
        sigma = ProjectableSection(
            vertical_coeffs=lambda x, u: np.array([c(x) for c in sc]),
            d_vertical_x=lambda x, u: np.stack([c.gradient(x) for c in sc]),
            d_vertical_u=lambda x, u: np.zeros((3, 3)),
        )

        defects = []
        for scale, n in ((1, 101), (2, 201)):
            ts = np.linspace(0.0, 2.0, n)
            sec = mechanics_section(ts,
                                    lambda t: np.array([c(np.array([t])) for c in uc]),
                                    lambda t: np.array([c(np.array([t])) for c in yc]), 3, 3)
            defects.append(max(first_variation_identity_defect(
                pair, lag, sigma, sec, [(scale * i,) for i in (0, 10, 50, 100)])))
        assert defects[0] > 1e-10
        assert 3.0 < defects[0] / defects[1] < 5.0

    def test_current_field_matches_pointwise_op_and_diverges_small(self):
        # whole-grid current of the axis symmetry along an admissible
        # equator rotation: sampled values agree with the per-node
        # operation and the divergence is conserved at stencil order
        pair = heavy_top_style_pair()
        lag = heavy_top_lagrangian([2.0, 2.0, 1.0], mgl=1.0, chi=[0.0, 0.0, 1.0])
        ts = np.linspace(0.0, 1.0, 101)
        sec = mechanics_section(ts,
                                lambda t: np.array([np.cos(t), np.sin(t), 0.0]),
                                lambda t: np.array([0.0, 0.0, 1.0]), 3, 3)
        e3 = ProjectableSection.vertical_constant([0.0, 0.0, 1.0])
        current = noether_current_field(pair, lag, e3, sec)
        assert current.values.shape == (101, 1)
        idx = (50,)
        npt.assert_array_equal(current.values[idx],
                               noether_current(pair, lag, e3, sec, idx))
        # constant current: divergence vanishes identically
        assert abs(current.divergence(idx)) < 1e-13

    def test_solution_like_conservation_bound(self):
        # on an admissible field with an invariant direction, the divergence
        # of the current is controlled by the residual contraction
        pair = heavy_top_style_pair()
        lag = heavy_top_lagrangian([2.0, 2.0, 1.0], mgl=1.0, chi=[0.0, 0.0, 1.0])
        ts = np.linspace(0.0, 1.0, 201)
        # u rotating in the equator, y = e3: admissible (du/dt = y x u)
        sec = mechanics_section(ts,
                                lambda t: np.array([np.cos(t), np.sin(t), 0.0]),
                                lambda t: np.array([0.0, 0.0, 1.0]), 3, 3)
        e3 = ProjectableSection.vertical_constant([0.0, 0.0, 1.0])
        idx = (100,)
        inv = invariance_defect(pair, lag, e3, sec, idx)
        assert abs(inv) < 1e-12
        el = el_residual(pair, lag, sec, idx)
        div = noether_current_field(pair, lag, e3, sec).divergence(idx)
        s = np.array([0.0, 0.0, 1.0])
        assert abs(div - float(el @ s)) < 1e-10
