"""Scenario builders, the mechanics integrator and lattice gauge sampling."""

import dataclasses
import functools
import re
import tracemalloc
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from algfield import cli
from algfield import scenarios as sc
from algfield.algebroid import (
    BLOCK_NODES, LieAlgebroid, structure_equation_residuals, structure_residual_max)
from algfield.fibred import FibredAlgebroidPair, stacked
from algfield.fields import (
    DiscretizedSection,
    GridSpec,
    grid_gradient,
    morphism_residual,
    residual_report,
)
from algfield.scenarios import (
    AtiyahData,
    ChernSimonsData,
    DegenerateLagrangianError,
    EPSILON3,
    IntegrationBlowupError,
    MechanicsState,
    ProjectionError,
    StandardCaseData,
    builder_atiyah,
    builder_chern_simons,
    builder_standard,
    chern_simons_lagrangian,
    chern_simons_lagrangian_difference,
    flat_connection_generator,
    free_particle_pair,
    heavy_top_lagrangian,
    heavy_top_pair,
    integrate_mechanics,
    quadratic_kinetic_lagrangian,
    rigid_body_lagrangian,
    rigid_body_pair,
    scalar_field_lagrangian,
    su2_basis,
    su2_exponential,
    su2_exponential_gauge_field,
    _DEXP_SERIES_BELOW,
    _constant,
    _su2_dexp_coefficients,
)
from algfield.smoothfields import TrigPolynomial, trig_polynomial, trig_vector
from algfield.variational import Lagrangian, _momentum_field, el_residual, el_residual_field

from helpers import (
    broken_so3_algebroid, chern_simons_difference_reference, flat_connection_reference,
    frame_algebroid, mechanics_reference)


def sample_points(rng, n, count=20, scale=1.0):
    return rng.uniform(-scale, scale, size=(count, n))


class TestBuilderStructureEquations:
    def test_standard_case_with_curved_connection(self):
        rng = np.random.default_rng(3)
        g = trig_vector(rng, 2, 4, amplitude=0.4)

        def gamma(x, u):
            base = np.array([[g[0](x), g[1](x)], [g[2](x), g[3](x)]])
            return base + 0.3 * np.outer(np.ones(2), u)

        pair = builder_standard(StandardCaseData(gamma=gamma), base_dim=2, fibre_dim=2)
        total = pair.total_algebroid()
        assert structure_residual_max(total, sample_points(rng, 4, 10)) < 1e-7

    def test_mechanics_pairs(self):
        rng = np.random.default_rng(5)
        assert structure_residual_max(rigid_body_pair().total_algebroid(),
                                      sample_points(rng, 1, 5)) == 0.0
        assert structure_residual_max(heavy_top_pair().total_algebroid(),
                                      sample_points(rng, 4, 10)) < 1e-9
        assert structure_residual_max(free_particle_pair(2).total_algebroid(),
                                      sample_points(rng, 3, 5)) == 0.0

    def test_chern_simons_pair(self):
        rng = np.random.default_rng(7)
        pair, _ = builder_chern_simons(ChernSimonsData.su2(), GridSpec.periodic_box((4, 4, 4)))
        assert structure_residual_max(pair.total_algebroid(),
                                      sample_points(rng, 3, 5)) == 0.0

    def test_atiyah_pairs(self):
        rng = np.random.default_rng(9)
        flat = builder_atiyah(AtiyahData(constants=EPSILON3), base_dim=2)
        assert structure_residual_max(flat.total_algebroid(),
                                      sample_points(rng, 2, 5)) == 0.0

        omega = np.zeros((2, 2, 1))
        omega[0, 1, 0] = 0.7
        omega[1, 0, 0] = -0.7
        abelian = builder_atiyah(
            AtiyahData(constants=np.zeros((1, 1, 1)), curvature=lambda x: omega),
            base_dim=2)
        assert structure_residual_max(abelian.total_algebroid(),
                                      sample_points(rng, 2, 5)) < 1e-12

    @staticmethod
    def _cli_standard_pair(connection):
        ctx = cli.CheckContext({"params": {"connection": connection}, "checks": []},
                               np.random.default_rng(0))
        return cli._standard_connection(ctx)

    @staticmethod
    def _curved_standard_pair():
        g = trig_vector(np.random.default_rng(3), 2, 4, amplitude=0.4)
        return builder_standard(StandardCaseData(
            gamma=lambda x, u: (np.array([[g[0](x), g[1](x)], [g[2](x), g[3](x)]])
                                + 0.3 * np.outer(np.ones(2), u))), 2, 2)

    @staticmethod
    def _mismatched_heavy_top_pair():
        # +epsilon kernel constants with the rotation action: nonzero residuals
        return FibredAlgebroidPair(
            base_dim=1, fibre_dim=3, kernel_rank=3,
            rho_kernel_u=lambda x, u: -np.einsum("kAB,B->kA", EPSILON3, u),
            c_kernel=lambda x, u: EPSILON3)

    @pytest.mark.parametrize("name", [
        "standard_zero", "standard_linear_u", "standard_curved", "rigid_body", "heavy_top",
        "mismatched_heavy_top", "chern_simons", "atiyah_flat", "atiyah_abelian",
        "frame_algebroid", "broken_so3", "tangent"])
    def test_structure_residual_max_matches_per_point_residuals(self, name):
        # blocks of stacked points against the one-point oracle, bit for bit,
        # over more points than one block holds; the last two models and the
        # anchor of frame_algebroid have analytic derivatives
        omega = np.zeros((2, 2, 1))
        omega[0, 1, 0], omega[1, 0, 0] = 0.7, -0.7
        models = {
            "standard_zero": lambda: self._cli_standard_pair("zero").total_algebroid(),
            "standard_linear_u": lambda: self._cli_standard_pair("linear_u").total_algebroid(),
            "standard_curved": lambda: self._curved_standard_pair().total_algebroid(),
            "rigid_body": lambda: rigid_body_pair().total_algebroid(),
            "heavy_top": lambda: heavy_top_pair().total_algebroid(),
            "mismatched_heavy_top": lambda: self._mismatched_heavy_top_pair().total_algebroid(),
            "chern_simons": lambda: builder_chern_simons(
                ChernSimonsData.su2(), GridSpec.periodic_box((4, 4, 4)))[0].total_algebroid(),
            "atiyah_flat": lambda: builder_atiyah(
                AtiyahData(constants=EPSILON3), base_dim=2).total_algebroid(),
            "atiyah_abelian": lambda: builder_atiyah(
                AtiyahData(constants=np.zeros((1, 1, 1)), curvature=lambda x: omega),
                base_dim=2).total_algebroid(),
            "frame_algebroid": lambda: frame_algebroid(np.random.default_rng(4)),
            "broken_so3": lambda: broken_so3_algebroid(),
            "tangent": lambda: LieAlgebroid.standard_tangent(3),
        }
        model = models[name]()
        pts = np.random.default_rng(17).uniform(-1, 1, (70, model.base_dim))
        expected = 0.0
        for x in pts:
            a, j = structure_equation_residuals(model, x)
            expected = max(expected, float(np.max(np.abs(a))), float(np.max(np.abs(j))))
        assert structure_residual_max(model, pts) == expected
        if name in ("mismatched_heavy_top", "broken_so3"):
            assert expected > 0.1

    @pytest.mark.parametrize("build, name", [
        (rigid_body_pair, "c_kernel"),
        (lambda: free_particle_pair(2), "rho_kernel_u"),
        (lambda: builder_chern_simons(ChernSimonsData.su2(),
                                      GridSpec.periodic_box((4, 4, 4)))[0], "c_kernel"),
        (lambda: builder_atiyah(AtiyahData(constants=EPSILON3), base_dim=2), "c_kernel"),
        (lambda: builder_standard(StandardCaseData(
            gamma=lambda x, u: np.zeros((2, 1))), 2, 1), "rho_kernel_u")],
        ids=["time_dependent", "free_particle", "chern_simons", "atiyah", "standard"])
    def test_constant_coefficients_are_read_once_per_block(self, build, name):
        # a builder's constant is one call for a whole block of points (the
        # counting wrapper keeps the stacked mark), equal to its one-point
        # value at every point; the structure check reads it once for the
        # values and once for all shifted points of each block
        pair = build()
        constant, calls = getattr(pair, name), []

        @functools.wraps(constant)
        def counted(x, u):
            calls.append(x.shape)
            return constant(x, u)

        counted_pair = dataclasses.replace(pair, **{name: counted})
        rng = np.random.default_rng(31)
        x = rng.uniform(-1, 1, (4, 5, pair.base_dim))
        u = rng.uniform(-1, 1, (4, 5, pair.fibre_dim))
        block = counted_pair.coefficient(name, x, u)
        assert calls == [x.shape]
        for idx in np.ndindex(4, 5):
            npt.assert_array_equal(block[idx], pair.coefficient(name, x[idx], u[idx]))
        # antisymmetrized or not, it stays one value broadcast over the points
        assert not any(block.strides[:2])
        if name == "c_kernel":
            calls.clear()
            pts = rng.uniform(-1, 1, (9, pair.base_dim + pair.fibre_dim))
            structure_residual_max(counted_pair.total_algebroid(), pts)
            # blocks hold at least 3 points here; once per point and once
            # per shifted point would be 7 calls per point on the 3d base
            assert 1 <= len(calls) <= 2 * 3

    @pytest.mark.parametrize("build, name, blocks", [
        (lambda: free_particle_pair(2), "rho_kernel_u", 2),
        (rigid_body_pair, "c_kernel", 4),
        (lambda: builder_atiyah(AtiyahData(constants=EPSILON3), base_dim=2), "c_kernel", 4),
        (lambda: builder_chern_simons(ChernSimonsData.su2(),
                                      GridSpec.periodic_box((4, 4, 4)))[0], "c_kernel", 4)],
        ids=["rank3", "rank4", "rank5", "rank6"])
    def test_structure_check_blocks_hold_at_least_16_points(self, build, name, blocks):
        # 60 points: blocks of 50 at rank 3 and of 16 from rank 4 on (the
        # Jacobi temporary alone would allow 6 points at rank 5 and 3 at
        # rank 6); a constant is read once per block for the values and
        # once for the shifted points
        pair = build()
        constant, calls = getattr(pair, name), []

        @functools.wraps(constant)
        def counted(x, u):
            calls.append(x.shape)
            return constant(x, u)

        counted_pair = dataclasses.replace(pair, **{name: counted})
        pts = np.random.default_rng(41).uniform(
            -1, 1, (60, pair.base_dim + pair.fibre_dim))
        assert (structure_residual_max(counted_pair.total_algebroid(), pts)
                == structure_residual_max(pair.total_algebroid(), pts))
        assert len(calls) == 2 * blocks

    def test_structure_residual_max_propagates_nan(self):
        model = dataclasses.replace(
            LieAlgebroid.standard_tangent(2),
            anchor=lambda x: np.full((2, 2), np.nan) if x[0] > 0.5 else np.eye(2))
        pts = np.array([[0.0, 0.0], [0.9, 0.0], [-0.3, 0.2]])
        assert np.isnan(structure_residual_max(model, pts))

    def test_atiyah_horizontal_anchor_is_coordinate_vector(self):
        # the base frame directions of the reduced pair anchor to unit
        # coordinate vectors on the total chart
        pair = builder_atiyah(AtiyahData(constants=EPSILON3), base_dim=2)
        total = pair.total_algebroid()
        from algfield.algebroid import anchor_apply
        z = np.array([0.3, -0.8])
        for a in range(2):
            e_a = np.zeros(5)
            e_a[a] = 1.0
            expected = np.zeros(2)
            expected[a] = 1.0
            npt.assert_array_equal(anchor_apply(total, z, e_a), expected)

    def test_nonabelian_nonflat_reference_is_invalid(self):
        # non-central reference curvature breaks the Jacobi identity; the
        # builder does not reject it (validity is advisory) but the check
        # must flag it
        omega = np.zeros((2, 2, 3))
        omega[0, 1, 2] = 1.0
        omega[1, 0, 2] = -1.0
        pair = builder_atiyah(AtiyahData(constants=EPSILON3, curvature=lambda x: omega),
                              base_dim=2)
        assert structure_residual_max(pair.total_algebroid(), [np.zeros(2)]) > 0.5


class TestStandardScenario:
    def test_trivial_connection_reduces_to_classical_operator(self):
        rng = np.random.default_rng(11)
        pair = builder_standard(StandardCaseData(gamma=lambda x, u: np.zeros((2, 1))),
                                base_dim=2, fibre_dim=1)
        grid = GridSpec.periodic_box((8, 8))
        cu = trig_polynomial(rng, 2)
        cy = trig_vector(rng, 2, 2)
        sec = DiscretizedSection.from_functions(
            grid, 1, 1,
            u_fn=lambda x: np.array([cu(x)]),
            y_fn=lambda x: np.array([[cy[0](x), cy[1](x)]]),
        )
        lag = scalar_field_lagrangian(mass=0.8)

        from algfield.fields import grid_derivative
        mom = np.zeros(grid.extents + (2,))
        for idx in grid.nodes():
            mom[idx] = sec.y[idx][0]
        div = sum(grid_derivative(mom[..., a], grid, a) for a in range(2))
        for idx in [(0, 0), (2, 5), (7, 3)]:
            oracle = div[idx] + 0.8 ** 2 * sec.u[idx][0]
            npt.assert_allclose(el_residual(pair, lag, sec, idx), oracle,
                                rtol=1e-12, atol=1e-13)

    def test_flat_linear_connection_admits_adapted_morphisms(self):
        # connection linear in u with vanishing curvature: the adapted jet
        # of any smooth section has flatness residual of stencil size
        c = np.array([0.4, -0.7])

        def gamma(x, u):
            return np.outer(c, u)  # G_i^1 = c_i u^1

        pair = builder_standard(StandardCaseData(gamma=gamma), base_dim=2, fibre_dim=1)
        f = trig_polynomial(np.random.default_rng(13), 2, amplitude=0.6)

        def u_fn(x):
            return np.array([f(x)])

        def y_fn(x):
            return (f.gradient(x) - gamma(x, u_fn(x))[:, 0])[None, :]

        errs = []
        for n in (16, 32):
            grid = GridSpec.periodic_box((n, n))
            sec = DiscretizedSection.from_functions(grid, 1, 1, u_fn=u_fn, y_fn=y_fn)
            report = residual_report(pair, sec)
            errs.append(report.morphism_max)
        assert errs[0] < 0.05
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_analytic_connection_derivatives_match_fallback(self):
        def gamma(x, u):
            return np.array([[np.sin(x[0]) * u[0], np.cos(x[1]) * u[1] ** 2],
                             [x[0] * x[1] * u[1], u[0] * u[1]]])

        def vertical(x, u):  # [i, A, B] = dG_i^A / du^B
            return np.array([[[np.sin(x[0]), 0.0], [0.0, 2 * np.cos(x[1]) * u[1]]],
                             [[0.0, x[0] * x[1]], [u[1], u[0]]]])

        def base(x, u):  # [i, A, j] = dG_i^A / dx^j
            return np.array([[[np.cos(x[0]) * u[0], 0.0], [0.0, -np.sin(x[1]) * u[1] ** 2]],
                             [[x[1] * u[1], x[0] * u[1]], [0.0, 0.0]]])

        fallback = StandardCaseData(gamma=gamma)
        analytic = StandardCaseData(gamma=gamma, vertical_derivative=vertical,
                                    base_derivative=base)
        rng = np.random.default_rng(43)
        for _ in range(5):
            x, u = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            npt.assert_allclose(fallback.vertical_derivative_at(x, u), vertical(x, u),
                                atol=1e-7)
            npt.assert_allclose(fallback.base_derivative_at(x, u), base(x, u), atol=1e-7)
            npt.assert_allclose(fallback.frame_bracket(x, u), analytic.frame_bracket(x, u),
                                atol=1e-7)

    _A = np.array([[0.3, -0.5], [0.8, 0.2]])

    @staticmethod
    @stacked
    def _polynomial_gamma(x, u):
        # products and sums only, so one point and a stack round alike:
        # G[i, A] = A[i, A] x_i u_A + 0.4 x_0 x_1 + 0.6 u_A^2
        a = TestStandardScenario._A
        return (a * x[..., :, None] * u[..., None, :]
                + 0.4 * (x[..., 0] * x[..., 1])[..., None, None]
                + 0.6 * (u * u)[..., None, :])

    @pytest.mark.parametrize("kind", ["per_point", "stacked", "analytic"])
    def test_stacked_bracket_blocks_match_per_point(self, kind):
        # c_base_kernel (frame_bracket) and c_mixed at stacked points against
        # their one-point calls, bit for bit
        g = trig_vector(np.random.default_rng(41), 2, 4, amplitude=0.4)
        a = self._A
        if kind == "per_point":
            data = StandardCaseData(gamma=lambda x, u: (
                np.array([[g[0](x), g[1](x)], [g[2](x), g[3](x)]]) * u[None, :]))
        elif kind == "stacked":
            data = StandardCaseData(gamma=self._polynomial_gamma)
        else:
            # a per-point dG/du and a stacked dG/dx
            data = StandardCaseData(
                gamma=self._polynomial_gamma,
                vertical_derivative=lambda x, u: np.einsum(
                    "iA,AB->iAB", a * x[:, None] + 1.2 * u[None, :], np.eye(2)),
                base_derivative=stacked(lambda x, u: (
                    np.einsum("...iA,ij->...iAj", a * u[..., None, :], np.eye(2))
                    + 0.4 * x[..., None, None, ::-1])))
        pair = builder_standard(data, base_dim=2, fibre_dim=2)
        rng = np.random.default_rng(42)
        x, u = rng.uniform(-1, 1, (3, 5, 2)), rng.uniform(-1, 1, (3, 5, 2))
        for name in ("c_base_kernel", "c_mixed", "rho_base_u", "rho_kernel_u"):
            block = pair.coefficient(name, x, u)
            points = np.array([[pair.coefficient(name, x[i, j], u[i, j]) for j in range(5)]
                               for i in range(3)])
            npt.assert_array_equal(block, points)
        if kind == "analytic":
            fallback = builder_standard(StandardCaseData(gamma=self._polynomial_gamma), 2, 2)
            for name in ("c_base_kernel", "c_mixed"):
                npt.assert_allclose(pair.coefficient(name, x, u),
                                    fallback.coefficient(name, x, u), atol=1e-8)

    def test_cli_connections_match_their_per_point_forms(self):
        # the CLI's stacked gammas against np.outer and np.zeros at each point
        rng = np.random.default_rng(44)
        x, u = rng.uniform(-1, 1, (40, 2)), rng.uniform(-1, 1, (40, 1))
        per_point = {"zero": lambda x, u: np.zeros((2, 1)),
                     "linear_u": lambda x, u: np.outer([0.4, -0.7], u)}
        for connection, gamma in per_point.items():
            ctx = cli.CheckContext({"params": {"connection": connection}, "checks": []}, rng)
            shipped = cli._standard_connection(ctx)
            reference = builder_standard(StandardCaseData(gamma=gamma), 2, 1)
            for name in ("rho_base_u", "c_base_kernel", "c_mixed"):
                npt.assert_array_equal(shipped.coefficient(name, x, u),
                                       reference.coefficient(name, x, u))

    @pytest.mark.parametrize("connection", ["zero", "linear_u"])
    def test_cli_scalar_section_samples_once_per_block(self, connection, monkeypatch):
        # u reads the polynomial once per block and y once more with its
        # gradient, never once per node, and every node gets its per-point values
        counts = Counter()
        for attr in ("__call__", "gradient"):
            def counted(f, x, original=getattr(TrigPolynomial, attr), attr=attr):
                counts[attr] += 1
                return original(f, x)
            monkeypatch.setattr(TrigPolynomial, attr, counted)
        rng = np.random.default_rng(46)
        ctx = cli.CheckContext({"params": {"connection": connection}, "checks": []}, rng)
        pair = cli._standard_connection(ctx)
        f = trig_polynomial(rng, 2, amplitude=0.6)
        grid = GridSpec.periodic_box((32, 32))
        sec = cli._scalar_section(pair, grid, f)
        blocks = -(-32 * 32 // BLOCK_NODES)
        assert counts == {"__call__": 2 * blocks, "gradient": blocks}
        for idx in [(0, 0), (5, 17), (31, 31)]:
            x = grid.coords(idx)
            assert sec.u[idx][0] == f(x)
            rho = pair.coefficient("rho_base_u", x, np.array([f(x)]))
            npt.assert_array_equal(sec.y[idx][0], f.gradient(x) - rho[:, 0])

    @pytest.mark.parametrize("name", ["gamma", "vertical_derivative", "base_derivative"])
    def test_wrongly_shaped_stacked_connection_raises(self, name):
        # a point-shaped result from a stacked callable would broadcast
        # against a block; it raises, naming the callable
        point_shaped = {"gamma": (2, 1), "vertical_derivative": (2, 1, 1),
                        "base_derivative": (2, 1, 2)}[name]
        fields = {"gamma": stacked(lambda x, u: np.zeros(x.shape[:-1] + (2, 1)))}
        fields[name] = stacked(lambda x, u: np.zeros(point_shaped))
        pair = builder_standard(StandardCaseData(**fields), base_dim=2, fibre_dim=1)
        x, u = np.zeros((4, 2)), np.zeros((4, 1))
        message = (f"^{name} returned shape {re.escape(str(point_shaped))} at points of "
                   f"shape \\(4, [12]\\), expected {re.escape(str((4,) + point_shaped))}")
        with pytest.raises(ValueError, match=message):
            pair.coefficient("c_base_kernel", x, u)
        if name == "gamma":
            # one point differences gamma at stacked shifted points, which
            # a point-shaped gamma ignores
            with pytest.raises(ValueError, match=r"^gamma returned shape \(2, 1\) at points of "
                                                 r"shape \(4, 2\), expected \(4, 2, 1\)$"):
                pair.coefficient("c_base_kernel", x[0], u[0])
        else:
            # one point is still one call, which may return the point shape
            assert pair.coefficient("c_base_kernel", x[0], u[0]).shape == (2, 2, 1)


def _mass(u):
    return 1.5 + np.sin(u[0]) * np.cos(u[1])


def _mass_gradient(u):
    return np.array([np.cos(u[0]) * np.cos(u[1]), -np.sin(u[0]) * np.sin(u[1])])


def u_dependent_mass_lagrangian() -> Lagrangian:
    """``L = 1/2 m(u) |y|^2`` on the two-dimensional free particle, with
    analytic derivatives: its velocity Hessian changes at every stage."""
    return Lagrangian(value=lambda x, u, y: 0.5 * _mass(u) * float(np.sum(y ** 2)),
                      grad_u=lambda x, u, y: 0.5 * float(np.sum(y ** 2)) * _mass_gradient(u),
                      grad_y=lambda x, u, y: _mass(u) * y,
                      hess_yy=lambda x, u, y: _mass(u) * np.eye(2),
                      hess_yu=lambda x, u, y: np.outer(y[:, 0], _mass_gradient(u)),
                      autonomous=True)


U_DEPENDENT_MASS_STATE = MechanicsState(0.0, np.array([0.2, -0.3]), np.array([1.0, 0.7]))


def _late_hess_yy(x, u, y):
    return np.diag([1.0, np.exp(-x[0])])


def late_degenerating_lagrangian() -> Lagrangian:
    """``L = 1/2 (y_1^2 + exp(-t) y_2^2)``, not declared autonomous: the
    condition number of its velocity Hessian is ``exp(t)``."""
    return Lagrangian(
        value=lambda x, u, y: 0.5 * float(y[:, 0] @ _late_hess_yy(x, u, y) @ y[:, 0]),
        grad_u=lambda x, u, y: np.zeros(2),
        grad_y=lambda x, u, y: _late_hess_yy(x, u, y) @ y,
        hess_yy=_late_hess_yy,
        hess_yu=lambda x, u, y: np.zeros((2, 2)))


LATE_DEGENERATING_STATE = MechanicsState(0.0, np.zeros(2), np.array([1.0, 1.0]))

SHIPPED_MECHANICS = pytest.mark.parametrize("pair, lag, u0", [
    (rigid_body_pair(), rigid_body_lagrangian([1.0, 2.0, 3.0]), np.zeros(0)),
    (heavy_top_pair(), heavy_top_lagrangian([2.0, 2.0, 1.0], 1.0, [0.0, 0.0, 1.0]),
     np.array([0.6, 0.0, 0.8])),
], ids=["rigid_body", "heavy_top"])


class TestMechanicsIntegrator:
    def test_free_particle_exact(self):
        pair = free_particle_pair(2)
        lag = quadratic_kinetic_lagrangian([1.0, 1.0])
        u0 = np.array([0.5, -1.0])
        y0 = np.array([2.0, 0.3])
        traj = integrate_mechanics(pair, lag, MechanicsState(0.0, u0, y0),
                                   t_end=3.0, dt=0.01)
        npt.assert_allclose(traj.y[-1], y0, atol=1e-13)
        npt.assert_allclose(traj.u[-1], u0 + 3.0 * y0, atol=1e-11)

    def test_rigid_body_conservation(self):
        pair = rigid_body_pair()
        inertia = np.array([1.0, 2.0, 3.0])
        lag = rigid_body_lagrangian(inertia)
        traj = integrate_mechanics(pair, lag, MechanicsState(0.0, np.zeros(0),
                                                             np.array([1.0, 1.0, 1.0])),
                                   t_end=2.0, dt=1e-3)
        energy = traj.energy_series(lag, traj.momentum_series(lag))
        casimir = np.sum((inertia * traj.y) ** 2, axis=1)
        assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-9
        assert np.max(np.abs(casimir - casimir[0])) / casimir[0] < 1e-9

    def test_rigid_body_matches_euler_equation_oracle(self):
        # independent reference: solve the classical equations
        # I w' = (I w) x w with a separately coded RK4
        inertia = np.array([1.0, 2.0, 3.0])
        pair = rigid_body_pair()
        lag = rigid_body_lagrangian(inertia)
        y0 = np.array([0.3, -0.5, 0.9])
        dt, t_end = 1e-3, 1.0
        traj = integrate_mechanics(pair, lag, MechanicsState(0.0, np.zeros(0), y0),
                                   t_end=t_end, dt=dt)

        def rhs(w):
            return np.cross(inertia * w, w) / inertia

        w = y0.copy()
        n = int(round(t_end / dt))
        for _ in range(n):
            k1 = rhs(w)
            k2 = rhs(w + dt / 2 * k1)
            k3 = rhs(w + dt / 2 * k2)
            k4 = rhs(w + dt * k3)
            w = w + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        npt.assert_allclose(traj.y[-1], w, atol=1e-12)

    def test_el_residual_along_trajectory_is_stencil_order(self):
        pair = rigid_body_pair()
        lag = rigid_body_lagrangian([1.0, 2.0, 3.0])
        res = []
        for dt in (2e-3, 1e-3):
            traj = integrate_mechanics(pair, lag,
                                       MechanicsState(0.0, np.zeros(0),
                                                      np.array([1.0, 1.0, 1.0])),
                                       t_end=1.0, dt=dt)
            series = traj.el_residual_series(pair, lag)
            res.append(np.max(np.abs(series[1:-1])))  # interior stencils
        assert 3.5 < res[0] / res[1] < 4.5

    def test_steady_rotation_about_principal_axis_is_fixed_point(self):
        # spinning about a principal axis solves the equations exactly and
        # the residual along the trajectory is pure rounding
        pair = rigid_body_pair()
        lag = rigid_body_lagrangian([1.0, 2.0, 3.0])
        traj = integrate_mechanics(pair, lag,
                                   MechanicsState(0.0, np.zeros(0),
                                                  np.array([0.0, 0.0, 2.0])),
                                   t_end=2.0, dt=1e-2)
        assert np.max(np.abs(traj.y - np.array([0.0, 0.0, 2.0]))) < 1e-14
        series = traj.el_residual_series(pair, lag)
        assert np.max(np.abs(series)) < 1e-12

    def test_heavy_top_conserved_quantities(self):
        pair = heavy_top_pair()
        inertia = [2.0, 2.0, 1.0]
        lag = heavy_top_lagrangian(inertia, mgl=1.0, chi=[0.0, 0.0, 1.0])
        u0 = np.array([0.2, 0.0, 0.96])
        u0 /= np.linalg.norm(u0)
        traj = integrate_mechanics(pair, lag,
                                   MechanicsState(0.0, u0, np.array([0.1, -0.2, 5.0])),
                                   t_end=2.0, dt=1e-3)
        momentum = traj.momentum_series(lag)
        energy = traj.energy_series(lag, momentum)
        sphere = np.sum(traj.u ** 2, axis=1)
        axis_current = momentum[:, 2]                      # symmetric-top symmetry
        casimir = np.sum(momentum * traj.u, axis=1)        # zero-lift direction
        assert np.max(np.abs(energy - energy[0])) < 1e-9
        assert np.max(np.abs(sphere - 1.0)) < 1e-10
        assert np.max(np.abs(axis_current - axis_current[0])) < 1e-9
        assert np.max(np.abs(casimir - casimir[0])) < 1e-9

    @SHIPPED_MECHANICS
    def test_series_match_per_sample_loop(self, pair, lag, u0):
        # the stacked series keep every sample's bits: grad_y and value are
        # called per sample, and the energy's dot product is a stacked matmul
        traj = integrate_mechanics(pair, lag, MechanicsState(0.0, u0, np.array([0.3, -0.5, 0.9])),
                                   t_end=1.0, dt=1e-2)
        want_momentum = np.zeros_like(traj.y)
        want_energy = np.zeros(traj.times.size)
        for i, t in enumerate(traj.times):
            x, ycol = np.array([t]), traj.y[i][:, None]
            want_momentum[i] = lag.partial_y_points(x, traj.u[i], ycol)[:, 0]
            want_energy[i] = (float(want_momentum[i] @ traj.y[i])
                              - float(lag.value(x, traj.u[i], ycol)))
        momentum = traj.momentum_series(lag)
        assert np.array_equal(momentum, want_momentum)
        assert np.array_equal(traj.energy_series(lag, momentum), want_energy)

    @SHIPPED_MECHANICS
    def test_difference_hessians_match_analytic(self, pair, lag, u0):
        state = MechanicsState(0.0, u0, np.array([0.3, -0.5, 0.9]))
        fallback = dataclasses.replace(lag, hess_yy=None, hess_yu=None)
        trajs = [integrate_mechanics(pair, lg, state, t_end=1.0, dt=1e-2)
                 for lg in (lag, fallback)]
        npt.assert_allclose(trajs[1].y, trajs[0].y, atol=1e-8)
        npt.assert_allclose(trajs[1].u, trajs[0].u, atol=1e-8)

    @SHIPPED_MECHANICS
    def test_autonomous_declaration_changes_no_bit(self, pair, lag, u0):
        # skipping the momentum time derivative drops a difference that is
        # exactly 0 for these Lagrangians
        assert lag.autonomous
        state = MechanicsState(0.0, u0, np.array([0.3, -0.5, 0.9]))
        trajs = [integrate_mechanics(pair, lg, state, t_end=1.0, dt=1e-2)
                 for lg in (lag, dataclasses.replace(lag, autonomous=False))]
        assert np.array_equal(trajs[0].y, trajs[1].y)
        assert np.array_equal(trajs[0].u, trajs[1].u)

    @SHIPPED_MECHANICS
    def test_constants_are_read_once_per_run(self, pair, lag, u0):
        # the counting wrappers keep the constant mark: the integrator reads
        # each constant once when it binds the stage, and the momentum and
        # the heavy top's rho_kernel_u at every stage
        calls = Counter()

        def counted(owner, name):
            fn = getattr(owner, name)

            @functools.wraps(fn)
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        pair_names = ["c_kernel"] + (["rho_kernel_u"] if u0.size else [])
        lag_names = ["grad_y", "hess_yy"] + (["grad_u", "hess_yu"] if u0.size else [])
        counted_pair = dataclasses.replace(pair, **{n: counted(pair, n) for n in pair_names})
        counted_lag = dataclasses.replace(lag, **{n: counted(lag, n) for n in lag_names})
        state = MechanicsState(0.0, u0, np.array([0.3, -0.5, 0.9]))
        steps = 25
        traj = integrate_mechanics(counted_pair, counted_lag, state, t_end=0.25, dt=0.01)
        assert traj.times.size == steps + 1
        per_stage = {"grad_y", "rho_kernel_u"}
        assert calls == {n: 4 * steps if n in per_stage else 1 for n in pair_names + lag_names}
        want = integrate_mechanics(pair, lag, state, t_end=0.25, dt=0.01)
        npt.assert_array_equal(traj.y, want.y)
        npt.assert_array_equal(traj.u, want.u)

    @pytest.mark.parametrize("case", ["u_dependent", "unmarked_constant"])
    def test_varying_hessian_is_read_and_inverted_at_every_stage(self, case, monkeypatch):
        # a Hessian that is not a _constant, also one that returns the same
        # array every time, is read and inverted at every stage
        if case == "u_dependent":
            pair, lag, state = (free_particle_pair(2), u_dependent_mass_lagrangian(),
                                U_DEPENDENT_MASS_STATE)
        else:
            pair, state = rigid_body_pair(), MechanicsState(0.0, np.zeros(0), np.ones(3))
            hess = np.diag([1.0, 2.0, 3.0])
            lag = dataclasses.replace(rigid_body_lagrangian([1.0, 2.0, 3.0]),
                                      hess_yy=lambda x, u, y: hess)
        reads, inversions = [], []
        hess_yy = lag.hess_yy
        lag = dataclasses.replace(lag, hess_yy=lambda x, u, y: reads.append(1) or hess_yy(x, u, y))
        inverse = sc._inverse_and_verdict
        monkeypatch.setattr(sc, "_inverse_and_verdict",
                            lambda hyy, limit: inversions.append(1) or inverse(hyy, limit))
        integrate_mechanics(pair, lag, state, t_end=0.1, dt=0.01)
        assert len(reads) == len(inversions) == 4 * 10

    @pytest.mark.parametrize("hess, match", [
        (np.diag([1.0, 1.0, 1e-14]), "ill-conditioned"), (np.zeros((3, 3)), "singular$")],
        ids=["ill_conditioned", "singular"])
    def test_constant_degenerate_hessian_raises_before_the_first_step(self, hess, match):
        momenta = []
        lag = rigid_body_lagrangian([1.0, 2.0, 3.0])
        grad_y = lag.grad_y
        lag = dataclasses.replace(
            lag, hess_yy=_constant(hess),
            grad_y=stacked(lambda x, u, y: momenta.append(1) or grad_y(x, u, y)))
        with pytest.raises(DegenerateLagrangianError, match=match):
            integrate_mechanics(rigid_body_pair(), lag,
                                MechanicsState(0.0, np.zeros(0), np.ones(3)), t_end=0.1, dt=0.01)
        assert momenta == []

    def test_interval_of_no_whole_number_of_steps_raises(self):
        # t_end = 1.0 at dt = 0.3 would end at 0.9, and at dt / 2 at 1.05
        pair, lag = rigid_body_pair(), rigid_body_lagrangian([1.0, 2.0, 3.0])
        state = MechanicsState(0.0, np.zeros(0), np.ones(3))
        for dt in (0.3, 0.15):
            with pytest.raises(ValueError, match=r"^t_end - t0 = 1\.0 is not a whole number "
                                                 rf"of steps dt = {dt}$"):
                integrate_mechanics(pair, lag, state, t_end=1.0, dt=dt)
        # the shipped step and interval, 10.0 / 0.001 = 10000.000000000002
        assert sc.whole_steps(10.0, 1e-3) and sc.whole_steps(10.0, 5e-4)
        assert integrate_mechanics(pair, lag, state, t_end=0.9, dt=0.3).times.size == 4

    def test_u_dependent_hessian_is_inverted_at_every_stage(self):
        # L = 1/2 m(u) |y|^2: the analytic velocity Hessian m(u) I changes at
        # every stage, so a reused inverse would part from the reference below
        lag = u_dependent_mass_lagrangian()
        state = U_DEPENDENT_MASS_STATE
        fallback = dataclasses.replace(lag, hess_yy=None, hess_yu=None)
        trajs = [integrate_mechanics(free_particle_pair(2), lg, state, t_end=2.0, dt=1e-2)
                 for lg in (lag, fallback)]
        masses = [_mass(u) for u in trajs[0].u]
        assert max(masses) - min(masses) > 0.5
        npt.assert_allclose(trajs[1].y, trajs[0].y, atol=1e-8)
        npt.assert_allclose(trajs[1].u, trajs[0].u, atol=1e-8)

        # independent reference: u' = y, m y' = 1/2 |y|^2 dm/du - (dm/du . y) y
        # with a separately coded RK4
        def rhs(z):
            u, y = z[:2], z[2:]
            dm = _mass_gradient(u)
            return np.concatenate([y, (0.5 * (y @ y) * dm - (dm @ y) * y) / _mass(u)])

        z = np.concatenate([state.u, state.y])
        for _ in range(200):
            k1 = rhs(z)
            k2 = rhs(z + 0.005 * k1)
            k3 = rhs(z + 0.005 * k2)
            k4 = rhs(z + 0.01 * k3)
            z = z + 0.01 / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        npt.assert_allclose(np.concatenate([trajs[0].u[-1], trajs[0].y[-1]]), z, atol=1e-10)

    def test_hessian_degenerating_late_is_rejected(self):
        # L = 1/2 (y_1^2 + exp(-t) y_2^2): the velocity Hessian has condition
        # number exp(t), which passes the limit 1e3 until t = ln 1e3 = 6.9
        lag, state = late_degenerating_lagrangian(), LATE_DEGENERATING_STATE
        pair = free_particle_pair(2)
        integrate_mechanics(pair, lag, state, t_end=6.5, dt=0.1, cond_limit=1e3)
        with pytest.raises(DegenerateLagrangianError, match="ill-conditioned"):
            integrate_mechanics(pair, lag, state, t_end=8.0, dt=0.1, cond_limit=1e3)

    @pytest.mark.parametrize("case", ["rigid_body", "heavy_top", "u_dependent_analytic",
                                      "u_dependent_differenced", "late_degenerating"])
    def test_one_state_vector_matches_two_array_reference(self, case):
        # the RK4 loop on s = (y, u) keeps every bit of the loop that wrote
        # each line once for u and once for y
        pair, lag, state, t_end, dt = {
            "rigid_body": (rigid_body_pair(), rigid_body_lagrangian([1.0, 2.0, 3.0]),
                           MechanicsState(0.0, np.zeros(0), np.array([0.3, -0.5, 0.9])),
                           1.0, 1e-2),
            "heavy_top": (heavy_top_pair(),
                          heavy_top_lagrangian([2.0, 2.0, 1.0], 1.0, [0.0, 0.0, 1.0]),
                          MechanicsState(0.0, np.array([0.6, 0.0, 0.8]),
                                         np.array([0.1, -0.2, 5.0])), 1.0, 1e-2),
            "u_dependent_analytic": (free_particle_pair(2), u_dependent_mass_lagrangian(),
                                     U_DEPENDENT_MASS_STATE, 2.0, 1e-2),
            "u_dependent_differenced": (
                free_particle_pair(2),
                dataclasses.replace(u_dependent_mass_lagrangian(), hess_yy=None, hess_yu=None),
                U_DEPENDENT_MASS_STATE, 2.0, 1e-2),
            "late_degenerating": (free_particle_pair(2), late_degenerating_lagrangian(),
                                  LATE_DEGENERATING_STATE, 6.5, 0.1),
        }[case]
        cond_limit = 1e3 if case == "late_degenerating" else 1e12
        traj = integrate_mechanics(pair, lag, state, t_end=t_end, dt=dt, cond_limit=cond_limit)
        times, us, ys = mechanics_reference(pair, lag, state, t_end, dt, cond_limit)
        npt.assert_array_equal(traj.times, times)
        npt.assert_array_equal(traj.u, us)
        npt.assert_array_equal(traj.y, ys)
        if case == "late_degenerating":
            for integrate in (integrate_mechanics, mechanics_reference):
                with pytest.raises(DegenerateLagrangianError, match="ill-conditioned"):
                    integrate(pair, lag, state, 8.0, 0.1, cond_limit)

    def test_time_dependent_mass_conserves_momentum(self):
        # L = 1/2 m(t) |y|^2 on the free particle conserves m(t) y; only the
        # explicit time derivative of the momentum sees m'(t), and the
        # velocity Hessian comes from differenced momenta
        def mass(x):
            return 1.0 + 0.5 * np.sin(x[0])

        lag = Lagrangian(value=lambda x, u, y: 0.5 * mass(x) * float(np.sum(y ** 2)),
                         grad_u=lambda x, u, y: np.zeros(2),
                         grad_y=lambda x, u, y: mass(x) * y)
        y0 = np.array([1.0, -0.4])
        state = MechanicsState(0.0, np.zeros(2), y0)
        traj = integrate_mechanics(free_particle_pair(2), lag, state, t_end=2.0, dt=1e-2)
        expected = y0 * (mass([0.0]) / mass([traj.times]))[:, None]
        npt.assert_allclose(traj.y, expected, atol=1e-9)
        # the time derivative is dropped only on declaration: a wrong one loses m'(t)
        wrong = integrate_mechanics(free_particle_pair(2),
                                    dataclasses.replace(lag, autonomous=True), state,
                                    t_end=2.0, dt=1e-2)
        assert np.max(np.abs(wrong.y - expected)) > 1e-3

    def test_degenerate_lagrangian_rejected(self):
        pair = free_particle_pair(2)
        lag = Lagrangian(
            value=lambda x, u, y: 0.5 * float((y[0, 0] + y[1, 0]) ** 2),
            grad_u=lambda x, u, y: np.zeros(2),
            grad_y=lambda x, u, y: np.full((2, 1), y[0, 0] + y[1, 0]),
            hess_yy=lambda x, u, y: np.ones((2, 2)),
            hess_yu=lambda x, u, y: np.zeros((2, 2)),
        )
        with pytest.raises(DegenerateLagrangianError):
            integrate_mechanics(pair, lag, MechanicsState(0.0, np.zeros(2), np.ones(2)),
                                t_end=1.0, dt=0.1)

    @pytest.mark.parametrize("name, wrong", [("c_mixed", (1, 3, 1)), ("c_kernel", (3, 3, 1))])
    def test_wrongly_shaped_bracket_raises(self, name, wrong):
        # a (1, 3, 1) mixed block broadcasts against the (3,) momentum and
        # would integrate silently, a (3, 3, 1) kernel block would fail on an
        # unrelated reshape: every stage reads both through the checked sampler
        if name == "c_mixed":
            pair = dataclasses.replace(rigid_body_pair(),
                                       c_mixed=lambda x, u: np.full((1, 3, 1), 0.1))
        else:
            pair = dataclasses.replace(rigid_body_pair(), c_kernel=lambda x, u: np.ones(wrong))
        lag = rigid_body_lagrangian([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=f"^{name} returned shape {re.escape(str(wrong))}"):
            integrate_mechanics(pair, lag, MechanicsState(0.0, np.zeros(0), np.ones(3)),
                                t_end=0.1, dt=0.01)

    @pytest.mark.parametrize("name, wrong", [("hess_yy", (1, 3)), ("hess_yy", (1, 1)),
                                             ("hess_yu", (3, 1))])
    def test_wrongly_shaped_hessian_raises(self, name, wrong):
        # a (1, 3) velocity Hessian would read as a singular Lagrangian and a
        # (1, 1) one fail on a bare matmul; both go through the checked sampler
        pair = heavy_top_pair()
        lag = dataclasses.replace(heavy_top_lagrangian([2.0, 2.0, 1.0], 1.0, [0.0, 0.0, 1.0]),
                                  **{name: lambda x, u, y: np.ones(wrong)})
        state = MechanicsState(0.0, np.array([0.6, 0.0, 0.8]), np.ones(3))
        with pytest.raises(ValueError, match=f"^{name} returned shape {re.escape(str(wrong))}"):
            integrate_mechanics(pair, lag, state, t_end=0.1, dt=0.01)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_reported(self):
        pair = free_particle_pair(1)
        lag = Lagrangian(
            value=lambda x, u, y: 0.5 * float(y[0, 0] ** 2) + 0.25 * float(u[0] ** 4),
            grad_u=lambda x, u, y: np.array([u[0] ** 3]),
            grad_y=lambda x, u, y: y.copy(),
            hess_yy=lambda x, u, y: np.eye(1),
            hess_yu=lambda x, u, y: np.zeros((1, 1)),
        )
        with pytest.raises(IntegrationBlowupError):
            integrate_mechanics(pair, lag, MechanicsState(0.0, np.ones(1), np.ones(1)),
                                t_end=30.0, dt=0.05)


class TestChernSimons:
    def test_su2_lowered_constants_are_epsilon(self):
        data = ChernSimonsData.su2()
        npt.assert_array_equal(data.lowered, EPSILON3)
        assert data.positive_definite

    def test_non_invariant_metric_rejected(self):
        with pytest.raises(ValueError):
            ChernSimonsData(constants=EPSILON3, metric=np.diag([1.0, 2.0, 3.0]))

    def test_abelian_lagrangian_vanishes(self):
        data = ChernSimonsData(constants=np.zeros((2, 2, 2)), metric=np.eye(2))
        lag = chern_simons_lagrangian(data)
        rng = np.random.default_rng(17)
        y = rng.standard_normal((2, 3))
        assert lag.value(np.zeros(3), np.zeros(0), y) == 0.0

    def test_momenta_match_finite_differences(self):
        data = ChernSimonsData.su2()
        lag = chern_simons_lagrangian(data)
        rng = np.random.default_rng(19)
        y = rng.standard_normal((3, 3))
        x, u = np.zeros(3), np.zeros(0)
        fd = Lagrangian(value=lag.value)
        from algfield.fibred import JetPoint
        p = JetPoint(x=x, u=u, y=y)
        npt.assert_allclose(lag.partial_y_points(p.x, p.u, p.y),
                            fd.partial_y_points(p.x, p.u, p.y), atol=1e-8)

    def test_identity_gauge_gives_zero_field(self):
        grid = GridSpec.periodic_box((4, 4, 4))
        sec = flat_connection_generator(lambda x: np.eye(2, dtype=complex), grid,
                                        su2_basis())
        npt.assert_allclose(sec.y, 0.0, atol=1e-12)

    def test_single_generator_gauge_closed_form(self):
        # g = exp(f(x) T_3): the sampled field is grad(f) in the third
        # algebra direction
        f = trig_polynomial(np.random.default_rng(23), 3, amplitude=0.7)
        basis = su2_basis()
        grid = GridSpec.periodic_box((5, 5, 5))
        sec = flat_connection_generator(
            lambda x: su2_exponential(np.array([0.0, 0.0, f(x)])), grid, basis)
        for idx in [(0, 0, 0), (2, 3, 1), (4, 4, 4)]:
            x = grid.coords(idx)
            npt.assert_allclose(sec.y[idx][2], f.gradient(x), atol=1e-8)
            npt.assert_allclose(sec.y[idx][:2], 0.0, atol=1e-8)

    def test_projection_failure_detected(self):
        grid = GridSpec.periodic_box((3, 3, 3))
        with pytest.raises(ProjectionError):
            flat_connection_generator(
                lambda x: (1.0 + 0.3 * np.sin(x[0])) * np.eye(2, dtype=complex),
                grid, su2_basis())

    def _random_gauge(self, rng):
        comps = trig_vector(rng, 3, 3, amplitude=0.5)

        def gauge(x):
            return su2_exponential(np.array([c(x) for c in comps]))

        return gauge

    def test_pure_gauge_field_is_flat_at_stencil_order(self):
        rng = np.random.default_rng(29)
        gauge = self._random_gauge(rng)
        data = ChernSimonsData.su2()
        errs = []
        for n in (8, 16):
            grid = GridSpec.periodic_box((n, n, n))
            pair, _ = builder_chern_simons(data, grid)
            sec = flat_connection_generator(gauge, grid, su2_basis())
            report = residual_report(pair, sec)
            errs.append(report.morphism_max)
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_pure_gauge_passes_report_at_stencil_tolerance(self):
        rng = np.random.default_rng(47)
        gauge = self._random_gauge(rng)
        data = ChernSimonsData.su2()
        n = 8
        grid = GridSpec.periodic_box((n, n, n))
        pair, _ = builder_chern_simons(data, grid)
        sec = flat_connection_generator(gauge, grid, su2_basis())
        scale = max(1.0, np.max(np.abs(sec.y)))
        tol = 10.0 * grid.spacing[0] ** 2 * scale
        assert residual_report(pair, sec).max_norm <= tol

    def test_flatness_independent_of_generating_gauge(self):
        # two different gauge functions: their pure-gauge fields both sit at
        # the same discretization order
        data = ChernSimonsData.su2()
        n = 8
        grid = GridSpec.periodic_box((n, n, n))
        pair, _ = builder_chern_simons(data, grid)
        maxima = []
        for seed in (53, 59):
            gauge = self._random_gauge(np.random.default_rng(seed))
            sec = flat_connection_generator(gauge, grid, su2_basis())
            report = residual_report(pair, sec)
            maxima.append(report.morphism_max)
        bound = 10.0 * grid.spacing[0] ** 2
        assert all(m < bound for m in maxima)

    def test_el_residual_bounded_by_morphism_residual(self):
        rng = np.random.default_rng(31)
        gauge = self._random_gauge(rng)
        data = ChernSimonsData.su2()
        grid = GridSpec.periodic_box((8, 8, 8))
        pair, lag = builder_chern_simons(data, grid)
        sec = flat_connection_generator(gauge, grid, su2_basis())

        report = residual_report(pair, sec)
        el = el_residual_field(pair, lag, sec)
        kappa = 3.0 * np.max(np.abs(sec.y)) * np.max(
            np.sum(np.abs(data.lowered), axis=(1, 2)))
        assert np.max(np.abs(el)) <= kappa * report.morphism_max

    def test_lagrangian_difference_identity(self):
        rng = np.random.default_rng(37)
        data = ChernSimonsData.su2()
        grid = GridSpec.periodic_box((6, 6, 6))
        # arbitrary (non-flat) smooth field
        comps = trig_vector(rng, 3, 9, amplitude=0.8)
        sec = DiscretizedSection.from_functions(
            grid, 0, 3,
            y_fn=lambda x: np.array([c(x) for c in comps]).reshape(3, 3))
        defects = chern_simons_lagrangian_difference(data, sec,
                                                     [(0, 0, 0), (3, 1, 5), (2, 2, 2)])
        assert len(defects) == 3 and max(defects) < 1e-12

    def test_lagrangian_difference_zero_field(self):
        data = ChernSimonsData.su2()
        grid = GridSpec.periodic_box((4, 4, 4))
        sec = DiscretizedSection(grid=grid, u=np.zeros((4, 4, 4, 0)),
                                 y=np.zeros((4, 4, 4, 3, 3)))
        assert chern_simons_lagrangian_difference(data, sec, [(1, 2, 3)]) == [0.0]

    @pytest.mark.parametrize("field", ["closed_form_gauge", "difference_gauge", "non_flat"])
    def test_lagrangian_difference_matches_node_loop(self, field):
        # one expression over the block of probe nodes against the node loop
        # with the metric pairings as double sums, on seeded su(2) gauge
        # fields (flat up to stencil order) and on a non-flat field
        rng = np.random.default_rng(43)
        data = ChernSimonsData.su2()
        grid = GridSpec.periodic_box((6, 6, 6))
        if field == "closed_form_gauge":
            sec = su2_exponential_gauge_field(trig_vector(rng, 3, 3, amplitude=0.8), grid)
        elif field == "difference_gauge":
            sec = flat_connection_generator(self._random_gauge(rng), grid, su2_basis())
        else:
            comps = trig_vector(rng, 3, 9, amplitude=0.8)
            sec = DiscretizedSection.from_functions(
                grid, 0, 3, y_fn=lambda x: np.array([c(x) for c in comps]).reshape(3, 3))
        nodes = [(0, 0, 0), (1, 2, 3), (5, 3, 1), (3, 3, 3)]
        # the size of the density terms, each cubic in y or y times dy
        ymax = np.max(np.abs(sec.y))
        scale = ymax * (ymax ** 2 + np.max(np.abs(grid_gradient(sec.y, grid))))
        npt.assert_allclose(chern_simons_lagrangian_difference(data, sec, nodes),
                            chern_simons_difference_reference(data, sec, nodes),
                            rtol=0.0, atol=1e-13 * scale)


class TestStackedFieldLagrangians:
    # (Lagrangian, pair, base dim, fibre dim, kernel rank)
    CASES = {
        "chern_simons": lambda: (chern_simons_lagrangian(ChernSimonsData.su2()),
                                 builder_chern_simons(ChernSimonsData.su2(),
                                                      GridSpec.periodic_box((4, 4, 4)))[0],
                                 3, 0, 3),
        "scalar_field": lambda: (scalar_field_lagrangian(mass=0.8),
                                 free_particle_pair(2), 1, 2, 2),
    }

    @pytest.mark.parametrize("name", ["chern_simons", "scalar_field"])
    def test_stacked_points_match_point_calls(self, name):
        lag, _, r, mu, mk = self.CASES[name]()
        rng = np.random.default_rng(37)
        x = rng.uniform(-1, 1, (4, 5, r))
        u = rng.uniform(-1, 1, (4, 5, mu))
        y = rng.standard_normal((4, 5, mk, r))
        for fn, shape in [(lag.value, ()), (lag.grad_u, (mu,)), (lag.grad_y, (mk, r))]:
            block = fn(x, u, y)
            assert np.shape(block) == (4, 5) + shape
            for idx in np.ndindex(4, 5):
                point = fn(x[idx], u[idx], y[idx])
                assert np.shape(point) == shape
                npt.assert_array_equal(block[idx], point)

    @pytest.mark.parametrize("name", ["chern_simons", "scalar_field"])
    def test_partials_are_read_once_per_block(self, name):
        # the counting wrappers keep the stacked mark; a grid of more than
        # one block, with a partial last block
        lag, pair, r, mu, mk = self.CASES[name]()
        calls = {"grad_u": [], "grad_y": []}

        def counted(key):
            fn = getattr(lag, key)

            @functools.wraps(fn)
            def wrapper(x, u, y):
                calls[key].append(x.shape)
                return fn(x, u, y)
            return wrapper

        counted_lag = dataclasses.replace(lag, **{key: counted(key) for key in calls})
        extents = {3: (9, 8, 8), 1: (BLOCK_NODES + 64,)}[r]
        grid = GridSpec(extents=extents, spacing=(0.1,) * r)
        rng = np.random.default_rng(39)
        sec = DiscretizedSection(grid=grid, u=rng.standard_normal(extents + (mu,)),
                                 y=rng.standard_normal(extents + (mk, r)))
        blocks = [(BLOCK_NODES, r), (64, r)]
        _momentum_field(counted_lag, sec)
        assert calls == {"grad_u": [], "grad_y": blocks}
        calls["grad_y"].clear()
        npt.assert_array_equal(el_residual_field(pair, counted_lag, sec),
                               el_residual_field(pair, lag, sec))
        assert calls == {"grad_u": blocks if mu else [], "grad_y": blocks}


class TestStackedMechanicsLagrangians:
    # (Lagrangian, fibre dim, kernel rank); the heavy top with a general
    # chi, whose stacked u @ chi would round differently from the one-point
    # product
    CASES = {
        "rigid_body": lambda: (rigid_body_lagrangian([1.0, 2.0, 3.0]), 0, 3),
        "free_particle": lambda: (quadratic_kinetic_lagrangian([1.5, 0.5]), 2, 2),
        "heavy_top": lambda: (heavy_top_lagrangian([2.0, 2.0, 1.0], 1.3,
                                                   [0.31, -0.77, 0.557]), 3, 3),
    }

    @pytest.mark.parametrize("lead", [(9,), (4, 7)], ids=["n", "4x7"])
    @pytest.mark.parametrize("name", ["rigid_body", "free_particle", "heavy_top"])
    def test_stacked_points_match_point_calls(self, name, lead):
        lag, mu, mk = self.CASES[name]()
        rng = np.random.default_rng(41)
        x = rng.uniform(-1, 1, lead + (1,))
        u = rng.uniform(-1, 1, lead + (mu,))
        y = rng.standard_normal(lead + (mk, 1)) * rng.uniform(1e-3, 1e3, lead + (1, 1))
        for fn, shape in [(lag.value, ()), (lag.grad_u, (mu,)), (lag.grad_y, (mk, 1)),
                          (lag.hess_yy, (mk, mk)), (lag.hess_yu, (mk, mu))]:
            block = fn(x, u, y)
            assert np.shape(block) == lead + shape
            for idx in np.ndindex(*lead):
                point = fn(x[idx], u[idx], y[idx])
                assert np.shape(point) == shape
                npt.assert_array_equal(block[idx], point)

    def test_shipped_heavy_top_value_is_the_per_point_formula(self):
        inertia, mgl, chi = np.array([2.0, 2.0, 1.0]), 1.0, np.array([0.0, 0.0, 1.0])
        lag = heavy_top_lagrangian(inertia, mgl, chi)
        rng = np.random.default_rng(43)
        u, y = rng.standard_normal((50, 3)), rng.standard_normal((50, 3, 1))
        want = [0.5 * float(np.sum(inertia[:, None] * y[i] ** 2)) - mgl * float(u[i] @ chi)
                for i in range(50)]
        npt.assert_array_equal(lag.value_points(np.zeros((50, 1)), u, y), want)

    @SHIPPED_MECHANICS
    def test_series_read_the_lagrangian_once_per_trajectory(self, pair, lag, u0):
        # the counting wrappers keep the stacked mark
        calls = {"value": [], "grad_y": []}

        def counted(key):
            fn = getattr(lag, key)

            @functools.wraps(fn)
            def wrapper(x, u, y):
                calls[key].append(x.shape)
                return fn(x, u, y)
            return wrapper

        traj = integrate_mechanics(pair, lag, MechanicsState(0.0, u0, np.array([0.3, -0.5, 0.9])),
                                   t_end=1.0, dt=1e-2)
        counted_lag = dataclasses.replace(lag, **{key: counted(key) for key in calls})
        traj.energy_series(counted_lag, traj.momentum_series(counted_lag))
        assert calls == {"value": [(101, 1)], "grad_y": [(101, 1)]}


class TestFlatConnectionBlocks:
    """``flat_connection_generator`` against the per-node reference loop."""

    @staticmethod
    def _counted(gauge):
        calls = []

        def counted(x):
            calls.append(None)
            return gauge(x)

        return counted, calls

    @staticmethod
    def _late_failure(grid):
        # a scalar factor leaves the su(2) span wherever it is not constant:
        # from halfway between the node planes 6 and 7 of axis 0 on
        comps = trig_vector(np.random.default_rng(97), 3, 3, amplitude=0.5)
        edge = 6.5 * grid.spacing[0]
        return lambda x: ((1.0 + 0.3 * max(x[0] - edge, 0.0) ** 2)
                          * su2_exponential(np.array([c(x) for c in comps])))

    @pytest.mark.parametrize("extents, seed",
                             [((8, 8, 8), 83), ((9, 7), 89), ((10, 10, 10), None)],
                             ids=["su2_8^3", "su2_9x7", "identity_10^3"])
    def test_matches_node_reference(self, extents, seed):
        if seed is None:
            gauge = lambda x: np.eye(2, dtype=complex)
        else:
            comps = trig_vector(np.random.default_rng(seed), len(extents), 3, amplitude=0.5)
            gauge = lambda x: su2_exponential(np.array([c(x) for c in comps]))
        grid = GridSpec.periodic_box(extents)
        ys, counts = [], []
        for generate in (flat_connection_generator, flat_connection_reference):
            counted, calls = self._counted(gauge)
            ys.append(generate(counted, grid, su2_basis()).y)
            counts.append(len(calls))
        npt.assert_array_equal(ys[0], ys[1])
        assert counts == [int(np.prod(extents)) * (1 + 2 * grid.dim)] * 2

    def test_general_basis_matches_node_reference_to_rounding(self):
        # on a basis of gl(2) the traces sum more than two nonzero terms, in
        # another order than the per-node products, so only rounding may differ
        rng = np.random.default_rng(101)
        comps = trig_vector(rng, 3, 4, amplitude=0.3)
        basis = rng.standard_normal((4, 2, 2))
        gauge = lambda x: np.eye(2) + np.array([c(x) for c in comps]).reshape(2, 2)
        grid = GridSpec.periodic_box((6, 6, 6))
        ys, counts = [], []
        for generate in (flat_connection_generator, flat_connection_reference):
            counted, calls = self._counted(gauge)
            ys.append(generate(counted, grid, basis).y)
            counts.append(len(calls))
        npt.assert_allclose(ys[0], ys[1], rtol=0, atol=1e-13 * np.max(np.abs(ys[1])))
        assert counts == [int(np.prod(grid.extents)) * (1 + 2 * grid.dim)] * 2

    @pytest.mark.parametrize("case", ["first_node", "second_block"])
    def test_projection_error_matches_node_reference(self, case):
        if case == "first_node":
            grid = GridSpec.periodic_box((3, 3, 3))
            gauge = lambda x: (1.0 + 0.3 * np.sin(x[0])) * np.eye(2, dtype=complex)
        else:
            grid = GridSpec.periodic_box((12, 12, 12))
            gauge = self._late_failure(grid)
        messages = []
        for generate in (flat_connection_generator, flat_connection_reference):
            with pytest.raises(ProjectionError) as err:
                generate(gauge, grid, su2_basis())
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        first = "(0, 0, 0)" if case == "first_node" else "(7, 0, 0)"
        assert messages[0].startswith(f"connection sample at node {first}, axis 0 lies outside")

    def test_projection_error_reads_no_later_block(self):
        # the first bad node, (7, 0, 0) at flat index 1008, lies in the
        # second block; the pass stops at its end
        grid = GridSpec.periodic_box((12, 12, 12))
        counted, calls = self._counted(self._late_failure(grid))
        with pytest.raises(ProjectionError):
            flat_connection_generator(counted, grid, su2_basis())
        assert len(calls) == 2 * BLOCK_NODES * (1 + 2 * grid.dim)


class TestClosedFormGauge:
    """``su2_exponential_gauge_field`` against the difference path and the formula."""

    @pytest.mark.parametrize("extents", [(6, 6, 6), (8, 8)], ids=["6^3", "8^2"])
    def test_matches_difference_path(self, extents):
        comps = trig_vector(np.random.default_rng(71), len(extents), 3, amplitude=0.5)
        grid = GridSpec.periodic_box(extents)
        closed = su2_exponential_gauge_field(comps, grid)
        oracle = flat_connection_generator(
            lambda x: su2_exponential(np.array([c(x) for c in comps])), grid, su2_basis())
        assert closed.y.shape == oracle.y.shape and closed.u.shape == oracle.u.shape
        npt.assert_allclose(closed.y, oracle.y, rtol=0, atol=1e-8 * np.max(np.abs(oracle.y)))

    def test_stacked_points_and_values(self):
        # stacked and per-point evaluation agree bit for bit, also when the
        # value and the gradient come from one argument evaluation, and a
        # point's value is the plain dot product of amplitudes and cosines
        rng = np.random.default_rng(73)
        for extents in [(7,), (4, 5), (3, 4, 5)]:
            dim = len(extents)
            grid = GridSpec(extents=extents, spacing=(0.3, 0.2, 0.1)[:dim],
                            origin=(1.0, -2.0, 0.5)[:dim])
            f = trig_polynomial(rng, dim, n_modes=4, max_freq=2, amplitude=0.7)
            points = grid.points()
            values, grads = f(points), f.gradient(points)
            assert values.shape == extents and grads.shape == extents + (dim,)
            for got, want in zip(f.value_and_gradient(points), (values, grads)):
                npt.assert_array_equal(got, want)
            for idx in grid.nodes():
                x = points[idx]
                npt.assert_array_equal(x, grid.coords(idx))
                npt.assert_array_equal(values[idx], f(x))
                npt.assert_array_equal(grads[idx], f.gradient(x))
                for got, want in zip(f.value_and_gradient(x), (values[idx], grads[idx])):
                    npt.assert_array_equal(got, want)
                assert f(x) == float(np.dot(f.amplitudes, np.cos(f.waves @ x + f.phases)))

    def test_single_generator_is_gradient(self):
        f = trig_polynomial(np.random.default_rng(23), 3, amplitude=0.7)
        grid = GridSpec.periodic_box((5, 5, 5))
        y = su2_exponential_gauge_field([0, 0, f], grid).y
        npt.assert_array_equal(y[..., 2, :], f.gradient(grid.points()))
        assert np.all(y[..., :2, :] == 0.0)

    def test_identity_gives_exact_zero(self):
        sec = su2_exponential_gauge_field([0, 0, 0], GridSpec.periodic_box((4, 4, 4)))
        assert sec.y.shape == (4, 4, 4, 3, 3) and np.all(sec.y == 0.0)

    def test_series_branch_matches_direct_formula(self):
        # v = s (n + 1% modulation) puts |v| within 2% of s = the switch, on
        # both sides of it; the reference uses the direct formula everywhere
        s = _DEXP_SERIES_BELOW
        rng = np.random.default_rng(79)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        coords = [TrigPolynomial(waves=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]),
                                 amplitudes=np.array([s * n, 0.01 * s]),
                                 phases=np.array([0.0, rng.uniform(0, 2 * np.pi)]))
                  for n in direction]
        grid = GridSpec.periodic_box((8, 8, 8))
        y = su2_exponential_gauge_field(coords, grid).y
        points = grid.points()
        v = np.stack([c(points) for c in coords], axis=-1)
        theta = np.linalg.norm(v, axis=-1)[..., None]
        assert np.any(theta < s) and np.any(theta > s)
        for a in range(3):
            dv = np.stack([c.gradient(points)[..., a] for c in coords], axis=-1)
            first = np.cross(v, dv)
            ref = (dv - (1 - np.cos(theta)) / theta ** 2 * first
                   + (theta - np.sin(theta)) / theta ** 3 * np.cross(v, first))
            npt.assert_allclose(y[..., a], ref, rtol=0, atol=1e-12 * np.max(np.abs(dv)))
        # the coefficients alone, against their series to theta^6; 1e-9 is
        # the accuracy of the direct formula just above the switch
        t = s * np.array([1 - 1e-6, 1 + 1e-6])
        c1, c2 = _su2_dexp_coefficients(t)
        npt.assert_allclose(c1, 1 / 2 - t ** 2 / 24 + t ** 4 / 720 - t ** 6 / 40320, rtol=1e-9)
        npt.assert_allclose(c2, 1 / 6 - t ** 2 / 120 + t ** 4 / 5040 - t ** 6 / 362880, rtol=1e-9)

    def test_allocates_little_beyond_its_output(self):
        comps = trig_vector(np.random.default_rng(83), 3, 3, amplitude=0.5)
        grid = GridSpec.periodic_box((24, 24, 24))
        tracemalloc.start()
        try:
            sec = su2_exponential_gauge_field(comps, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * sec.y.nbytes


class TestAtiyah:
    def test_flat_reference_r1_equals_rigid_body(self):
        # the reduced pair with flat reference over a one-dimensional base
        # is the rigid-body pair: equal structure data and equal dynamics
        red = builder_atiyah(AtiyahData(constants=EPSILON3), base_dim=1)
        rb = rigid_body_pair()
        x, u = np.zeros(1), np.zeros(0)
        for name in ("c_kernel", "c_mixed"):
            npt.assert_array_equal(red.coefficient(name, x, u), rb.coefficient(name, x, u))

        lag = rigid_body_lagrangian([1.0, 2.0, 3.0])
        s0 = MechanicsState(0.0, np.zeros(0), np.array([0.7, -0.1, 0.4]))
        t1 = integrate_mechanics(red, lag, s0, t_end=1.0, dt=1e-2)
        t2 = integrate_mechanics(rb, lag, s0, t_end=1.0, dt=1e-2)
        npt.assert_array_equal(t1.y, t2.y)

    def test_abelian_constant_curvature_closed_form(self):
        omega12 = 1.3
        omega = np.zeros((2, 2, 1))
        omega[0, 1, 0] = omega12
        omega[1, 0, 0] = -omega12
        pair = builder_atiyah(
            AtiyahData(constants=np.zeros((1, 1, 1)), curvature=lambda x: omega),
            base_dim=2)
        grid = GridSpec(extents=(5, 5), spacing=(0.2, 0.2), boundary="one_sided")
        # the flatness condition forces d_1 y_2 - d_2 y_1 = omega12
        sec = DiscretizedSection.from_functions(
            grid, 0, 1,
            y_fn=lambda x: np.array([[-0.5 * omega12 * x[1], 0.5 * omega12 * x[0]]]))
        for idx in [(2, 2), (0, 4), (4, 0)]:
            npt.assert_allclose(morphism_residual(pair, sec, idx), 0.0, atol=1e-12)

    def test_covariant_reduced_equations_match_kernel_contraction(self):
        # with flat reference and unit weights the residual at a node is
        # sum_a D_a y[al, a] - sum_{a, be, ga} eps[be, al, ga] y[be, a] y[ga, a]
        rng = np.random.default_rng(41)
        pair = builder_atiyah(AtiyahData(constants=EPSILON3), base_dim=2)
        grid = GridSpec.periodic_box((6, 6))
        comps = trig_vector(rng, 2, 6)
        sec = DiscretizedSection.from_functions(
            grid, 0, 3,
            y_fn=lambda x: np.array([c(x) for c in comps]).reshape(3, 2))
        lag = quadratic_kinetic_lagrangian([1.0, 1.0, 1.0])

        from algfield.fields import grid_derivative
        div = sum(grid_derivative(sec.y[..., a], grid, a) for a in range(2))
        for idx in [(1, 1), (4, 2)]:
            y = sec.y[idx]
            oracle = div[idx] - np.einsum("bkg,ba,ga->k", EPSILON3, y, y)
            npt.assert_allclose(el_residual(pair, lag, sec, idx), oracle,
                                rtol=1e-12, atol=1e-13)
