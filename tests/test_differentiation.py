"""The central-difference kernel and every derivative fallback built on it."""

import dataclasses
import itertools

import numpy as np
import numpy.testing as npt
import pytest

from algfield.differentiation import (
    FINE_STEP,
    HESSIAN_STEP,
    STEP,
    central_difference,
    gradient,
    partial_derivative_two_slot,
)
from algfield.fibred import JetPoint, ProjectableSection, stacked, total_derivative
from algfield.scenarios import StandardCaseData, _hessian_reader
from algfield.variational import Lagrangian

from helpers import connection_pair, frame_algebroid


def _f(x, u):
    return np.stack([x[..., 0] * u[..., 1], x[..., 1] * x[..., 1] - u[..., 0],
                     u[..., 0] * u[..., 1] * x[..., 0]], axis=-1)


def _g(x, y):
    # y has point shape (2, 2)
    return np.stack([x[..., 0] * y[..., 0, 1] ** 2, np.sin(y[..., 1, 0]) * y[..., 0, 0]
                     - y[..., 1, 1] * x[..., 1]], axis=-1)


def _reference(f, args, slot, h):
    """One-point central differences written out column by column."""
    z = np.asarray(args[slot], dtype=float)
    cols = []
    for i in itertools.product(*map(range, z.shape)):
        plus, minus = list(args), list(args)
        plus[slot], minus[slot] = z.copy(), z.copy()
        plus[slot][i] += h
        minus[slot][i] -= h
        cols.append((np.asarray(f(*plus)) - np.asarray(f(*minus))) / (2.0 * h))
    return np.stack(cols, axis=-1).reshape(np.shape(cols[0]) + z.shape)


class TestKernel:
    @pytest.mark.parametrize("slot", [0, 1])
    def test_central_difference_at_stacked_points(self, slot):
        # each point's columns are differenced as at one point, bit for bit
        rng = np.random.default_rng(3)
        x, u = rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (6, 2))
        block = central_difference(_f, (x, u), slot, 1e-4)
        assert block.shape == (6, 3, 2)
        npt.assert_array_equal(block, partial_derivative_two_slot(_f, x, u, slot, 1e-4))
        for i in range(6):
            npt.assert_array_equal(block[i], central_difference(_f, (x[i], u[i]), slot, 1e-4))
            npt.assert_array_equal(block[i], _reference(_f, (x[i], u[i]), slot, 1e-4))

    def test_two_differentiated_axes(self):
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-1, 1, (4, 3, 2)), rng.uniform(-1, 1, (4, 3, 2, 2))
        block = central_difference(_g, (x, y), 1, 1e-5, ndim=2)
        assert block.shape == (4, 3, 2, 2, 2)
        for i, j in itertools.product(range(4), range(3)):
            npt.assert_array_equal(block[i, j], _reference(_g, (x[i, j], y[i, j]), 1, 1e-5))

    def test_zero_length_slot(self):
        x, u = np.ones((6, 2)), np.ones((6, 0))
        empty = central_difference(lambda x, u: x[..., :1] * 1.0, (x, u), 1, 1e-4)
        assert empty.shape == (6, 1, 0)
        one_point = central_difference(lambda x, y: x * 1.0, (x[0], np.ones((2, 0))), 1, 1e-4,
                                       ndim=2)
        assert one_point.shape == (2, 2, 0)

    def test_gradient_of_a_one_point_callable(self):
        # real and complex values, differentiated array of any shape
        rng = np.random.default_rng(7)
        for shape in [(3,), (2, 2)]:
            x = rng.uniform(-1, 1, shape)
            for f in (lambda z: np.sin(z).sum(),
                      lambda z: np.outer(np.cos(z.ravel()), z.ravel()) + 1j * float(z.sum())):
                out = gradient(f, x, 1e-6)
                ref = _reference(f, (x,), 0, 1e-6)
                assert out.dtype == ref.dtype
                npt.assert_array_equal(out, ref)


class TestFallbacks:
    """Every fallback reader on a block of points against :func:`gradient`
    of its checked reader at each point, bit for bit."""

    POINTS = 5

    def test_algebroid_jacobians(self):
        rng = np.random.default_rng(11)
        model = dataclasses.replace(frame_algebroid(rng), anchor_derivative=None,
                                    bracket_derivative=None)
        curved = connection_pair(rng).total_algebroid()
        for m in (model, curved):
            x = rng.uniform(-1, 1, (self.POINTS, m.base_dim))
            drho, dc = m.anchor_jacobian(x), m.bracket_jacobian(x)
            for i in range(self.POINTS):
                npt.assert_array_equal(drho[i], gradient(m.anchor_at, x[i], STEP))
                npt.assert_array_equal(dc[i], gradient(m.bracket_at, x[i], STEP))

    @pytest.mark.parametrize("mark", [lambda f: f, stacked], ids=["per_point", "stacked"])
    def test_section_jacobians(self, mark):
        # elementwise formulas: the same values at one point and at stacked points
        sigma = ProjectableSection(
            base_coeffs=mark(lambda x: np.stack([np.sin(x[..., 0]) * x[..., 1],
                                                 np.cos(x[..., 1]) + x[..., 0] ** 2], axis=-1)),
            vertical_coeffs=mark(lambda x, u: np.stack(
                [np.sin(x[..., 0]) * u[..., 0], x[..., 1] * u[..., 1] * u[..., 2],
                 np.cos(x[..., 0] * u[..., 2])], axis=-1)))
        rng = np.random.default_rng(13)
        x, u = rng.uniform(-1, 1, (self.POINTS, 2)), rng.uniform(-1, 1, (self.POINTS, 3))
        db = sigma.base_jacobian(x, 2)
        dvx, dvu = sigma.vertical_jacobian_x(x, u, 3), sigma.vertical_jacobian_u(x, u, 3)
        for i in range(self.POINTS):
            xi, ui = x[i], u[i]
            npt.assert_array_equal(db[i], gradient(lambda z: sigma.base_at(z, 2), xi, STEP))
            npt.assert_array_equal(dvx[i], gradient(
                lambda z: sigma.vertical_points(z, ui, 3), xi, STEP))
            npt.assert_array_equal(dvu[i], gradient(
                lambda v: sigma.vertical_points(xi, v, 3), ui, STEP))

    @pytest.mark.parametrize("mark", [lambda f: f, stacked], ids=["per_point", "stacked"])
    def test_connection_derivatives(self, mark):
        data = StandardCaseData(gamma=mark(
            lambda x, u: np.stack([np.sin(x[..., :1]) * u ** 2,
                                   np.cos(x[..., 1:] * u[..., :1]) + u], axis=-2)))
        rng = np.random.default_rng(17)
        x, u = rng.uniform(-1, 1, (self.POINTS, 2)), rng.uniform(-1, 1, (self.POINTS, 2))
        dgx, dgu = data.base_derivative_at(x, u), data.vertical_derivative_at(x, u)
        for i in range(self.POINTS):
            xi, ui = x[i], u[i]
            npt.assert_array_equal(dgx[i], gradient(lambda z: data.gamma_points(z, ui), xi, STEP))
            npt.assert_array_equal(dgu[i], gradient(lambda v: data.gamma_points(xi, v), ui, STEP))

    @staticmethod
    def _value(x, u, y):
        return (np.cos(x[..., 0]) * np.sum(y ** 3, axis=(-2, -1))
                + np.sin(u[..., 0]) * u[..., 1] * y[..., 0, 0])

    @pytest.mark.parametrize("mark", [lambda f: f, stacked], ids=["per_point", "stacked"])
    def test_lagrangian_partials(self, mark):
        lag = Lagrangian(value=mark(self._value))
        rng = np.random.default_rng(19)
        x, u = rng.uniform(-1, 1, (self.POINTS, 1)), rng.uniform(-1, 1, (self.POINTS, 2))
        y = rng.uniform(-1, 1, (self.POINTS, 3, 1))
        pu, py = lag.partial_u_points(x, u, y), lag.partial_y_points(x, u, y)
        for i in range(self.POINTS):
            xi, ui, yi = x[i], u[i], y[i]
            npt.assert_array_equal(pu[i], gradient(
                lambda v: lag.value_points(xi, v, yi), ui, FINE_STEP))
            npt.assert_array_equal(py[i], gradient(
                lambda v: lag.value_points(xi, ui, v), yi, FINE_STEP))
            # the mechanics Hessians take one point
            hyy = _hessian_reader(lag, "hess_yy", (3, 3))(xi, ui, yi)
            hyu = _hessian_reader(lag, "hess_yu", (3, 2))(xi, ui, yi)
            npt.assert_array_equal(hyy, gradient(
                lambda v: lag.partial_y_points(xi, ui, v[:, None])[:, 0], yi[:, 0],
                HESSIAN_STEP))
            npt.assert_array_equal(hyu, gradient(
                lambda v: lag.partial_y_points(xi, v, yi)[:, 0], ui, HESSIAN_STEP))

    def test_total_derivative(self):
        rng = np.random.default_rng(23)
        pair = connection_pair(rng)

        def f(x, u):
            return np.sin(x[0]) * u[1] + x[1] * u[0] ** 2

        p = JetPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, 2)))
        fx = gradient(lambda z: f(z, p.u), p.x, STEP)
        fu = gradient(lambda v: f(p.x, v), p.u, STEP)
        analytic = total_derivative(pair, f, p, grad_x=lambda x, u: fx,
                                    grad_u=lambda x, u: fu)
        npt.assert_array_equal(total_derivative(pair, f, p), analytic)
        with pytest.raises(ValueError, match=r"^grad_x returned shape \(1, 2\)"):
            total_derivative(pair, f, p, grad_x=lambda x, u: fx[None])

    def test_stacked_value_is_called_once_per_block(self):
        calls = []

        @stacked
        def value(x, u, y):
            calls.append(x.shape)
            return self._value(x, u, y)

        lag = Lagrangian(value=value)
        rng = np.random.default_rng(29)
        x, u = rng.uniform(-1, 1, (7, 1)), rng.uniform(-1, 1, (7, 2))
        y = rng.uniform(-1, 1, (7, 3, 1))
        lag.partial_y_points(x, u, y)
        assert calls == [(7, 6, 1)]
        calls.clear()
        lag.partial_u_points(x, u, y)
        assert calls == [(7, 4, 1)]
        calls.clear()
        lag.partial_y_points(x[0], u[0], y[0])
        assert calls == [(6, 1)]
