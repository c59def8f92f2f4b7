"""Central finite differences for pointwise callables.

All structure functions, section coefficients and Lagrangians in this
package accept optional analytic derivative callbacks.  When a callback is
missing, the operations fall back to the second-order central differences
implemented here, and this is the only module that forms them (the grid
stencils of :mod:`algfield.fields` difference nodal arrays, not
callables).  The steps are fixed per kind of quantity; no model object
carries its own:

* ``STEP`` for structure functions, sections and connection coefficients;
* ``FINE_STEP`` for Lagrangian partials, the gauge derivative of a
  pure-gauge connection on the general matrix-gauge path
  (``flat_connection_generator``; gauges given by su(2) exponential
  coordinates are sampled in closed form, with no step) and the explicit
  time derivative of the momentum, which the mechanics integrator forms
  only for Lagrangians not declared ``autonomous``;
* ``HESSIAN_STEP`` for the velocity Hessian, a difference of momenta.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

STEP = 1e-4
FINE_STEP = 1e-6
HESSIAN_STEP = 1e-5


def partial_derivative(f: Callable, x: np.ndarray, axis, h: float) -> np.ndarray:
    """Central difference of ``f`` along coordinate ``axis`` (an index into ``x``).

    ``f`` may be scalar or array valued, real or complex; the result keeps
    the dtype of its values.
    """
    xp = np.array(x, dtype=float)
    xm = xp.copy()
    xp[axis] += h
    xm[axis] -= h
    return (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)


def gradient(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """All partial derivatives of ``f`` at ``x``.

    For ``f`` with values of shape ``S`` and ``x`` of any shape ``X`` the
    result has shape ``S + X``: the differentiation axes come last.
    """
    x = np.asarray(x, dtype=float)
    cols = [partial_derivative(f, x, i, h) for i in itertools.product(*map(range, x.shape))]
    if not cols:
        return np.zeros(np.shape(f(x)) + x.shape)
    return np.stack(cols, axis=-1).reshape(np.shape(cols[0]) + x.shape)


def partial_derivative_two_slot(f: Callable, x: np.ndarray, u: np.ndarray, slot: int,
                                h: float) -> np.ndarray:
    """Partial derivatives of ``f(x, u)`` in argument ``slot`` (0 or 1), axes last.

    At one point (``x`` and ``u`` 1-d) this is :func:`gradient` in that
    argument.  At stacked points (``x`` of shape ``lead + (r,)``, ``u`` of
    shape ``lead + (m,)``) ``f`` must take stacked points, and the last
    axis of the slot argument is differenced: each of its columns is
    shifted at all points at once, and the result has shape ``lead`` plus
    the point shape of ``f`` plus the length of that axis.
    """
    args = [np.array(x, dtype=float), np.array(u, dtype=float)]
    z = args[slot]
    cols = []
    for i in range(z.shape[-1]):
        plus, minus = z.copy(), z.copy()
        plus[..., i] += h
        minus[..., i] -= h
        args[slot] = plus
        value = np.asarray(f(*args))
        args[slot] = minus
        cols.append((value - np.asarray(f(*args))) / (2.0 * h))
    if not cols:
        return np.zeros(np.shape(f(*args)) + (0,))
    return np.stack(cols, axis=-1)
