"""Central finite differences for callables.

All structure functions, section coefficients and Lagrangians in this
package accept optional analytic derivative callbacks.  The rule for a
missing one lives in :func:`algfield.algebroid.derivative_points`, the
one reader of every such derivative: it reads the callback when it is
given, else forms one :func:`central_difference` of the callable's
checked reader.  This is the only module that forms differences of
callables (the grid stencils of :mod:`algfield.fields` difference nodal
arrays).  :func:`gradient` serves the one callable of one point that has
no checked reader: the flow map of a section, differenced in its initial
point by :func:`~algfield.algebroid.flow_morphism_defect`.
The steps are fixed per kind of quantity; no model object carries its own:

* ``STEP`` for structure functions, sections and connection coefficients;
* ``FINE_STEP`` for Lagrangian partials, the gauge derivative of a
  pure-gauge connection on the general matrix-gauge path
  (``flat_connection_generator``, one :func:`central_difference` per
  block of nodes; gauges given by su(2) exponential coordinates are
  sampled in closed form, with no step) and the explicit
  time derivative of the momentum, which the mechanics integrator forms
  only for Lagrangians not declared ``autonomous``;
* ``HESSIAN_STEP`` for the velocity Hessian, a difference of momenta.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

STEP = 1e-4
FINE_STEP = 1e-6
HESSIAN_STEP = 1e-5


def central_difference(read: Callable, args: Sequence, slot: int, h: float,
                       ndim: int = 1) -> np.ndarray:
    """Derivatives of ``read(*args)`` in the last ``ndim`` axes of ``args[slot]``.

    The arguments share leading axes ``lead`` (``()`` at one point).  All
    ``+h`` and ``-h`` shifts go along one new axis after ``lead``, and
    ``read``, which takes stacked points, is called once on them.  The
    result has shape ``lead`` plus the point shape of ``read`` plus the
    differentiated shape; each entry is ``(read(z + h) - read(z - h)) /
    (2 h)`` of one point, bit for bit.
    """
    args = [np.asarray(a, dtype=float) for a in args]
    z = args[slot]
    axis = z.ndim - ndim
    lead, size = z.shape[:axis], math.prod(z.shape[axis:])
    args = [np.repeat(a.reshape(lead + (1,) + a.shape[axis:]), 2 * size, axis=axis)
            for a in args]
    # the diagonals of the (size, size) blocks of +h and -h shifts
    shifted = args[slot].reshape(lead + (2 * size * size,))
    shifted[..., :size * size:size + 1] += h
    shifted[..., size * size::size + 1] -= h
    values = np.asarray(read(*args))
    point = values.shape[axis + 1:]
    v = values.reshape((math.prod(lead), 2, size, math.prod(point)))
    jac = (v[:, 0] - v[:, 1]) / (2.0 * h)
    return jac.transpose(0, 2, 1).reshape(lead + point + z.shape[axis:])


def partial_derivative_two_slot(f: Callable, x: np.ndarray, u: np.ndarray, slot: int,
                                h: float) -> np.ndarray:
    """:func:`central_difference` of a stacked ``f(x, u)`` in argument ``slot``."""
    return central_difference(f, (x, u), slot, h)


def gradient(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """All partial derivatives at ``x`` of ``f``, which takes one point.

    ``f`` may be scalar or array valued, real or complex; the result keeps
    the dtype of its values.  For ``f`` with values of shape ``S`` and
    ``x`` of any shape ``X`` the result has shape ``S + X``: the
    differentiation axes come last (:func:`central_difference`).
    """
    x = np.asarray(x, dtype=float)
    if not x.size:
        return np.zeros(np.shape(f(x)) + x.shape)
    return central_difference(lambda z: np.array([f(p) for p in z]), (x,), 0, h, x.ndim)
