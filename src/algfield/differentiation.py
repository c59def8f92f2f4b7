"""Central finite differences for pointwise callables.

All structure functions, section coefficients and Lagrangians in this
package accept optional analytic derivative callbacks.  When a callback is
missing, the operations fall back to the second-order central differences
implemented here.  The default step is ``DEFAULT_FD_STEP``; every model
object carries its own (configurable) step.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

DEFAULT_FD_STEP = 1e-4


def partial_derivative(f: Callable, x: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Central difference of ``f`` (scalar or array valued) along one coordinate."""
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[axis] += h
    xm[axis] -= h
    return (np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2.0 * h)


def gradient(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """All partial derivatives of ``f`` at ``x``.

    For array-valued ``f`` of shape ``S`` the result has shape ``S + (len(x),)``,
    with the differentiation index last.
    """
    x = np.asarray(x, dtype=float)
    cols = [partial_derivative(f, x, i, h) for i in range(x.size)]
    if cols and np.ndim(cols[0]) == 0:
        return np.array(cols, dtype=float)
    return np.stack(cols, axis=-1)


def partial_derivative_two_slot(
    f: Callable, x: np.ndarray, u: np.ndarray, slot: int, axis: int, h: float
) -> np.ndarray:
    """Central difference of ``f(x, u)`` in coordinate ``axis`` of argument ``slot`` (0 or 1)."""
    a = np.array(x, dtype=float)
    b = np.array(u, dtype=float)
    if slot == 0:
        return partial_derivative(lambda z: f(z, b), a, axis, h)
    return partial_derivative(lambda z: f(a, z), b, axis, h)
