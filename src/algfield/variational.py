"""Euler-Lagrange residuals, invariance defects and conserved currents.

The variational problem lives over a coordinate base frame (identity
base anchor, commuting base directions); the Lagrangian is a scalar
function of the jet coordinates ``(x, u, y)``.  The field equations for
a critical section, in addition to the admissibility and morphism
constraints, read componentwise

    ``dL_al = d/dx^a (dL/dy^al_a) - Z[g, a, al] dL/dy^g_a
              - rho_al^A dL/du^A = 0``

where ``d/dx^a`` is the grid derivative of the composed momentum field
and ``Z`` the affine coefficient array of the pair.  The pointwise
first-variation identity

    ``(derivative of L along the lift of sigma) + dL_al sigma^al
      = div_h(J_sigma)``

holds off-shell at stencil accuracy and couples every piece of the
pipeline; on invariant Lagrangians it reduces to conservation of the
current ``J^a = sigma^al dL/dy^al_a`` along solutions.

Note the sign: the contraction of the Euler-Lagrange residual with the
section enters the identity with a plus on the left-hand side.  For
sections whose vertical components depend on ``u``, the identity holds
along admissible fields (only then does the total derivative of the
section match its chain rule through ``u``); for sections depending on
``x`` alone it holds for arbitrary fields.

The pointwise formulas (the Euler-Lagrange residual from a node's
momentum and its divergence, and the current of a vertical section) are
written once over node data with any leading axes.  The single-node
functions call them on one node; the whole-grid fields (momentum,
Euler-Lagrange residual, current) call them on blocks of nodes through
``fields.block_pass``.  The Lagrangian and section callables take one
node's ``(x, u, y)``, or, declared :func:`~algfield.fibred.stacked`, a
block of nodes, and must return their documented shape.  They are read only
through the checked readers (``Lagrangian.*_points``,
``ProjectableSection.vertical_points`` and
``FibredAlgebroidPair.coefficient``), at one node or at a block of
nodes, so a wrong shape raises either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .differentiation import FINE_STEP, central_difference
from .fibred import (
    FibredAlgebroidPair, ProjectableSection, complete_lift, sample_points, stacked, z_mixed)
from .fields import DiscretizedSection, GridSpec, block_pass, grid_derivative


@dataclass(frozen=True)
class Lagrangian:
    """Scalar action density on jet data, with optional analytic partials.

    Every callable takes one point: ``x`` of shape ``(base_dim,)``, ``u``
    of shape ``(fibre_dim,)`` and ``y`` of shape ``(kernel_rank,
    base_dim)``, or, declared :func:`~algfield.fibred.stacked`, points
    with leading axes ``lead``, and then returns ``lead`` plus its point
    shape.  ``value(x, u, y) -> ()`` (a float at one point);
    ``grad_u -> (fibre_dim,)`` and ``grad_y -> (kernel_rank, base_dim)``
    when supplied, else central differences of :meth:`value_points`.
    They are read through the ``*_points`` methods, at one point or at
    stacked points (once per point, or once for a stacked callable, also
    for the shifted points of a central difference), which raise on a
    result of any other shape.  ``hess_yy -> (kernel_rank, kernel_rank)``
    and ``hess_yu -> (kernel_rank, fibre_dim)`` are used, and checked, by
    the mechanics integrator (one-dimensional base) and may be omitted;
    it reads a ``grad_u`` or Hessian made by ``scenarios._constant``
    once per run, and every other callable at every stage.

    ``autonomous`` declares that ``value`` and every partial do not
    depend on the base point ``x``.  The mechanics integrator then skips
    the central difference of the momentum in time, which is exactly 0
    for such a Lagrangian; undeclared Lagrangians keep it.  A wrong
    declaration drops a real time dependence.
    """

    value: Callable
    grad_u: Optional[Callable] = None
    grad_y: Optional[Callable] = None
    hess_yy: Optional[Callable] = None
    hess_yu: Optional[Callable] = None
    autonomous: bool = False

    def value_points(self, x, u, y) -> np.ndarray:
        """``value`` at one point or at stacked points (``x`` of shape
        ``lead + (base_dim,)``, ``u`` and ``y`` with the same leading axes):
        shape ``lead``."""
        return sample_points(self.value, "value", (), x, u, y)

    def partial_u_points(self, x, u, y) -> np.ndarray:
        """``dL/du`` at one point or at stacked points: shape
        ``lead + (fibre_dim,)``, by central differences of ``value`` when
        ``grad_u`` is unset."""
        fn = self.grad_u
        if fn is None:
            fn = stacked(lambda x, u, y: central_difference(self.value_points, (x, u, y), 1,
                                                            FINE_STEP))
        return sample_points(fn, "grad_u", u.shape[x.ndim - 1:], x, u, y)

    def partial_y_points(self, x, u, y) -> np.ndarray:
        """``dL/dy`` at one point or at stacked points: shape
        ``lead + (kernel_rank, base_dim)``, by central differences of
        ``value`` when ``grad_y`` is unset."""
        fn = self.grad_y
        if fn is None:
            fn = stacked(lambda x, u, y: central_difference(self.value_points, (x, u, y), 2,
                                                            FINE_STEP, ndim=2))
        return sample_points(fn, "grad_y", y.shape[x.ndim - 1:], x, u, y)


def _require_coordinate_base(pair: FibredAlgebroidPair) -> None:
    if not pair.is_coordinate_base:
        raise ValueError(
            "variational operations require the coordinate base frame "
            "(identity base anchor, vanishing base bracket)"
        )


def _require_vertical(sigma: ProjectableSection) -> None:
    if not sigma.is_vertical:
        raise ValueError("this operation requires a vertical section")


def _momentum_field(lagrangian: Lagrangian, section: DiscretizedSection) -> np.ndarray:
    """``dL/dy`` at every node, shape ``extents + (kernel_rank, base_dim)``."""
    out = np.empty(section.y.shape)

    def step(x, u, y, mom):
        mom[...] = lagrangian.partial_y_points(x, u, y)

    block_pass(section.grid, step, section.u, section.y, out)
    return out


def _divergence(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Grid divergence ``sum_a d_a values[..., a]`` at every node."""
    out = np.zeros(values.shape[:-1])
    for a in range(grid.dim):
        out += grid_derivative(values[..., a], grid, a)
    return out


def _el_local(pair: FibredAlgebroidPair, lagrangian: Lagrangian, x, u, y,
              mom: np.ndarray, div: np.ndarray) -> np.ndarray:
    """Euler-Lagrange residual at nodes with coordinates ``x`` (shape
    ``lead + (base_dim,)``) and jet data ``u``, ``y``, from their momenta
    and momentum divergences."""
    zm = z_mixed(pair.coefficient("c_mixed", x, u), pair.coefficient("c_kernel", x, u), y)
    out = div - np.einsum("...gak,...ga->...k", zm, mom)
    if u.shape[-1]:
        out -= np.einsum("...kA,...A->...k", pair.coefficient("rho_kernel_u", x, u),
                         lagrangian.partial_u_points(x, u, y))
    return out


def _current(s: np.ndarray, mom: np.ndarray) -> np.ndarray:
    """Current ``J^a = sigma^alpha dL/dy[alpha, a]`` from the section
    components and momenta, over any leading axes."""
    return np.einsum("...k,...ka->...a", s, mom)


def el_residual(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                section: DiscretizedSection, idx) -> np.ndarray:
    """Euler-Lagrange residual ``dL_alpha`` at one node (shape ``(kernel_rank,)``).

    The outer derivative differentiates the composed momentum field node
    to node (no chain-rule expansion, no second derivatives of L).
    """
    _require_coordinate_base(pair)
    idx = tuple(idx)
    mom = _momentum_field(lagrangian, section)
    return _el_local(pair, lagrangian, section.grid.coords(idx), section.u[idx],
                     section.y[idx], mom[idx], _divergence(mom, section.grid)[idx])


def el_residual_field(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                      section: DiscretizedSection) -> np.ndarray:
    """Euler-Lagrange residual at every node, shape ``extents + (kernel_rank,)``."""
    _require_coordinate_base(pair)
    mom = _momentum_field(lagrangian, section)
    out = _divergence(mom, section.grid)  # each node's residual overwrites its divergence

    def step(x, u, y, m, div):
        div[...] = _el_local(pair, lagrangian, x, u, y, m, div)

    block_pass(section.grid, step, section.u, section.y, mom, out)
    return out


def noether_current(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                    sigma: ProjectableSection, section: DiscretizedSection,
                    idx) -> np.ndarray:
    """Current ``J^a = sigma^alpha dL/dy[alpha, a]`` of a vertical section."""
    _require_vertical(sigma)
    idx = tuple(idx)
    x, u, y = section.grid.coords(idx), section.u[idx], section.y[idx]
    return _current(sigma.vertical_points(x, u, section.kernel_rank),
                    lagrangian.partial_y_points(x, u, y))


def invariance_defect(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                      sigma: ProjectableSection, section: DiscretizedSection,
                      idx) -> float:
    """Derivative of the Lagrangian along the complete lift of a vertical section.

    Zero (for all jet data) exactly when the Lagrangian is invariant
    under the section.
    """
    _require_vertical(sigma)
    p = section.jet_point(idx)
    _, du, dy = complete_lift(pair, sigma, p)
    out = float(np.sum(lagrangian.partial_y_points(p.x, p.u, p.y) * dy))
    if section.fibre_dim:
        out += float(lagrangian.partial_u_points(p.x, p.u, p.y) @ du)
    return out


def first_variation_identity_defect(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                                    sigma: ProjectableSection,
                                    section: DiscretizedSection, nodes) -> list:
    """Pointwise defect of the first-variation identity at each of ``nodes``.

    ``| dL/ds along lift + dL_al sigma^al - div_h(J_sigma) |`` -- of
    stencil order for any field (see module docstring for the
    u-dependent-section caveat), without assuming the field solves
    anything.  The complete lift is taken at the listed nodes only.
    """
    _require_vertical(sigma)
    _require_coordinate_base(pair)
    mom = _momentum_field(lagrangian, section)
    el_div = _divergence(mom, section.grid)
    current_div = _divergence(_current_field(sigma, section, mom).values, section.grid)
    out = []
    for idx in map(tuple, nodes):
        x, u, y = section.grid.coords(idx), section.u[idx], section.y[idx]
        inv = invariance_defect(pair, lagrangian, sigma, section, idx)
        el = _el_local(pair, lagrangian, x, u, y, mom[idx], el_div[idx])
        s = sigma.vertical_points(x, u, section.kernel_rank)
        out.append(abs(inv + float(el @ s) - float(current_div[idx])))
    return out


@dataclass(frozen=True)
class NoetherCurrent:
    """Current components ``J^a`` of a vertical section at every node.

    ``values[idx, a] = sigma^alpha dL/dy[alpha, a]``; on solutions of an
    invariant Lagrangian the grid divergence vanishes at stencil order.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite current components")

    def divergence(self, idx) -> float:
        return float(_divergence(self.values, self.grid)[tuple(idx)])


def noether_current_field(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                          sigma: ProjectableSection,
                          section: DiscretizedSection) -> NoetherCurrent:
    """Evaluate the current of a vertical section over the whole grid."""
    _require_vertical(sigma)
    return _current_field(sigma, section, _momentum_field(lagrangian, section))


def _current_field(sigma: ProjectableSection, section: DiscretizedSection,
                   mom: np.ndarray) -> NoetherCurrent:
    out = np.empty(section.grid.extents + (section.grid.dim,))

    def step(x, u, m, current):
        current[...] = _current(sigma.vertical_points(x, u, m.shape[-2]), m)

    block_pass(section.grid, step, section.u, mom, out)
    return NoetherCurrent(grid=section.grid, values=out)
