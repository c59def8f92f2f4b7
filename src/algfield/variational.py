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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .differentiation import FINE_STEP, gradient
from .fibred import FibredAlgebroidPair, JetPoint, ProjectableSection, complete_lift, z_functions
from .fields import DiscretizedSection, GridSpec, node_derivative, node_stencil


@dataclass(frozen=True)
class Lagrangian:
    """Scalar action density on jet data, with optional analytic partials.

    ``value(x, u, y) -> float``; ``grad_u -> (fibre_dim,)`` and
    ``grad_y -> (kernel_rank, base_dim)`` when supplied, else central
    differences.  ``hess_yy``/``hess_yu`` are used by the
    mechanics integrator (one-dimensional base) and may be omitted.
    """

    value: Callable
    grad_u: Optional[Callable] = None
    grad_y: Optional[Callable] = None
    hess_yy: Optional[Callable] = None
    hess_yu: Optional[Callable] = None

    def at(self, p: JetPoint) -> float:
        return float(self.value(p.x, p.u, p.y))

    def partial_u(self, p: JetPoint) -> np.ndarray:
        return self.partial_u_arrays(p.x, p.u, p.y)

    def partial_y(self, p: JetPoint) -> np.ndarray:
        return self.partial_y_arrays(p.x, p.u, p.y)

    def partial_u_arrays(self, x, u, y) -> np.ndarray:
        if self.grad_u is not None:
            return np.asarray(self.grad_u(x, u, y), dtype=float)
        return gradient(lambda v: self.value(x, v, y), u, FINE_STEP)

    def partial_y_arrays(self, x, u, y) -> np.ndarray:
        if self.grad_y is not None:
            return np.asarray(self.grad_y(x, u, y), dtype=float)
        return gradient(lambda v: self.value(x, u, v), y, FINE_STEP)

    def __add__(self, other: "Lagrangian") -> "Lagrangian":
        def add2(f, g):
            if f is None or g is None:
                return None
            return lambda x, u, y: np.asarray(f(x, u, y)) + np.asarray(g(x, u, y))

        return Lagrangian(
            value=lambda x, u, y: self.value(x, u, y) + other.value(x, u, y),
            grad_u=add2(self.grad_u, other.grad_u),
            grad_y=add2(self.grad_y, other.grad_y),
        )


def _require_coordinate_base(pair: FibredAlgebroidPair) -> None:
    if not pair.is_coordinate_base:
        raise ValueError(
            "variational operations require the coordinate base frame "
            "(identity base anchor, vanishing base bracket)"
        )


def _require_vertical(sigma: ProjectableSection) -> None:
    if not sigma.is_vertical:
        raise ValueError("this operation requires a vertical section")


def el_residual(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                section: DiscretizedSection, idx) -> np.ndarray:
    """Euler-Lagrange residual ``dL_alpha`` at one node (shape ``(kernel_rank,)``).

    The outer derivative differentiates the composed momentum field node
    to node (no chain-rule expansion, no second derivatives of L).
    """
    _require_coordinate_base(pair)
    p = section.jet_point(idx)
    r = section.grid.dim

    div = np.zeros(section.kernel_rank)
    for a in range(r):
        div += node_stencil(
            lambda jj, a=a: lagrangian.partial_y(section.jet_point(jj))[:, a],
            section.grid, a, idx)

    z_mixed, _ = z_functions(pair, p)
    mom = lagrangian.partial_y(p)
    out = div - np.einsum("gak,ga->k", z_mixed, mom)
    if section.fibre_dim:
        out -= np.einsum("kA,A->k", pair.rho_kernel_u_at(p.x, p.u), lagrangian.partial_u(p))
    return out


def noether_current(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                    sigma: ProjectableSection, section: DiscretizedSection,
                    idx) -> np.ndarray:
    """Current ``J^a = sigma^alpha dL/dy[alpha, a]`` of a vertical section."""
    _require_vertical(sigma)
    p = section.jet_point(idx)
    s = sigma.vertical_at(p.x, p.u, section.kernel_rank)
    return np.einsum("k,ka->a", s, lagrangian.partial_y(p))


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
    out = float(np.sum(lagrangian.partial_y(p) * dy))
    if section.fibre_dim:
        out += float(lagrangian.partial_u(p) @ du)
    return out


def current_divergence(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                       sigma: ProjectableSection, section: DiscretizedSection,
                       idx) -> float:
    """Grid divergence of the current of a vertical section at one node."""
    _require_vertical(sigma)

    def current_component(jj, a):
        p = section.jet_point(jj)
        s = sigma.vertical_at(p.x, p.u, section.kernel_rank)
        return float(np.einsum("k,k->", s, lagrangian.partial_y(p)[:, a]))

    return float(sum(
        node_stencil(lambda jj, a=a: current_component(jj, a), section.grid, a, idx)
        for a in range(section.grid.dim)))


def first_variation_identity_defect(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                                    sigma: ProjectableSection,
                                    section: DiscretizedSection, idx) -> float:
    """Pointwise defect of the first-variation identity at one node.

    ``| dL/ds along lift + dL_al sigma^al - div_h(J_sigma) |`` -- of
    stencil order for any field (see module docstring for the
    u-dependent-section caveat), without assuming the field solves
    anything.
    """
    p = section.jet_point(idx)
    inv = invariance_defect(pair, lagrangian, sigma, section, idx)
    el = el_residual(pair, lagrangian, section, idx)
    s = sigma.vertical_at(p.x, p.u, section.kernel_rank)
    div = current_divergence(pair, lagrangian, sigma, section, idx)
    return abs(inv + float(el @ s) - div)


def el_residual_field(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                      section: DiscretizedSection) -> np.ndarray:
    """Euler-Lagrange residual at every node, shape ``extents + (kernel_rank,)``."""
    out = np.zeros(section.grid.extents + (section.kernel_rank,))
    for idx in section.grid.nodes():
        out[idx] = el_residual(pair, lagrangian, section, idx)
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
        return float(sum(node_derivative(self.values[..., a], self.grid, a, idx)
                         for a in range(self.grid.dim)))


def noether_current_field(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                          sigma: ProjectableSection,
                          section: DiscretizedSection) -> NoetherCurrent:
    """Evaluate the current of a vertical section over the whole grid."""
    _require_vertical(sigma)
    out = np.zeros(section.grid.extents + (section.grid.dim,))
    for idx in section.grid.nodes():
        out[idx] = noether_current(pair, lagrangian, sigma, section, idx)
    return NoetherCurrent(grid=section.grid, values=out)
