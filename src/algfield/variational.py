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
from .fields import DiscretizedSection, GridSpec, grid_derivative


@dataclass(frozen=True)
class Lagrangian:
    """Scalar action density on jet data, with optional analytic partials.

    ``value(x, u, y) -> float``; ``grad_u -> (fibre_dim,)`` and
    ``grad_y -> (kernel_rank, base_dim)`` when supplied, else central
    differences.  ``hess_yy``/``hess_yu`` are used by the
    mechanics integrator (one-dimensional base) and may be omitted.

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
            hess_yy=add2(self.hess_yy, other.hess_yy),
            hess_yu=add2(self.hess_yu, other.hess_yu),
            autonomous=self.autonomous and other.autonomous,
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


def _momentum_field(lagrangian: Lagrangian, section: DiscretizedSection) -> np.ndarray:
    """``dL/dy`` at every node, shape ``extents + (kernel_rank, base_dim)``."""
    out = np.zeros(section.y.shape)
    for idx in section.grid.nodes():
        out[idx] = lagrangian.partial_y(section.jet_point(idx))
    return out


def _divergence(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Grid divergence ``sum_a d_a values[..., a]`` at every node."""
    out = np.zeros(values.shape[:-1])
    for a in range(grid.dim):
        out += grid_derivative(values[..., a], grid, a)
    return out


def _el_local(pair: FibredAlgebroidPair, lagrangian: Lagrangian, p: JetPoint,
              mom: np.ndarray, div: np.ndarray) -> np.ndarray:
    """Euler-Lagrange residual at ``p`` from its momentum and momentum divergence."""
    z_mixed, _ = z_functions(pair, p)
    out = div - np.einsum("gak,ga->k", z_mixed, mom)
    if p.u.size:
        out -= np.einsum("kA,A->k", pair.rho_kernel_u_at(p.x, p.u), lagrangian.partial_u(p))
    return out


def el_residual(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                section: DiscretizedSection, idx) -> np.ndarray:
    """Euler-Lagrange residual ``dL_alpha`` at one node (shape ``(kernel_rank,)``).

    The outer derivative differentiates the composed momentum field node
    to node (no chain-rule expansion, no second derivatives of L).
    """
    _require_coordinate_base(pair)
    mom = _momentum_field(lagrangian, section)
    return _el_local(pair, lagrangian, section.jet_point(idx), mom[tuple(idx)],
                     _divergence(mom, section.grid)[tuple(idx)])


def el_residual_field(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                      section: DiscretizedSection) -> np.ndarray:
    """Euler-Lagrange residual at every node, shape ``extents + (kernel_rank,)``."""
    _require_coordinate_base(pair)
    mom = _momentum_field(lagrangian, section)
    out = _divergence(mom, section.grid)  # each node's residual overwrites its divergence
    for idx in section.grid.nodes():
        out[idx] = _el_local(pair, lagrangian, section.jet_point(idx), mom[idx], out[idx])
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
        p = section.jet_point(idx)
        inv = invariance_defect(pair, lagrangian, sigma, section, idx)
        el = _el_local(pair, lagrangian, p, mom[idx], el_div[idx])
        s = sigma.vertical_at(p.x, p.u, section.kernel_rank)
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
    out = np.zeros(section.grid.extents + (section.grid.dim,))
    for idx in section.grid.nodes():
        p = section.jet_point(idx)
        out[idx] = np.einsum("k,ka->a", sigma.vertical_at(p.x, p.u, mom.shape[-2]), mom[idx])
    return NoetherCurrent(grid=section.grid, values=out)
