"""Fibred algebroid pairs, first-order jet data and complete lifts.

The ambient geometry of every field scenario is a surjective algebroid
map onto a base algebroid over an ``r``-dimensional chart with
coordinates ``x``, fibre coordinates ``u`` on the total chart, and an
adapted frame split into base directions ``e_a`` and kernel directions
``e_alpha``.  The structure data in such a frame is

* base anchor ``rho_a^i(x)`` and base bracket ``C_bc^a(x)``,
* mixed anchor blocks ``rho_a^A(x, u)`` and ``rho_alpha^A(x, u)``,
* bracket blocks ``C_ab^g``, ``C_ab^c``, ``C_{a beta}^g``,
  ``C_{alpha beta}^g`` (brackets of kernel directions carry no base
  component, so the projection is a morphism by construction).

First-order field data is a point ``(x, u, y)`` with ``y[alpha, a]`` the
kernel component of the splitting the field assigns to ``e_a``.  Affine
functions of ``y``, total derivatives, the affine coefficients
``Z`` and the complete lift of a projectable section are implemented
here; all of it reduces to classical jet-bundle calculus when the
kernel is a coordinate fibre.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebroid import LieAlgebroid, PForm, Section, lie_derivative
from .differentiation import STEP, gradient, partial_derivative_two_slot


def _antisym01(c: np.ndarray) -> np.ndarray:
    return 0.5 * (c - np.swapaxes(c, 0, 1))


@dataclass(frozen=True)
class FibredAlgebroidPair:
    """Adapted structure data of a fibred algebroid pair in one chart.

    ``base_dim`` is both the dimension of the base chart and the rank of
    the base algebroid (indices ``a, b, c`` and ``i, j`` share range).
    ``rho_f``/``c_f`` default to the coordinate frame of the base chart
    (identity anchor, vanishing bracket), which is the setting of the
    variational operations.

    Index conventions for the coefficient callables:

    * ``rho_f(x)[a, i] = rho_a^i``
    * ``c_f(x)[b, c, a] = C_bc^a`` (antisym in first two axes)
    * ``rho_base_u(x, u)[a, A] = rho_a^A``
    * ``rho_kernel_u(x, u)[alpha, A] = rho_alpha^A``
    * ``c_base_kernel(x, u)[a, b, gamma] = C_ab^gamma`` (antisym first two)
    * ``c_mixed(x, u)[a, beta, gamma] = C_{a beta}^gamma``
    * ``c_kernel(x, u)[alpha, beta, gamma]`` (antisym first two)
    """

    base_dim: int
    fibre_dim: int
    kernel_rank: int
    rho_f: Optional[Callable] = None
    c_f: Optional[Callable] = None
    rho_base_u: Optional[Callable] = None
    rho_kernel_u: Optional[Callable] = None
    c_base_kernel: Optional[Callable] = None
    c_mixed: Optional[Callable] = None
    c_kernel: Optional[Callable] = None

    @property
    def is_coordinate_base(self) -> bool:
        """True when the base algebroid is the coordinate tangent frame."""
        return self.rho_f is None and self.c_f is None

    # -- coefficient accessors (shape-checked, antisymmetrized) -----------

    def rho_f_at(self, x) -> np.ndarray:
        r = self.base_dim
        if self.rho_f is None:
            return np.eye(r)
        out = np.asarray(self.rho_f(np.asarray(x, dtype=float)), dtype=float)
        if out.shape != (r, r):
            raise ValueError(f"rho_f shape {out.shape} != ({r}, {r})")
        return out

    def c_f_at(self, x) -> np.ndarray:
        r = self.base_dim
        if self.c_f is None:
            return np.zeros((r, r, r))
        return _antisym01(np.asarray(self.c_f(np.asarray(x, dtype=float)), dtype=float))

    def rho_base_u_at(self, x, u) -> np.ndarray:
        if self.rho_base_u is None:
            return np.zeros((self.base_dim, self.fibre_dim))
        out = np.asarray(self.rho_base_u(x, u), dtype=float)
        if out.shape != (self.base_dim, self.fibre_dim):
            raise ValueError("rho_base_u has wrong shape")
        return out

    def rho_kernel_u_at(self, x, u) -> np.ndarray:
        if self.rho_kernel_u is None:
            return np.zeros((self.kernel_rank, self.fibre_dim))
        out = np.asarray(self.rho_kernel_u(x, u), dtype=float)
        if out.shape != (self.kernel_rank, self.fibre_dim):
            raise ValueError("rho_kernel_u has wrong shape")
        return out

    def c_base_kernel_at(self, x, u) -> np.ndarray:
        if self.c_base_kernel is None:
            return np.zeros((self.base_dim, self.base_dim, self.kernel_rank))
        return _antisym01(np.asarray(self.c_base_kernel(x, u), dtype=float))

    def c_mixed_at(self, x, u) -> np.ndarray:
        if self.c_mixed is None:
            return np.zeros((self.base_dim, self.kernel_rank, self.kernel_rank))
        return np.asarray(self.c_mixed(x, u), dtype=float)

    def c_kernel_at(self, x, u) -> np.ndarray:
        k = self.kernel_rank
        if self.c_kernel is None:
            return np.zeros((k, k, k))
        return _antisym01(np.asarray(self.c_kernel(x, u), dtype=float))

    # -- assembled models --------------------------------------------------

    def total_algebroid(self) -> LieAlgebroid:
        """The full algebroid over the total chart ``z = (x, u)``.

        Rank ``r + m_k`` with frame ordered base-first; used to run the
        single-chart calculus (structure residuals, Lie derivatives,
        flows) on the ambient bundle.
        """
        r, mu, mk = self.base_dim, self.fibre_dim, self.kernel_rank

        def anchor(z):
            x, u = z[:r], z[r:]
            out = np.zeros((r + mk, r + mu))
            out[:r, :r] = self.rho_f_at(x)
            out[:r, r:] = self.rho_base_u_at(x, u)
            out[r:, r:] = self.rho_kernel_u_at(x, u)
            return out

        def coeffs(z):
            x, u = z[:r], z[r:]
            out = np.zeros((r + mk, r + mk, r + mk))
            out[:r, :r, :r] = self.c_f_at(x)
            out[:r, :r, r:] = self.c_base_kernel_at(x, u)
            mixed = self.c_mixed_at(x, u)
            out[:r, r:, r:] = mixed
            out[r:, :r, r:] = -np.swapaxes(mixed, 0, 1)
            out[r:, r:, r:] = self.c_kernel_at(x, u)
            return out

        return LieAlgebroid(
            base_dim=r + mu,
            rank=r + mk,
            anchor=anchor,
            bracket_coeffs=coeffs,
        )


@dataclass(frozen=True)
class JetPoint:
    """First-order field data ``(x, u, y)`` with ``y[alpha, a]``."""

    x: np.ndarray
    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        for name in ("x", "u", "y"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite entries in jet point component {name!r}")
        if self.y.ndim != 2:
            raise ValueError("y must be a (kernel_rank, base_dim) array")


@dataclass(frozen=True)
class AffineDualSection:
    """Coefficients of a fibrewise affine function of the jet coordinates.

    ``coeff_base(x, u)[a, b]`` pairs with the base block of a splitting
    (the identity), ``coeff_kernel(x, u)[a, alpha]`` with ``y[alpha, a]``;
    the associated function is the trace pairing evaluated by
    :func:`affine_eval`.
    """

    base_dim: int
    kernel_rank: int
    coeff_base: Callable
    coeff_kernel: Callable

    def base_at(self, x, u) -> np.ndarray:
        out = np.asarray(self.coeff_base(x, u), dtype=float)
        if out.shape != (self.base_dim, self.base_dim):
            raise ValueError("coeff_base has wrong shape")
        return out

    def kernel_at(self, x, u) -> np.ndarray:
        out = np.asarray(self.coeff_kernel(x, u), dtype=float)
        if out.shape != (self.base_dim, self.kernel_rank):
            raise ValueError("coeff_kernel has wrong shape")
        return out


@dataclass(frozen=True)
class ProjectableSection:
    """A section with base components depending on ``x`` only.

    ``base_coeffs(x)[a] = sigma^a`` (``None`` for a vertical section) and
    ``vertical_coeffs(x, u)[alpha] = sigma^alpha``.  Optional analytic
    derivatives follow the usual layout (value indices first,
    differentiation index last).
    """

    base_coeffs: Optional[Callable] = None
    vertical_coeffs: Optional[Callable] = None
    d_base: Optional[Callable] = None
    d_vertical_x: Optional[Callable] = None
    d_vertical_u: Optional[Callable] = None

    @property
    def is_vertical(self) -> bool:
        return self.base_coeffs is None

    def base_at(self, x, base_dim: int) -> np.ndarray:
        if self.base_coeffs is None:
            return np.zeros(base_dim)
        return np.asarray(self.base_coeffs(np.asarray(x, dtype=float)), dtype=float)

    def vertical_at(self, x, u, kernel_rank: int) -> np.ndarray:
        if self.vertical_coeffs is None:
            return np.zeros(kernel_rank)
        return np.asarray(self.vertical_coeffs(x, u), dtype=float)

    def base_jacobian(self, x, base_dim: int) -> np.ndarray:
        if self.base_coeffs is None:
            return np.zeros((base_dim, np.asarray(x).size))
        if self.d_base is not None:
            return np.asarray(self.d_base(np.asarray(x, dtype=float)), dtype=float)
        return gradient(lambda z: self.base_at(z, base_dim), x, STEP)

    def vertical_jacobian_x(self, x, u, kernel_rank: int) -> np.ndarray:
        if self.vertical_coeffs is None:
            return np.zeros((kernel_rank, np.asarray(x).size))
        if self.d_vertical_x is not None:
            return np.asarray(self.d_vertical_x(x, u), dtype=float)
        return partial_derivative_two_slot(self.vertical_coeffs, x, u, 0, STEP)

    def vertical_jacobian_u(self, x, u, kernel_rank: int) -> np.ndarray:
        if self.vertical_coeffs is None:
            return np.zeros((kernel_rank, np.asarray(u).size))
        if self.d_vertical_u is not None:
            return np.asarray(self.d_vertical_u(x, u), dtype=float)
        return partial_derivative_two_slot(self.vertical_coeffs, x, u, 1, STEP)

    @staticmethod
    def vertical_constant(values) -> "ProjectableSection":
        v = np.asarray(values, dtype=float)
        return ProjectableSection(
            vertical_coeffs=lambda x, u: v,
            d_vertical_x=lambda x, u: np.zeros((v.size, np.asarray(x).size)),
            d_vertical_u=lambda x, u: np.zeros((v.size, np.asarray(u).size)),
        )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def affine_eval(theta: AffineDualSection, p: JetPoint) -> float:
    """Evaluate the affine function of ``theta``: ``tr(T) + sum K[a,al] y[al,a]``."""
    t = theta.base_at(p.x, p.u)
    k = theta.kernel_at(p.x, p.u)
    return float(np.trace(t) + np.einsum("ak,ka->", k, p.y))


def total_derivative(pair: FibredAlgebroidPair, f: Callable, p: JetPoint,
                     a: Optional[int] = None, grad_x: Optional[Callable] = None,
                     grad_u: Optional[Callable] = None) -> np.ndarray:
    """Total derivative of ``f(x, u)`` at the jet point.

    ``f_{|a} = rho_a^i d_i f + (rho_a^A + rho_alpha^A y^alpha_a) d_A f``;
    the second slot carries the velocity that an admissible field with
    this jet would impose on ``u``.  Returns the full ``(r,)`` vector, or
    the single component when ``a`` is given.
    """
    x, u = p.x, p.u
    if grad_x is not None:
        fx = np.asarray(grad_x(x, u), dtype=float)
    else:
        fx = partial_derivative_two_slot(f, x, u, 0, STEP)
    if grad_u is not None:
        fu = np.asarray(grad_u(x, u), dtype=float)
    else:
        fu = partial_derivative_two_slot(f, x, u, 1, STEP)

    rho_f = pair.rho_f_at(x)
    vel = pair.rho_base_u_at(x, u) + np.einsum("kA,ka->aA", pair.rho_kernel_u_at(x, u), p.y)
    out = rho_f @ fx + vel @ fu
    return out if a is None else float(out[a])


def z_functions(pair: FibredAlgebroidPair, p: JetPoint):
    """The affine coefficient arrays at a jet point.

    Returns ``(z_mixed, z_base)`` with

    * ``z_mixed[alpha, a, gamma] = C_{a gamma}^alpha + C_{beta gamma}^alpha y^beta_a``
    * ``z_base[alpha, a, c] = C_{a c}^alpha + C_{beta c}^alpha y^beta_a``

    where ``C_{beta c}^alpha = -C_{c beta}^alpha``.  Both are affine in
    ``y``; at ``y = 0`` they reduce to the plain bracket coefficients.
    """
    x, u, y = p.x, p.u, p.y
    cm = pair.c_mixed_at(x, u)
    ck = pair.c_kernel_at(x, u)
    cbk = pair.c_base_kernel_at(x, u)
    z_mixed = np.einsum("agk->kag", cm).copy()
    z_mixed += np.einsum("bgk,ba->kag", ck, y)
    z_base = np.einsum("ack->kac", cbk).copy()
    z_base -= np.einsum("cbk,ba->kac", cm, y)
    return z_mixed, z_base


def complete_lift(pair: FibredAlgebroidPair, sigma: ProjectableSection, p: JetPoint):
    """Velocity of the jet-space flow generated by a projectable section.

    Returns ``(dx, du, dy)`` with

    * ``dx^i = rho_a^i sigma^a``
    * ``du^A = rho_a^A sigma^a + rho_alpha^A sigma^alpha``
    * ``dy[al, a] = sigma^al_{|a} + z_base[al, a, b] sigma^b
      + z_mixed[al, a, be] sigma^be - y[al, b] (sigma^b_{|a} + sigma^c C_ac^b)``

    with total derivatives taken at the jet point.  The lift is linear in
    the section; for a vertical section it reduces to
    ``du = rho_alpha^A sigma^alpha`` and
    ``dy = sigma^al_{|a} + z_mixed[al, a, be] sigma^be``.
    """
    r, mu, mk = pair.base_dim, pair.fibre_dim, pair.kernel_rank
    x, u, y = p.x, p.u, p.y

    sa = sigma.base_at(x, r)
    sk = sigma.vertical_at(x, u, mk)
    rho_f = pair.rho_f_at(x)
    dx = np.einsum("ai,a->i", rho_f, sa)
    du = pair.rho_base_u_at(x, u).T @ sa + pair.rho_kernel_u_at(x, u).T @ sk

    # total derivative of the vertical components along the jet
    vel = pair.rho_base_u_at(x, u) + np.einsum("kA,ka->aA", pair.rho_kernel_u_at(x, u), y)
    jac_x = sigma.vertical_jacobian_x(x, u, mk)
    jac_u = sigma.vertical_jacobian_u(x, u, mk)
    tdv = np.einsum("ai,ki->ka", rho_f, jac_x) + np.einsum("aA,kA->ka", vel, jac_u)

    z_mixed, z_base = z_functions(pair, p)
    dy = tdv + np.einsum("kab,b->ka", z_base, sa) + np.einsum("kab,b->ka", z_mixed, sk)

    if not sigma.is_vertical:
        tdb = np.einsum("ai,bi->ba", rho_f, sigma.base_jacobian(x, r))
        cc = np.einsum("c,acb->ba", sa, pair.c_f_at(x))
        dy -= np.einsum("kb,ba->ka", y, tdb + cc)
    return dx, du, dy


def lie_derivative_affine_dual(pair: FibredAlgebroidPair, sigma: ProjectableSection,
                               theta: AffineDualSection) -> AffineDualSection:
    """Derivative of an affine-dual section along a projectable section.

    Computed through a representative on the total algebroid: each base
    row of ``theta`` is a one-form there, Lie-derived with the Cartan
    calculus, and rows mix through the bracket of the base projection
    with the section (the mixing vanishes for vertical sections).  The
    result generates the same affine function that the complete lift
    differentiates, which is the content of the lift/derivative duality
    test in the suite.
    """
    r, mu, mk = pair.base_dim, pair.fibre_dim, pair.kernel_rank
    total = pair.total_algebroid()

    def sigma_total(z):
        x, u = z[:r], z[r:]
        return np.concatenate([sigma.base_at(x, r), sigma.vertical_at(x, u, mk)])

    sig = Section(coeffs=sigma_total)

    def row_form(a):
        def coeffs(z):
            x, u = z[:r], z[r:]
            return np.concatenate([theta.base_at(x, u)[a], theta.kernel_at(x, u)[a]])
        return PForm(degree=1, coeffs=coeffs)

    def derived_rows(x, u):
        z = np.concatenate([np.asarray(x, dtype=float), np.asarray(u, dtype=float)])
        rows = np.stack([lie_derivative(total, sig, row_form(a), z) for a in range(r)])
        if not sigma.is_vertical:
            # rows mix through the bracket of the projected section with the
            # base frame: out row b -= mix[b, a] * theta row a
            rho_f = pair.rho_f_at(x)
            tdb = np.einsum("ai,bi->ba", rho_f, sigma.base_jacobian(x, r))
            cc = np.einsum("c,acb->ba", sigma.base_at(x, r), pair.c_f_at(x))
            mix = tdb + cc
            all_rows = np.concatenate([theta.base_at(x, u), theta.kernel_at(x, u)], axis=1)
            rows -= np.einsum("ba,ac->bc", mix, all_rows)
        return rows

    def coeff_base(x, u):
        return derived_rows(x, u)[:, :r]

    def coeff_kernel(x, u):
        return derived_rows(x, u)[:, r:]

    return AffineDualSection(base_dim=r, kernel_rank=mk,
                             coeff_base=coeff_base, coeff_kernel=coeff_kernel)
