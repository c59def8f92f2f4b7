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
kernel is a coordinate fibre.  The affine coefficients and the complete
lift are written once over node data ``(x, u, y)`` with any leading
axes; :func:`z_functions` and :func:`complete_lift` are their views at
one :class:`JetPoint`, and the variational checks apply them to a block
of grid nodes at once.

Every coefficient is a callable that takes one point, or, declared
:func:`stacked`, points with any leading axes.  Every read of one goes
through :func:`sample_points`: at stacked points it calls a stacked
callable once and any other once per point, stacking the results along
the leading axes of the points; at a single point it calls either once;
and either way a result of the wrong shape raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .algebroid import (
    LieAlgebroid, PForm, Section, derivative_points, lie_derivative, sample_points, stacked)
from .differentiation import STEP


def _antisym01(c: np.ndarray) -> np.ndarray:
    """Antisymmetric part in the first two point axes of a (stacked) 3-index array;
    one value broadcast over the points is antisymmetrized once and stays a view."""
    if c.ndim > 3 and not any(c.strides[:-3]):
        return np.broadcast_to(_antisym01(c[(0,) * (c.ndim - 3)]), c.shape)
    return 0.5 * (c - np.swapaxes(c, -3, -2))


@dataclass(frozen=True)
class FibredAlgebroidPair:
    """Adapted structure data of a fibred algebroid pair in one chart.

    ``base_dim`` is both the dimension of the base chart and the rank of
    the base algebroid (indices ``a, b, c`` and ``i, j`` share range).
    ``rho_f``/``c_f`` default to the coordinate frame of the base chart
    (identity anchor, vanishing bracket), which is the setting of the
    variational operations.

    Index conventions for the coefficient callables, with ``r``, ``m``
    and ``k`` the base dimension, fibre dimension and kernel rank:

    * ``rho_f(x)[a, i] = rho_a^i``, shape ``(r, r)``
    * ``c_f(x)[b, c, a] = C_bc^a``, ``(r, r, r)`` (antisym in first two axes)
    * ``rho_base_u(x, u)[a, A] = rho_a^A``, ``(r, m)``
    * ``rho_kernel_u(x, u)[alpha, A] = rho_alpha^A``, ``(k, m)``
    * ``c_base_kernel(x, u)[a, b, gamma] = C_ab^gamma``, ``(r, r, k)``
      (antisym first two)
    * ``c_mixed(x, u)[a, beta, gamma] = C_{a beta}^gamma``, ``(r, k, k)``
    * ``c_kernel(x, u)[alpha, beta, gamma]``, ``(k, k, k)`` (antisym first two)

    Each callable takes one point, ``x`` of shape ``(r,)`` and ``u`` of
    shape ``(m,)``, and must return exactly its shape; a :func:`stacked`
    one also takes ``x`` of shape ``lead + (r,)`` and ``u`` of shape
    ``lead + (m,)`` and returns ``lead`` plus its shape.  It is read through
    :meth:`coefficient` (the mechanics integrator reads the raw kernel
    constants through :func:`sample_points`), at one point or at stacked
    points, which raises on any other shape.  An unset (``None``)
    coefficient is never called.
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

    # -- the coefficient reader (antisymmetrized) -------------------------

    @cached_property
    def _shapes(self) -> dict:
        r, m, k = self.base_dim, self.fibre_dim, self.kernel_rank
        return {"rho_f": (r, r), "c_f": (r, r, r), "rho_base_u": (r, m),
                "rho_kernel_u": (k, m), "c_base_kernel": (r, r, k),
                "c_mixed": (r, k, k), "c_kernel": (k, k, k)}

    def coefficient(self, name: str, x: np.ndarray, u: Optional[np.ndarray] = None) -> np.ndarray:
        """Coefficient ``name`` at one point or at stacked points,
        antisymmetrized where its convention says so.

        ``x`` has shape ``lead + (r,)`` and ``u`` (for the coefficients
        that take it) ``lead + (m,)``, with ``lead = ()`` for one point;
        the result has shape ``lead`` plus the coefficient's point shape,
        checked at every point (for a stacked coefficient, on the whole
        block).  An unset coefficient is not called and
        stays point-shaped (identity anchor or zeros), so it broadcasts
        against stacked operands; a value broadcast over the points (a
        builder's constant) stays a read-only broadcast view.
        """
        shape = self._shapes[name]
        fn = getattr(self, name)
        if fn is None:
            return np.eye(self.base_dim) if name == "rho_f" else np.zeros(shape)
        out = sample_points(fn, name, shape, x, *(() if u is None else (u,)))
        return _antisym01(out) if name in ("c_f", "c_base_kernel", "c_kernel") else out

    # -- assembled models --------------------------------------------------

    def total_algebroid(self) -> LieAlgebroid:
        """The full algebroid over the total chart ``z = (x, u)``.

        Rank ``r + m_k`` with frame ordered base-first; used to run the
        single-chart calculus (structure residuals, Lie derivatives,
        flows) on the ambient bundle.  Its anchor and bracket are
        :func:`stacked`: each reads every pair coefficient once for all
        the points it is given.
        """
        r, mu, mk = self.base_dim, self.fibre_dim, self.kernel_rank

        @stacked
        def anchor(z):
            x, u = z[..., :r], z[..., r:]
            out = np.zeros(z.shape[:-1] + (r + mk, r + mu))
            out[..., :r, :r] = self.coefficient("rho_f", x)
            out[..., :r, r:] = self.coefficient("rho_base_u", x, u)
            out[..., r:, r:] = self.coefficient("rho_kernel_u", x, u)
            return out

        @stacked
        def coeffs(z):
            x, u = z[..., :r], z[..., r:]
            out = np.zeros(z.shape[:-1] + (r + mk,) * 3)
            out[..., :r, :r, :r] = self.coefficient("c_f", x)
            out[..., :r, :r, r:] = self.coefficient("c_base_kernel", x, u)
            mixed = self.coefficient("c_mixed", x, u)
            out[..., :r, r:, r:] = mixed
            out[..., r:, :r, r:] = -np.swapaxes(mixed, -3, -2)
            out[..., r:, r:, r:] = self.coefficient("c_kernel", x, u)
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
    :func:`affine_eval`.  Both are read through :func:`sample_points`, which
    raises on any other shape than ``(r, r)`` and ``(r, k)``.
    """

    base_dim: int
    kernel_rank: int
    coeff_base: Callable
    coeff_kernel: Callable

    def base_at(self, x, u) -> np.ndarray:
        return sample_points(self.coeff_base, "coeff_base", (self.base_dim,) * 2, x, u)

    def kernel_at(self, x, u) -> np.ndarray:
        return sample_points(self.coeff_kernel, "coeff_kernel",
                             (self.base_dim, self.kernel_rank), x, u)


@dataclass(frozen=True)
class ProjectableSection:
    """A section with base components depending on ``x`` only.

    ``base_coeffs(x)[a] = sigma^a`` (``None`` for a vertical section) and
    ``vertical_coeffs(x, u)[alpha] = sigma^alpha``.  Optional analytic
    derivatives follow the usual layout (value indices first,
    differentiation index last).  Like the pair coefficients, each
    callable takes one point, or is :func:`stacked`, and is read through
    :func:`sample_points`, which raises on any other shape than
    ``base_coeffs`` ``(r,)``, ``d_base`` ``(r, r)``, ``vertical_coeffs``
    ``(kernel_rank,)``, ``d_vertical_x`` ``(kernel_rank, r)`` and
    ``d_vertical_u`` ``(kernel_rank, m)``.  Each is read at one point or
    at stacked points; a missing derivative is one central difference of
    the checked values.
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
        """``base_coeffs`` at one point or at stacked points: shape
        ``lead + (base_dim,)``, or a point-shaped zero when unset."""
        if self.base_coeffs is None:
            return np.zeros(base_dim)
        return sample_points(self.base_coeffs, "base_coeffs", (base_dim,),
                             np.asarray(x, dtype=float))

    def vertical_points(self, x: np.ndarray, u: np.ndarray, kernel_rank: int) -> np.ndarray:
        """``vertical_coeffs`` at one point or at stacked points (``x`` of
        shape ``lead + (r,)``, ``u`` of shape ``lead + (m,)``): shape
        ``lead + (kernel_rank,)``, or a point-shaped zero when unset."""
        if self.vertical_coeffs is None:
            return np.zeros(kernel_rank)
        return sample_points(self.vertical_coeffs, "vertical_coeffs", (kernel_rank,), x, u)

    def base_jacobian(self, x, base_dim: int) -> np.ndarray:
        """``d sigma^a / d x^i``: shape ``lead + (base_dim, r)``, from ``d_base``
        or by central differences of :meth:`base_at`, zero when unset."""
        x = np.asarray(x, dtype=float)
        if self.base_coeffs is None:
            return np.zeros((base_dim, x.shape[-1]))
        return derivative_points(self.d_base, "d_base", (base_dim, x.shape[-1]),
                                 lambda z: self.base_at(z, base_dim), (x,), 0, STEP)

    def vertical_jacobian_x(self, x, u, kernel_rank: int) -> np.ndarray:
        """``d sigma^alpha / d x^i``: shape ``lead + (kernel_rank, r)``, from
        ``d_vertical_x`` or by central differences of :meth:`vertical_points`."""
        return self._vertical_jacobian(self.d_vertical_x, "d_vertical_x", 0, x, u, kernel_rank)

    def vertical_jacobian_u(self, x, u, kernel_rank: int) -> np.ndarray:
        """``d sigma^alpha / d u^A``: shape ``lead + (kernel_rank, m)``, read
        like :meth:`vertical_jacobian_x`."""
        return self._vertical_jacobian(self.d_vertical_u, "d_vertical_u", 1, x, u, kernel_rank)

    def _vertical_jacobian(self, derivative, name, slot, x, u, kernel_rank):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        shape = (kernel_rank, (x, u)[slot].shape[-1])
        if self.vertical_coeffs is None:
            return np.zeros(shape)
        return derivative_points(derivative, name, shape,
                                 lambda x, u: self.vertical_points(x, u, kernel_rank),
                                 (x, u), slot, STEP)

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
                     grad_x: Optional[Callable] = None,
                     grad_u: Optional[Callable] = None) -> np.ndarray:
    """Total derivative of a scalar ``f(x, u)`` at the jet point.

    ``f_{|a} = rho_a^i d_i f + (rho_a^A + rho_alpha^A y^alpha_a) d_A f``;
    the second slot carries the velocity that an admissible field with
    this jet would impose on ``u``.  Returns the ``(r,)`` vector of all
    ``a``.  ``f`` (shape ``()``) is read through :func:`sample_points`,
    and ``grad_x``/``grad_u`` (``(r,)``/``(m,)``, else differences of
    ``f``) through :func:`derivative_points`.
    """
    x, u = p.x, p.u
    read = lambda x, u: sample_points(f, "f", (), x, u)
    fx = derivative_points(grad_x, "grad_x", x.shape, read, (x, u), 0, STEP)
    fu = derivative_points(grad_u, "grad_u", u.shape, read, (x, u), 1, STEP)

    vel = pair.coefficient("rho_base_u", x, u) + np.einsum(
        "kA,ka->aA", pair.coefficient("rho_kernel_u", x, u), p.y)
    return pair.coefficient("rho_f", x) @ fx + vel @ fu


def z_functions(pair: FibredAlgebroidPair, p: JetPoint):
    """The affine coefficient arrays at a jet point.

    Returns ``(z_mixed, z_base)`` with

    * ``z_mixed[alpha, a, gamma] = C_{a gamma}^alpha + C_{beta gamma}^alpha y^beta_a``
    * ``z_base[alpha, a, c] = C_{a c}^alpha + C_{beta c}^alpha y^beta_a``

    where ``C_{beta c}^alpha = -C_{c beta}^alpha``.  Both are affine in
    ``y``; at ``y = 0`` they reduce to the plain bracket coefficients.
    The one-point view of :func:`_z_functions`.
    """
    return _z_functions(pair, p.x, p.u, p.y)


def _z_functions(pair: FibredAlgebroidPair, x, u, y):
    """``(z_mixed, z_base)`` of :func:`z_functions` at nodes with coordinates
    ``x`` (shape ``lead + (r,)``) and jet data ``u``, ``y``."""
    cm = pair.coefficient("c_mixed", x, u)
    z_base = np.einsum("...ack->...kac", pair.coefficient("c_base_kernel", x, u))
    z_base = z_base - np.einsum("...cbk,...ba->...kac", cm, y)
    return z_mixed(cm, pair.coefficient("c_kernel", x, u), y), z_base


def z_mixed(c_mixed: np.ndarray, c_kernel: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``z_mixed`` of :func:`z_functions` from the (antisymmetrized) ``c_mixed``
    and ``c_kernel`` coefficients, at stacked points: every operand has the
    leading axes of the points or none, and the result has them."""
    out = np.einsum("...bgk,...ba->...kag", c_kernel, y)
    out += np.einsum("...agk->...kag", c_mixed)
    return out


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
    ``dy = sigma^al_{|a} + z_mixed[al, a, be] sigma^be``.  The one-point
    view of :func:`_complete_lift`.
    """
    return _complete_lift(pair, sigma, p.x, p.u, p.y)


def _complete_lift(pair: FibredAlgebroidPair, sigma: ProjectableSection, x, u, y):
    """``(dx, du, dy)`` of :func:`complete_lift` at nodes with coordinates ``x``
    (shape ``lead + (r,)``) and jet data ``u``, ``y``; each has the leading
    axes of the nodes, or none where every operand it is formed from is
    point-shaped (an unset coefficient or section part)."""
    r, mk = pair.base_dim, pair.kernel_rank
    sa = sigma.base_at(x, r)
    sk = sigma.vertical_points(x, u, mk)
    rho_f = pair.coefficient("rho_f", x)
    rho_b = pair.coefficient("rho_base_u", x, u)
    rho_k = pair.coefficient("rho_kernel_u", x, u)
    dx = np.einsum("...ai,...a->...i", rho_f, sa)
    du = np.einsum("...aA,...a->...A", rho_b, sa) + np.einsum("...kA,...k->...A", rho_k, sk)

    # total derivative of the vertical components along the jet
    vel = rho_b + np.einsum("...kA,...ka->...aA", rho_k, y)
    dy = np.einsum("...ai,...ki->...ka", rho_f, sigma.vertical_jacobian_x(x, u, mk))
    dy = dy + np.einsum("...aA,...kA->...ka", vel, sigma.vertical_jacobian_u(x, u, mk))

    zm, zb = _z_functions(pair, x, u, y)
    dy = dy + np.einsum("...kab,...b->...ka", zb, sa) + np.einsum("...kab,...b->...ka", zm, sk)
    if not sigma.is_vertical:
        dy = dy - np.einsum("...kb,...ba->...ka", y, _base_mixing(pair, sigma, x))
    return dx, du, dy


def _base_mixing(pair: FibredAlgebroidPair, sigma: ProjectableSection, x) -> np.ndarray:
    """``mix[b, a] = rho_a^i d_i sigma^b + sigma^c C_ac^b`` of the base part of
    ``sigma`` at points ``x`` of any leading axes: its bracket with the base frame."""
    tdb = np.einsum("...ai,...bi->...ba", pair.coefficient("rho_f", x),
                    sigma.base_jacobian(x, pair.base_dim))
    return tdb + np.einsum("...c,...acb->...ba", sigma.base_at(x, pair.base_dim),
                           pair.coefficient("c_f", x))


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
        return np.concatenate([sigma.base_at(x, r), sigma.vertical_points(x, u, mk)])

    sig = Section(coeffs=sigma_total)

    def row_form(a):
        def coeffs(z):
            x, u = z[:r], z[r:]
            return np.concatenate([theta.base_at(x, u)[a], theta.kernel_at(x, u)[a]])
        return PForm(degree=1, coeffs=coeffs)

    def derived_rows(x, u):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        z = np.concatenate([x, u])
        rows = np.stack([lie_derivative(total, sig, row_form(a), z) for a in range(r)])
        if not sigma.is_vertical:
            # rows mix through the bracket of the projected section with the
            # base frame: out row b -= mix[b, a] * theta row a
            all_rows = np.concatenate([theta.base_at(x, u), theta.kernel_at(x, u)], axis=1)
            rows -= np.einsum("ba,ac->bc", _base_mixing(pair, sigma, x), all_rows)
        return rows

    def coeff_base(x, u):
        return derived_rows(x, u)[:, :r]

    def coeff_kernel(x, u):
        return derived_rows(x, u)[:, r:]

    return AffineDualSection(base_dim=r, kernel_rank=mk,
                             coeff_base=coeff_base, coeff_kernel=coeff_kernel)
