"""Lie algebroids in a single chart, given by their structure functions.

A Lie algebroid over an ``n``-dimensional base chart is encoded by its
anchor components ``rho[alpha, i] = rho_alpha^i(x)`` and bracket
coefficients ``C[alpha, beta, gamma] = C_ab^g(x)`` in a fixed frame
``{e_alpha}``.  Valid structure functions satisfy two compatibility
identities (checked, never assumed, by :func:`structure_equation_residuals`):

* anchor:  ``rho_a^j d_j rho_b^i - rho_b^j d_j rho_a^i = rho_g^i C_ab^g``
* Jacobi:  ``sum_cyc(a,b,g) [rho_a^i d_i C_bg^n + C_am^n C_bg^m] = 0``

The module implements the calculus attached to this data: anchor
application, the bracket of sections, the exterior differential on
p-forms, Lie derivatives via the Cartan formula, and the one-parameter
flow of morphisms generated by a section.  Everything is pointwise and
pure; models may be shared freely across threads.

Every structure function (and every coefficient callable of the fibred
pairs built on top) takes one point, unless it is declared
:func:`stacked`, and is read only through :func:`sample_points`, which
checks the shape of each result.  The readers and their Jacobians take
one point or stacked points, and each Jacobian, here and in the modules
built on top, is read by :func:`derivative_points`: the analytic
callable through :func:`sample_points` when it is given, else one
:func:`~algfield.differentiation.central_difference` of the reader.
The coefficients of a :class:`Section` or :class:`PForm` are read the
same way, checked against the rank that each reader takes.

Constructing a model whose structure functions violate the compatibility
identities is allowed (negative tests rely on it); operations that are
only meaningful on a true Lie algebroid say so in their docstrings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .differentiation import STEP, central_difference, gradient, partial_derivative_two_slot

# points per block of the stacked passes (grid nodes in ``fields.block_pass``)
BLOCK_NODES = 512
_STACKED = "algfield_stacked"


def stacked(fn: Callable) -> Callable:
    """Declare ``fn`` stacked, and return it.

    A stacked callable takes points with any leading axes, ``x`` of shape
    ``lead + (r,)`` and each further argument ``lead`` plus its own point
    shape, and returns ``lead`` plus its point shape; ``lead = ()`` is
    one point.  :func:`sample_points` then calls it once per block of
    points instead of once per point.  The mark is an attribute of
    ``fn`` (of its function, for a method), so a wrapper of ``fn`` is
    per-point again.
    """
    setattr(fn, _STACKED, True)
    return fn


def sample_points(fn: Callable, name: str, shape: tuple, x: np.ndarray,
                  *args: np.ndarray) -> np.ndarray:
    """``fn(x, *args)`` at every point, stacked: shape ``lead + shape``.

    ``x`` has shape ``lead + (dim,)`` and each of ``args`` ``lead`` plus
    its own point shape.  ``lead = ()`` is one call on the arrays
    themselves, whose result is returned as is (no copy).  A
    :func:`stacked` ``fn`` is called once on all the points; any other
    ``fn`` once per point, with the point's rows.  A result of any other
    shape than ``lead + shape`` (``shape`` for a per-point call) raises a
    ``ValueError`` naming ``name``, also where it would have broadcast.
    """
    # the check is written out on each path: one-point reads sit in the
    # mechanics integrator's inner loop, where a call more costs time
    if x.ndim == 1:
        value = np.asarray(fn(x, *args), dtype=float)
        if value.shape != shape:
            raise _shape_error(name, value, shape, x)
        return value
    lead = x.shape[:-1]
    if getattr(fn, _STACKED, False):
        value = np.asarray(fn(x, *args), dtype=float)
        if value.shape != lead + shape:
            raise _shape_error(name, value, lead + shape, x)
        return value
    count = int(np.prod(lead))
    out = np.empty(lead + shape)
    flat = out.reshape((count,) + shape)
    rows = [a.reshape((count,) + a.shape[len(lead):]) for a in (x, *args)]
    for i, point in enumerate(zip(*rows)):
        value = np.asarray(fn(*point), dtype=float)
        if value.shape != shape:
            raise _shape_error(name, value, shape, point[0])
        flat[i] = value
    return out


def derivative_points(fn: Optional[Callable], name: str, shape: tuple, read: Callable,
                      args: tuple, slot: int, h: float, ndim: int = 1) -> np.ndarray:
    """A derivative of ``read(*args)`` in the last ``ndim`` axes of ``args[slot]``.

    The analytic ``fn``, when set, is read at ``args`` through
    :func:`sample_points` with ``name`` and ``shape``; otherwise the
    derivative is one :func:`~algfield.differentiation.central_difference`
    of ``read``, the checked reader of the differentiated callable, with
    step ``h``.  Every optional derivative with a checked reader is read
    here: of the structure functions, sections, forms, section
    coefficients, connections, Lagrangians, the velocity Hessians of the
    mechanics integrator and the ``f`` of
    :func:`~algfield.fibred.total_derivative`.  A difference in ``(x, u)``
    goes through :func:`~algfield.differentiation.partial_derivative_two_slot`,
    the helper whose calls a traced benchmark run counts.
    """
    if fn is not None:
        return sample_points(fn, name, shape, *args)
    if len(args) == 2:
        return partial_derivative_two_slot(read, *args, slot, h)
    return central_difference(read, args, slot, h, ndim)


def _shape_error(name: str, value: np.ndarray, shape: tuple, x: np.ndarray) -> ValueError:
    where = f"x = {x}" if x.ndim == 1 else f"points of shape {x.shape}"
    return ValueError(f"{name} returned shape {value.shape} at {where}, expected {shape}")


class FlowBlowupError(RuntimeError):
    """Raised when non-finite values appear during flow integration."""


def antisymmetrize(arr: np.ndarray, naxes: Optional[int] = None, start: int = 0) -> np.ndarray:
    """Project the ``naxes`` axes of ``arr`` from axis ``start`` on (all
    that follow it when ``None``) onto their antisymmetric part."""
    a = np.asarray(arr, dtype=float)
    p = a.ndim - start if naxes is None else naxes
    if p <= 1:
        return a
    lead, trailing = tuple(range(start)), tuple(range(start + p, a.ndim))
    out = np.zeros_like(a)
    for perm in itertools.permutations(range(start, start + p)):
        sign = (-1) ** sum(i > j for i, j in itertools.combinations(perm, 2))
        out += sign * np.transpose(a, lead + perm + trailing)
    return out / math.factorial(p)


@dataclass(frozen=True)
class LieAlgebroid:
    """Structure-function model of a Lie algebroid in one chart.

    Parameters
    ----------
    base_dim : dimension ``n`` of the base chart.
    rank : fibre dimension ``k`` of the bundle.
    anchor : map ``x -> (k, n)`` array, ``anchor(x)[alpha, i] = rho_alpha^i``.
    bracket_coeffs : map ``x -> (k, k, k)`` array with entries ``C_ab^g``
        (indexed ``[alpha, beta, gamma]``); antisymmetrized in the first two
        axes on every access, so only the antisymmetric part matters.
    anchor_derivative : optional map ``x -> (k, n, n)`` array,
        ``[alpha, i, j] = d rho_alpha^i / d x^j``.  Central differences
        otherwise.
    bracket_derivative : optional map ``x -> (k, k, k, n)`` array,
        ``[alpha, beta, gamma, j] = d C_ab^g / d x^j``.

    Each map takes one point unless it is declared :func:`stacked`, and
    is read through :func:`sample_points`, which checks its shape.
    """

    base_dim: int
    rank: int
    anchor: Callable[[np.ndarray], np.ndarray]
    bracket_coeffs: Callable[[np.ndarray], np.ndarray]
    anchor_derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None
    bracket_derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def anchor_at(self, x) -> np.ndarray:
        """``rho`` at one point or at stacked points (``x`` of shape
        ``lead + (n,)``): shape ``lead + (k, n)``."""
        return sample_points(self.anchor, "anchor", (self.rank, self.base_dim),
                             np.asarray(x, dtype=float))

    def bracket_at(self, x) -> np.ndarray:
        """``C``, antisymmetrized, at one point or at stacked points: shape
        ``lead + (k, k, k)``."""
        c = sample_points(self.bracket_coeffs, "bracket_coeffs", (self.rank,) * 3,
                          np.asarray(x, dtype=float))
        return 0.5 * (c - np.swapaxes(c, -3, -2))

    def anchor_jacobian(self, x) -> np.ndarray:
        """``[..., alpha, i, j] = d rho_alpha^i / d x^j`` at one point or at
        stacked points: ``anchor_derivative`` read like the anchor, or central
        differences of :meth:`anchor_at`."""
        return derivative_points(self.anchor_derivative, "anchor_derivative",
                                 (self.rank, self.base_dim, self.base_dim), self.anchor_at,
                                 (np.asarray(x, dtype=float),), 0, STEP)

    def bracket_jacobian(self, x) -> np.ndarray:
        """``[..., alpha, beta, gamma, j] = d C_ab^g / d x^j``, read like
        :meth:`anchor_jacobian` and antisymmetrized (a difference of
        :meth:`bracket_at` already is, and stays bit for bit)."""
        d = derivative_points(self.bracket_derivative, "bracket_derivative",
                              (self.rank,) * 3 + (self.base_dim,), self.bracket_at,
                              (np.asarray(x, dtype=float),), 0, STEP)
        return 0.5 * (d - np.swapaxes(d, -4, -3))

    @staticmethod
    def standard_tangent(n: int) -> "LieAlgebroid":
        """The tangent algebroid of an n-dimensional chart in coordinate frame."""
        eye = np.eye(n)
        zero = np.zeros((n, n, n))
        return LieAlgebroid(
            base_dim=n,
            rank=n,
            anchor=lambda x: eye,
            bracket_coeffs=lambda x: zero,
            anchor_derivative=lambda x: np.zeros((n, n, n)),
            bracket_derivative=lambda x: np.zeros((n, n, n, n)),
        )

    @staticmethod
    def from_lie_algebra(constants: np.ndarray, base_dim: int = 1) -> "LieAlgebroid":
        """A Lie algebra as an algebroid with zero anchor over a dummy chart."""
        c = np.asarray(constants, dtype=float)
        k = c.shape[0]
        if c.shape != (k, k, k):
            raise ValueError("structure constants must be a (k, k, k) array")
        zero_rho = np.zeros((k, base_dim))
        return LieAlgebroid(
            base_dim=base_dim,
            rank=k,
            anchor=lambda x: zero_rho,
            bracket_coeffs=lambda x: c,
            anchor_derivative=lambda x: np.zeros((k, base_dim, base_dim)),
            bracket_derivative=lambda x: np.zeros((k, k, k, base_dim)),
        )


@dataclass(frozen=True)
class Section:
    """A section of the bundle, ``coeffs(x)[alpha] = sigma^alpha(x)``.

    ``coeffs`` and the optional ``derivative`` (``[gamma, i] = d sigma^gamma
    / d x^i``) take one point unless declared :func:`stacked`, and are read
    through :func:`sample_points`, which raises on any other shape than
    ``(k,)`` and ``(k, n)``.
    """

    coeffs: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def at(self, x, rank: int) -> np.ndarray:
        """``sigma`` at one point or at stacked points: shape ``lead + (rank,)``."""
        return sample_points(self.coeffs, "coeffs", (rank,), np.asarray(x, dtype=float))

    def jacobian(self, x, rank: int) -> np.ndarray:
        """``[..., gamma, i] = d sigma^gamma / d x^i``: ``derivative`` read like
        the coefficients, or central differences of :meth:`at`."""
        x = np.asarray(x, dtype=float)
        return derivative_points(self.derivative, "derivative", (rank, x.shape[-1]),
                                 lambda z: self.at(z, rank), (x,), 0, STEP)

    @staticmethod
    def constant(values) -> "Section":
        v = np.asarray(values, dtype=float)
        return Section(
            coeffs=lambda x: v,
            derivative=lambda x: np.zeros((v.size, np.asarray(x).size)),
        )


@dataclass(frozen=True)
class PForm:
    """A p-form stored as its full antisymmetric coefficient array.

    ``coeffs(x)`` returns a scalar for ``degree == 0`` and an array with
    ``degree`` axes of length ``k`` otherwise; the stored value is the
    evaluation on frame tuples, e.g. ``omega(e_a, e_b) = coeffs(x)[a, b]``.
    It and the optional ``derivative`` (shape ``(k,) * degree + (n,)``)
    are read like those of a :class:`Section`, and antisymmetrized.
    """

    degree: int
    coeffs: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def at(self, x, rank: int) -> np.ndarray:
        """The coefficients at one point or at stacked points: shape
        ``lead + (rank,) * degree``."""
        x = np.asarray(x, dtype=float)
        w = sample_points(self.coeffs, "coeffs", (rank,) * self.degree, x)
        return antisymmetrize(w, self.degree, x.ndim - 1)

    def coeff_jacobian(self, x, rank: int) -> np.ndarray:
        """Coefficient derivatives, shape ``lead + (rank,) * degree + (n,)``
        (diff index last), read like :meth:`Section.jacobian`; an analytic
        ``derivative`` is antisymmetrized (a difference of :meth:`at` is)."""
        x = np.asarray(x, dtype=float)
        d = derivative_points(self.derivative, "derivative", (rank,) * self.degree + x.shape[-1:],
                              lambda z: self.at(z, rank), (x,), 0, STEP)
        return d if self.derivative is None else antisymmetrize(d, self.degree, x.ndim - 1)

    @staticmethod
    def constant(degree: int, values) -> "PForm":
        v = np.asarray(values, dtype=float)
        return PForm(
            degree=degree,
            coeffs=lambda x: v,
            derivative=lambda x: np.zeros(v.shape + (np.asarray(x).size,)),
        )

    @staticmethod
    def function(f: Callable, derivative: Optional[Callable] = None) -> "PForm":
        """Wrap a scalar function as a 0-form."""
        return PForm(degree=0, coeffs=f, derivative=derivative)

    @staticmethod
    def basis_covector(rank: int, index: int) -> "PForm":
        v = np.zeros(rank)
        v[index] = 1.0
        return PForm.constant(1, v)


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------

def anchor_apply(model: LieAlgebroid, x, a) -> np.ndarray:
    """Push a fibre element through the anchor: ``v^i = rho_alpha^i(x) a^alpha``."""
    a = np.asarray(a, dtype=float)
    if a.shape != (model.rank,):
        raise ValueError(f"fibre element has shape {a.shape}, expected ({model.rank},)")
    return np.einsum("ai,a->i", model.anchor_at(x), a)


def bracket(model: LieAlgebroid, sigma: Section, eta: Section, x) -> np.ndarray:
    """Bracket of two sections at ``x``.

    The unique extension of the frame brackets ``[e_a, e_b] = C_ab^g e_g``
    compatible with the Leibniz rule ``[sigma, f eta] = f [sigma, eta]
    + (rho(sigma) f) eta``:

        ``[sigma, eta]^g = rho_a^i sigma^a d_i eta^g
                         - rho_b^i eta^b d_i sigma^g + C_ab^g sigma^a eta^b``
    """
    k = model.rank
    rho = model.anchor_at(x)
    c = model.bracket_at(x)
    s, e = sigma.at(x, k), eta.at(x, k)
    out = np.einsum("ai,a,gi->g", rho, s, eta.jacobian(x, k))
    out -= np.einsum("ai,a,gi->g", rho, e, sigma.jacobian(x, k))
    out += np.einsum("abg,a,b->g", c, s, e)
    return out


def exterior_differential(model: LieAlgebroid, omega: PForm, x) -> np.ndarray:
    """Coefficient array of ``d omega`` at ``x`` (degree ``p + 1``).

    ``(d omega)_{a0..ap} = sum_i (-1)^i rho_{ai}^j d_j omega_{..no ai..}
    + sum_{i<j} (-1)^{i+j} C_{ai aj}^b omega_{b, ..no ai, aj..}``.
    For a 0-form this is ``(df)_a = rho_a^i d_i f``.

    ``d`` squares to zero exactly when the structure equations hold; on a
    broken model the defect of ``d(d omega)`` is a Jacobi diagnostic.
    """
    p = omega.degree
    k = model.rank
    if p >= k:
        raise ValueError(f"cannot raise degree {p} on a rank-{k} algebroid")
    rho = model.anchor_at(x)
    jac = omega.coeff_jacobian(x, k)

    if p == 0:
        return np.einsum("aj,j->a", rho, jac)

    c = model.bracket_at(x)
    w = omega.at(x, k)
    out = np.zeros((k,) * (p + 1))

    # rho-terms: insert the new index at each slot i with sign (-1)^i
    contracted = np.tensordot(rho, jac, axes=([1], [p]))  # (k,) + (k,)*p
    for i in range(p + 1):
        out += (-1) ** i * np.moveaxis(contracted, 0, i)

    # bracket terms: pair of slots (i, j) with sign (-1)^{i+j}
    paired = np.tensordot(c, w, axes=([2], [0]))  # (k, k) + (k,)*(p-1)
    for i in range(p + 1):
        for j in range(i + 1, p + 1):
            out += (-1) ** (i + j) * np.moveaxis(paired, [0, 1], [i, j])
    return antisymmetrize(out)


def contraction(sigma: Section, omega: PForm, rank: int) -> PForm:
    """Interior product ``i_sigma omega`` as a new form of degree ``p - 1``,
    with ``sigma`` and ``omega`` read at rank ``rank``."""
    if omega.degree == 0:
        raise ValueError("cannot contract a 0-form")

    def coeffs(x):
        return np.tensordot(sigma.at(x, rank), omega.at(x, rank), axes=([0], [0]))

    derivative = None
    if sigma.derivative is not None and omega.derivative is not None:
        def derivative(x):
            term1 = np.tensordot(sigma.jacobian(x, rank), omega.at(x, rank), axes=([0], [0]))
            # jacobian axis ends up first; move it last to match convention
            term1 = np.moveaxis(term1, 0, -1)
            term2 = np.tensordot(sigma.at(x, rank), omega.coeff_jacobian(x, rank),
                                 axes=([0], [0]))
            return term1 + term2

    return PForm(degree=omega.degree - 1, coeffs=coeffs, derivative=derivative)


def lie_derivative(model: LieAlgebroid, sigma: Section, omega: PForm, x) -> np.ndarray:
    """Lie derivative via the Cartan formula ``d_sigma = i_sigma d + d i_sigma``.

    Returns the coefficient array of ``d_sigma omega`` at ``x`` (degree p).
    On a valid algebroid ``d_sigma`` commutes with ``d``.
    """
    p = omega.degree
    k = model.rank

    if p < k:
        domega = exterior_differential(model, omega, x)
        term1 = np.tensordot(sigma.at(x, k), domega, axes=([0], [0]))
    else:
        term1 = np.zeros((k,) * p)

    if p == 0:
        return term1

    term2 = exterior_differential(model, contraction(sigma, omega, k), x)
    return term1 + term2


def structure_equation_residuals(model: LieAlgebroid, x):
    """Defects of the two structure equations at one point or at stacked
    points ``x`` (shape ``lead + (n,)``).

    Returns ``(anchor_residual, jacobi_residual)`` with shapes
    ``lead + (k, k, n)`` and ``lead + (k, k, k, k)``:

        ``anchor_residual[a, b, i] = rho_a^j d_j rho_b^i - rho_b^j d_j rho_a^i
                                     - rho_g^i C_ab^g``
        ``jacobi_residual[a, b, g, n] = sum_cyc(a,b,g)
                                     [rho_a^i d_i C_bg^n + C_am^n C_bg^m]``

    Both vanish identically on a true Lie algebroid.
    """
    rho, drho = model.anchor_at(x), model.anchor_jacobian(x)
    c, dc = model.bracket_at(x), model.bracket_jacobian(x)
    anchor_res = np.einsum("...aj,...bij->...abi", rho, drho)
    anchor_res -= np.einsum("...bj,...aij->...abi", rho, drho)
    anchor_res -= np.einsum("...gi,...abg->...abi", rho, c)

    term = (np.einsum("...ai,...bgni->...abgn", rho, dc)
            + np.einsum("...amn,...bgm->...abgn", c, c))
    # the cyclic sum: [a, b, g] <- [g, a, b] and [b, g, a]
    jacobi_res = term + np.moveaxis(term, -4, -2) + np.moveaxis(term, -2, -4)
    return anchor_res, jacobi_res


def structure_residual_max(model: LieAlgebroid, points) -> float:
    """Max-norm of both structure-equation residuals over sample points.

    :func:`structure_equation_residuals` on blocks of points, so that a
    :func:`~algfield.algebroid.stacked` model is called once per block
    for its values and once for all the shifted points of each central
    difference.  A block holds ``max(16, BLOCK_NODES * 8 // rank**4)``
    points.  Up to rank 4 its ``(points, k, k, k, k)`` Jacobi temporary
    has at most ``BLOCK_NODES * 8`` entries (the bracket at the shifted
    points is of the same order); above it the floor of 16 points (the
    second rule alone gives 6 at rank 5 and 3 at rank 6) keeps the calls
    per block from costing more than the smaller temporary saves.  A NaN
    residual makes the result NaN.
    """
    pts = np.asarray(points, dtype=float)
    size = max(16, BLOCK_NODES * 8 // model.rank ** 4)
    worst = 0.0
    for start in range(0, len(pts), size):
        a, j = structure_equation_residuals(model, pts[start:start + size])
        worst = float(np.max([worst, np.max(np.abs(a)), np.max(np.abs(j))]))
    return worst


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def _flow_rhs(model: LieAlgebroid, sigma: Section, z: np.ndarray) -> np.ndarray:
    x, m = z[:model.base_dim], z[model.base_dim:].reshape(model.rank, model.rank)
    rho = model.anchor_at(x)
    s = sigma.at(x, model.rank)
    d = np.einsum("gi,bi->bg", rho, sigma.jacobian(x, model.rank))
    d += np.einsum("gab,a->bg", model.bracket_at(x), s)
    return np.concatenate((np.einsum("ai,a->i", rho, s), (d @ m).ravel()))


def flow_of_section(model: LieAlgebroid, sigma: Section, s: float, x0,
                    steps: int = 100):
    """Flow of the section at parameter ``s``: ``(phi_s(x0), Phi_s matrix)``.

    The base point follows the integral curve of the anchored vector field
    ``rho(sigma)``.  The fibre map ``Phi_s``, expressed in the frame, is the
    solution ``M(s)`` of the linear equation ``dM/ds = D(x(s)) M`` with
    ``D^b_g = rho_g^i d_i sigma^b + C_ga^b sigma^a`` (the coefficients of
    ``d_sigma e^b``) and ``M(0) = I``.  For the tangent algebroid this is
    the Jacobian of the base flow, i.e. ``Phi_s = T phi_s``.

    Integrated with classical RK4 in ``steps`` fixed substeps, on one
    state vector ``z = (x, M.ravel())``.  On a valid algebroid each
    ``Phi_s`` is a morphism (see :func:`flow_morphism_defect`).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = model.base_dim
    x = np.asarray(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"base point has shape {x.shape}, expected ({n},)")
    z = np.concatenate((x, np.eye(model.rank).ravel()))
    h = s / steps
    for _ in range(steps):
        k1 = _flow_rhs(model, sigma, z)
        k2 = _flow_rhs(model, sigma, z + 0.5 * h * k1)
        k3 = _flow_rhs(model, sigma, z + 0.5 * h * k2)
        k4 = _flow_rhs(model, sigma, z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(z)):
            raise FlowBlowupError("flow integration produced non-finite values")
    return z[:n], z[n:].reshape(model.rank, model.rank)


def flow_pullback_form(model: LieAlgebroid, sigma: Section, s: float, x0,
                       omega: PForm, steps: int = 100) -> np.ndarray:
    """Coefficients of the pullback of ``omega`` through the flow, at ``x0``.

    Each frame index of ``omega`` evaluated at ``phi_s(x0)`` is contracted
    with the fibre matrix of the flow.  The s-derivative at 0 recovers the
    Lie derivative.
    """
    xs, m = flow_of_section(model, sigma, s, x0, steps=steps)
    w = omega.at(xs, model.rank)
    for _ in range(omega.degree):
        w = np.tensordot(w, m, axes=([0], [0]))
    return w


def flow_morphism_defect(model: LieAlgebroid, sigma: Section, s: float, x0,
                         steps: int = 100):
    """Defect of the morphism property of the flow map at parameter ``s``.

    The flow is a bundle map over its base flow; pullback commuting with
    ``d`` on coordinate functions and on the coframe reads, in components
    (primed structure functions evaluated at the image point):

        admissibility: ``rho_a^j d_j phi^i - rho'_b^i M^b_a = 0``
        morphism:      ``rho_a^i d_i M^b_d - rho_d^i d_i M^b_a
                         + C'_ts^b M^t_a M^s_d - M^b_g C_ad^g = 0``

    Spatial derivatives of the flow are taken by central differences over
    the initial point.  Returns a pair of arrays
    ``(admissibility_defect (k, n), morphism_defect (k, k, k))`` with the
    morphism defect indexed ``[a, d, b]``.
    """
    n, k = model.base_dim, model.rank
    x0 = np.asarray(x0, dtype=float)
    xs, m = flow_of_section(model, sigma, s, x0, steps=steps)

    def flow_values(z):
        zs, mz = flow_of_section(model, sigma, s, z, steps=steps)
        return np.concatenate([zs, mz.ravel()])

    d = gradient(flow_values, x0, STEP)
    dphi = d[:n]  # [i, j] = d phi^i / d x^j
    dm = d[n:].reshape(k, k, n)  # [b, g, j] = d M^b_g / d x^j

    rho0 = model.anchor_at(x0)
    rhos = model.anchor_at(xs)
    c0 = model.bracket_at(x0)
    cs = model.bracket_at(xs)

    adm = np.einsum("aj,ij->ai", rho0, dphi) - np.einsum("bi,ba->ai", rhos, m)
    mor = np.einsum("ai,bdi->adb", rho0, dm)
    mor -= np.einsum("di,bai->adb", rho0, dm)
    mor += np.einsum("tsb,ta,sd->adb", cs, m, m)
    mor -= np.einsum("bg,adg->adb", m, c0)
    return adm, mor
