"""Builders and integrators for the worked example scenarios.

Four families of fibred pairs cover the classical applications:

* the standard first-order field theory of a fibred chart in a frame
  adapted to a (possibly curved, u-dependent) connection,
* one-dimensional-base mechanics (free particle, rigid body, heavy top),
* Chern-Simons theory on a 3d lattice with values in a quadratic Lie
  algebra,
* the reduced bundle of a symmetry group action with a reference
  connection (covariant Euler-Poincare form when the reference is flat).

Sign conventions used by the builders (all are forced by the structure
equations, which every builder output must satisfy exactly; see tests):

* connection frames ``e_i = d_i + G_i^A d_A`` have
  ``[e_i, e_B] = -(dG_i^A/du^B) e_A`` and base-base bracket equal to the
  frame commutator (minus the curvature of the connection),
* the rotation-algebra action on an advected 3-vector pairs
  ``rho_al^A = -eps[al, A, B] u^B`` with kernel constants ``-eps``; under
  ``(y, u) -> (-omega, gamma)`` this is the textbook heavy top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .algebroid import derivative_points
from .differentiation import FINE_STEP, HESSIAN_STEP, STEP, central_difference
from .fibred import FibredAlgebroidPair, sample_points, stacked
from .fields import DiscretizedSection, GridSpec, block_pass, grid_gradient
from .smoothfields import TrigPolynomial
from .variational import Lagrangian, el_residual_field

EPSILON3 = np.zeros((3, 3, 3))
for _i, _j, _k, _s in [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
                       (1, 0, 2, -1.0), (2, 1, 0, -1.0), (0, 2, 1, -1.0)]:
    EPSILON3[_i, _j, _k] = _s


class DegenerateLagrangianError(RuntimeError):
    """Momentum-velocity map not invertible along the trajectory."""


class IntegrationBlowupError(RuntimeError):
    """Non-finite values during mechanics integration."""


class ProjectionError(ValueError):
    """Sampled connection component does not lie in the algebra span."""


# largest component of a sampled connection outside the algebra span,
# relative to 1 + its norm (see flat_connection_generator)
PROJECTION_TOL = 1e-8


# ---------------------------------------------------------------------------
# standard first-order field theory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardCaseData:
    """Connection coefficients ``G(x, u)[i, A]`` with derived quantities.

    ``gamma`` takes one point, or is :func:`~algfield.fibred.stacked`, and
    is the anchor block ``rho_base_u`` of :func:`builder_standard`.
    ``vertical_derivative(x, u)[i, A, B] = dG_i^A / du^B`` and
    ``base_derivative(x, u)[i, A, j] = dG_i^A / dx^j`` fall back to
    central differences of ``gamma``.  All three are read through
    :func:`~algfield.fibred.sample_points`, with the shapes given by the
    lengths of ``x`` and ``u``, so the derived quantities, themselves
    stacked, take one point or stacked points.  The curvature of the
    connection is minus :meth:`frame_bracket`.
    """

    gamma: Callable
    vertical_derivative: Optional[Callable] = None
    base_derivative: Optional[Callable] = None

    def gamma_points(self, x, u) -> np.ndarray:
        """``G`` at one point or at stacked points: shape ``lead + (r, m)``."""
        return sample_points(self.gamma, "gamma", (x.shape[-1], u.shape[-1]), x, u)

    def vertical_derivative_at(self, x, u) -> np.ndarray:
        """``dG/du`` at one point or at stacked points: ``lead + (r, m, m)``."""
        return derivative_points(self.vertical_derivative, "vertical_derivative",
                                 (x.shape[-1], u.shape[-1], u.shape[-1]), self.gamma_points,
                                 (x, u), 1, STEP)

    def base_derivative_at(self, x, u) -> np.ndarray:
        """``dG/dx`` at one point or at stacked points: ``lead + (r, m, r)``."""
        return derivative_points(self.base_derivative, "base_derivative",
                                 (x.shape[-1], u.shape[-1], x.shape[-1]), self.gamma_points,
                                 (x, u), 0, STEP)

    @stacked
    def frame_bracket(self, x, u) -> np.ndarray:
        """``[e_i, e_j]`` components ``C[..., i, j, A]`` of the adapted frame,
        at one point or at stacked points."""
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        g = self.gamma_points(x, u)
        dgx = self.base_derivative_at(x, u)      # [..., i, A, j]
        dgu = self.vertical_derivative_at(x, u)  # [..., i, A, B]
        out = np.einsum("...jAi->...ijA", dgx) - np.einsum("...iAj->...ijA", dgx)
        out += np.einsum("...iB,...jAB->...ijA", g, dgu)
        out -= np.einsum("...jB,...iAB->...ijA", g, dgu)
        return out


def _constant(value: np.ndarray) -> Callable:
    """Stacked callable with the same ``value`` at every point: ``value``
    itself at one point, a read-only broadcast view at stacked points.

    It takes any arguments after ``x``, so it serves as a pair coefficient
    ``(x, u)`` and as a Lagrangian partial ``(x, u, y)``, and ``value`` is
    its attribute (:func:`_is_constant`): :func:`integrate_mechanics`
    reads such a callable once per run.
    """
    fn = stacked(lambda x, *args: value if x.ndim == 1
                 else np.broadcast_to(value, x.shape[:-1] + value.shape))
    fn.value = value
    return fn


def _is_constant(fn) -> bool:
    """Whether ``fn`` was made by :func:`_constant`: it has the attribute
    ``value``, which a plain wrapper of it lacks (``functools.wraps``
    copies it)."""
    return hasattr(fn, "value")


def builder_standard(data: StandardCaseData, base_dim: int,
                     fibre_dim: int) -> FibredAlgebroidPair:
    """Fibred pair of the standard field theory in a connection-adapted frame.

    Kernel indices coincide with the fibre indices; the anchor carries
    the connection (``rho_i^A = G_i^A``, kernel acting by translations)
    and the bracket blocks are the frame commutators, so the structure
    equations hold by construction for any smooth connection.  The
    kernel anchor and both bracket blocks are stacked callables.
    """
    return FibredAlgebroidPair(
        base_dim=base_dim, fibre_dim=fibre_dim, kernel_rank=fibre_dim,
        rho_base_u=data.gamma,
        rho_kernel_u=_constant(np.eye(fibre_dim)),
        c_base_kernel=data.frame_bracket,
        c_mixed=stacked(
            lambda x, u: -np.einsum("...iAB->...iBA", data.vertical_derivative_at(x, u))),
    )


# ---------------------------------------------------------------------------
# one-dimensional base: mechanics
# ---------------------------------------------------------------------------

def builder_time_dependent(kernel_constants, rho_kernel_u: Optional[Callable] = None,
                           fibre_dim: int = 0) -> FibredAlgebroidPair:
    """Pair over a one-dimensional base (time) from algebra data.

    ``kernel_constants[al, be, ga]`` is the kernel bracket and
    ``rho_kernel_u`` the kernel anchor on the ``fibre_dim`` fibre
    coordinates; the time direction moves no fibre coordinate and
    brackets to zero with the kernel frame.
    """
    constants = np.asarray(kernel_constants, dtype=float)
    return FibredAlgebroidPair(
        base_dim=1, fibre_dim=fibre_dim, kernel_rank=constants.shape[0],
        rho_kernel_u=rho_kernel_u,
        c_kernel=_constant(constants),
    )


def rigid_body_pair() -> FibredAlgebroidPair:
    """Rotation algebra over time, no advected coordinates."""
    return builder_time_dependent(EPSILON3)


def heavy_top_pair() -> FibredAlgebroidPair:
    """Rotation algebra acting on an advected 3-vector.

    ``rho_al^A = -eps[al, A, B] u^B`` with kernel constants ``-eps``;
    the advected vector satisfies ``du/dt = y x u`` so its length is a
    conserved quantity of any dynamics on this pair.
    """
    return builder_time_dependent(
        -EPSILON3,
        rho_kernel_u=lambda x, u: -(EPSILON3 @ u),
        fibre_dim=3,
    )


def free_particle_pair(dim: int) -> FibredAlgebroidPair:
    """Abelian kernel translating ``dim`` fibre coordinates."""
    return builder_time_dependent(
        np.zeros((dim, dim, dim)),
        rho_kernel_u=_constant(np.eye(dim)),
        fibre_dim=dim,
    )


@dataclass(frozen=True)
class MechanicsState:
    t: float
    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if not (np.isfinite(self.t) and np.all(np.isfinite(self.u))
                and np.all(np.isfinite(self.y))):
            raise ValueError("non-finite mechanics state")


@dataclass
class MechanicsTrajectory:
    """Sampled solution of the one-dimensional field equations."""

    times: np.ndarray
    u: np.ndarray    # (n_steps + 1, fibre_dim)
    y: np.ndarray    # (n_steps + 1, kernel_rank)

    def to_section(self) -> DiscretizedSection:
        dt = float(self.times[1] - self.times[0])
        grid = GridSpec(extents=(self.times.size,), spacing=(dt,),
                        boundary="one_sided", origin=(float(self.times[0]),))
        return DiscretizedSection(grid=grid, u=self.u, y=self.y[:, :, None])

    def energy_series(self, lagrangian: Lagrangian, momentum: np.ndarray) -> np.ndarray:
        """``momentum . y - L`` per sample, with ``momentum`` the
        ``momentum_series(lagrangian)`` of this trajectory.  ``value`` is
        read at all samples at once (one call if it is stacked); the
        stacked product keeps each sample's dot product bit for bit."""
        values = lagrangian.value_points(self.times[:, None], self.u, self.y[:, :, None])
        return (momentum[:, None, :] @ self.y[:, :, None])[:, 0, 0] - values

    def momentum_series(self, lagrangian: Lagrangian) -> np.ndarray:
        """``dL/dy`` per sample, shape ``(samples, kernel_rank)``, read at all
        samples at once (one call of a stacked ``grad_y``)."""
        return lagrangian.partial_y_points(self.times[:, None], self.u,
                                           self.y[:, :, None])[:, :, 0]

    def el_residual_series(self, pair: FibredAlgebroidPair,
                           lagrangian: Lagrangian) -> np.ndarray:
        """Grid Euler-Lagrange residual along the trajectory.

        Dominated by the second-order time stencil (the integrator error
        is of higher order), so it shrinks like the square of the step.
        """
        return el_residual_field(pair, lagrangian, self.to_section())


def _hessian_reader(lagrangian: Lagrangian, name: str, shape: tuple) -> Callable:
    """Reader ``(x, u, y)`` at one point of the velocity Hessian ``name``:
    ``hess_yy`` (``d2L/dy dy``, shape ``(k, k)``) or ``hess_yu``
    (``d2L/dy du``, shape ``(k, m)``), read by ``derivative_points``: the
    callable when it is set, else a central difference of the momentum
    reader in ``y`` or ``u``, whose ``(k, 1)`` axes are reshaped away."""
    slot, ndim = (2, 2) if name == "hess_yy" else (1, 1)
    fn = getattr(lagrangian, name)
    return lambda x, u, y: derivative_points(fn, name, shape, lagrangian.partial_y_points,
                                             (x, u, y), slot, HESSIAN_STEP, ndim).reshape(shape)


def _inverse_and_verdict(hyy: np.ndarray, cond_limit: float) -> tuple:
    """Inverse of the velocity Hessian and whether its 1-norm condition
    number is finite and at most ``cond_limit``."""
    try:
        hinv = np.linalg.inv(hyy)
    except np.linalg.LinAlgError as exc:
        raise DegenerateLagrangianError(
            "velocity Hessian of the Lagrangian is singular") from exc
    cond = float(np.abs(hyy).sum(axis=0).max() * np.abs(hinv).sum(axis=0).max())
    return hinv, bool(np.isfinite(cond) and cond <= cond_limit)


_ILL_CONDITIONED = "velocity Hessian of the Lagrangian is singular or ill-conditioned"


def _once_or_per_stage(constant: bool, read: Callable, point: tuple) -> Callable:
    """``read``, which the stage calls at its own ``(x, u, y)``, or, when
    ``constant``, a reader of the one value ``read`` returns at ``point``
    (so its shape is checked once)."""
    if not constant:
        return read
    value = read(*point)
    return lambda x, u, y: value


def _bind_stage(pair: FibredAlgebroidPair, lagrangian: Lagrangian, initial: MechanicsState,
                cond_limit: float) -> Callable:
    """The rate ``stage(t, s, check_cond=False)`` of the state ``s = (y, u)``.

    Every ingredient that is unset or a :func:`_constant` is read here,
    once, at the initial point and through its checked reader: the pair's
    ``c_mixed``, ``c_kernel`` (antisymmetrized and reshaped to ``(k, k * k)``),
    ``rho_base_u`` and ``rho_kernel_u``, and the Lagrangian's ``grad_u``,
    ``hess_yy`` and ``hess_yu``.  A constant ``hess_yy`` is inverted here,
    and a condition number above ``cond_limit`` raises here, before the
    first step.  The stage reads the momentum and every other ingredient
    at its own point, inverts a velocity Hessian that is not constant, and
    checks its condition when ``check_cond``.
    """
    mk, mu = pair.kernel_rank, pair.fibre_dim
    point = (np.array([initial.t]), initial.u, initial.y[:, None])

    def coefficient(name, select):
        fn = getattr(pair, name)
        return _once_or_per_stage(fn is None or _is_constant(fn),
                                  lambda x, u, y: select(pair.coefficient(name, x, u)), point)

    c_mixed = coefficient("c_mixed", lambda c: c[0])
    c_kernel = coefficient("c_kernel", lambda c: c.reshape(mk, -1))
    if mu:
        rho_base = coefficient("rho_base_u", lambda c: c[0])
        rho_kernel = coefficient("rho_kernel_u", lambda c: c)
        force = _once_or_per_stage(_is_constant(lagrangian.grad_u),
                                   lagrangian.partial_u_points, point)
        hess_yu = _once_or_per_stage(_is_constant(lagrangian.hess_yu),
                                     _hessian_reader(lagrangian, "hess_yu", (mk, mu)), point)
    hess_yy = _hessian_reader(lagrangian, "hess_yy", (mk, mk))
    constant_hyy = _is_constant(lagrangian.hess_yy)
    inverse = _once_or_per_stage(
        constant_hyy, lambda x, u, y: _inverse_and_verdict(hess_yy(x, u, y), cond_limit), point)
    if constant_hyy and not inverse(*point)[1]:
        raise DegenerateLagrangianError(_ILL_CONDITIONED)

    def stage(t: float, s: np.ndarray, check_cond: bool = False) -> np.ndarray:
        y, u = s[:mk], s[mk:]
        x = np.array([t])
        ycol = y[:, None]
        if mu:
            rho_k = rho_kernel(x, u, ycol)
            udot = rho_base(x, u, ycol) + rho_k.T @ y
        mom = lagrangian.partial_y_points(x, u, ycol)[:, 0]
        # Z[al, ga] at the one base slot: C_{0 al}^ga + C_{be al}^ga y^be
        rhs = (c_mixed(x, u, ycol) + (y @ c_kernel(x, u, ycol)).reshape(mk, mk)) @ mom
        if mu:
            rhs += rho_k @ force(x, u, ycol)
            hyu = hess_yu(x, u, ycol)
        hinv, well_conditioned = inverse(x, u, ycol)
        if check_cond and not well_conditioned:
            raise DegenerateLagrangianError(_ILL_CONDITIONED)
        if mu:
            rhs -= hyu @ udot
        if not lagrangian.autonomous:
            # explicit time dependence of the momentum map
            rhs -= central_difference(lagrangian.partial_y_points, (x, u, ycol), 0,
                                      FINE_STEP)[:, 0, 0]
        # without fibre coordinates the rate is the velocity rate itself
        return np.concatenate((hinv @ rhs, udot)) if mu else hinv @ rhs

    return stage


def whole_steps(span: float, dt: float) -> bool:
    """Whether ``span`` is a whole number of steps ``dt``, to a relative 1e-9."""
    steps = span / dt
    return abs(steps - round(steps)) <= 1e-9 * abs(steps)


def integrate_mechanics(pair: FibredAlgebroidPair, lagrangian: Lagrangian,
                        initial: MechanicsState, t_end: float, dt: float,
                        cond_limit: float = 1e12) -> MechanicsTrajectory:
    """Fixed-step RK4 integration of the one-dimensional field equations.

    The state is one vector ``s = (y, u)``.  The momentum equation is
    solved for the velocity rate through the (dense) inverse of the
    velocity Hessian; its condition number is checked against
    ``cond_limit`` on the first stage of each step, or once, before the
    first step, for a constant Hessian.  Requires a regular Lagrangian and
    an interval ``t_end - initial.t`` of a whole number of steps ``dt``
    (:func:`whole_steps`, else ``ValueError``); raises on blow-up.

    The stage is bound once per run: every unset or :func:`_constant`
    ingredient is read once, and the stage reads only what varies, the
    momentum and every other callable, and inverts a Hessian that is not
    constant at every stage.  The explicit time derivative of the
    momentum is differenced only for Lagrangians not declared
    ``autonomous``.
    """
    if pair.base_dim != 1:
        raise ValueError("mechanics integration needs a one-dimensional base")
    if dt <= 0:
        raise ValueError("dt must be positive")
    span = t_end - initial.t
    if not whole_steps(span, dt):
        raise ValueError(f"t_end - t0 = {span!r} is not a whole number of steps dt = {dt!r}")
    n_steps = int(round(span / dt))
    if n_steps < 1:
        raise ValueError("empty integration interval")

    mk = pair.kernel_rank
    times = initial.t + dt * np.arange(n_steps + 1)
    ys = np.zeros((n_steps + 1, mk))
    us = np.zeros((n_steps + 1, pair.fibre_dim))
    ys[0], us[0] = initial.y, initial.u

    stage = _bind_stage(pair, lagrangian, initial, cond_limit)
    half, sixth = dt / 2, dt / 6
    s = np.concatenate((initial.y, initial.u))
    # the times as Python floats, one at a time (a list of all of them
    # would raise the peak memory by ~0.6 MB at 20000 steps)
    for i, t in enumerate(map(float, times[:-1])):
        # condition guard on the first stage of each step
        k1 = stage(t, s, check_cond=True)
        k2 = stage(t + half, s + half * k1)
        k3 = stage(t + half, s + half * k2)
        k4 = stage(t + dt, s + dt * k3)
        s = s + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(s).all():
            raise IntegrationBlowupError(f"non-finite state at t = {t + dt}")
        ys[i + 1], us[i + 1] = s[:mk], s[mk:]
    return MechanicsTrajectory(times=times, u=us, y=ys)


# ---------------------------------------------------------------------------
# mechanics Lagrangians
# ---------------------------------------------------------------------------

def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _kinetic(wcol: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``1/2 sum_a w_al (y^al_a)^2`` over the last two axes of stacked ``y``,
    with the weights as a column ``wcol = w[:, None]`` (one temporary the
    size of ``y``)."""
    terms = y ** 2
    terms *= wcol
    return 0.5 * np.sum(terms, axis=(-2, -1))


def quadratic_kinetic_lagrangian(weights) -> Lagrangian:
    """``L = 1/2 sum_a w_al (y^al_a)^2`` with stacked analytic derivatives.

    The velocity Hessian is a :func:`_constant`; ``grad_u`` and
    ``hess_yu`` are zeros whose shape follows ``u``, since the fibre
    dimension is the pair's (0 for the rigid body).
    """
    w = np.asarray(weights, dtype=float)
    wcol = w[:, None]
    return Lagrangian(
        value=stacked(lambda x, u, y: _kinetic(wcol, y)),
        grad_u=stacked(lambda x, u, y: np.zeros(u.shape)),
        grad_y=stacked(lambda x, u, y: wcol * y),
        hess_yy=_constant(_read_only(np.diag(w))),
        hess_yu=stacked(lambda x, u, y: np.zeros(y.shape[:-2] + (w.size, u.shape[-1]))),
        autonomous=True,
    )


def rigid_body_lagrangian(inertia) -> Lagrangian:
    return quadratic_kinetic_lagrangian(inertia)


def heavy_top_lagrangian(inertia, mgl: float, chi) -> Lagrangian:
    """Kinetic form minus the potential ``mgl * <u, chi>``, stacked, with
    :func:`_constant` ``grad_u`` and Hessians.  ``<u, chi>`` is one
    ``(1, 3)`` row-vector product per point, which rounds the same at one
    point and at stacked points (a stacked ``u @ chi`` need not)."""
    inertia = np.asarray(inertia, dtype=float)
    chi = np.asarray(chi, dtype=float)
    icol, chicol = inertia[:, None], chi[:, None]
    return Lagrangian(
        value=stacked(lambda x, u, y: _kinetic(icol, y)
                      - mgl * (u[..., None, :] @ chicol)[..., 0, 0]),
        grad_u=_constant(_read_only(-mgl * chi)),
        grad_y=stacked(lambda x, u, y: icol * y),
        hess_yy=_constant(_read_only(np.diag(inertia))),
        hess_yu=_constant(_read_only(np.zeros((3, 3)))),
        autonomous=True,
    )


def scalar_field_lagrangian(mass: float = 0.0) -> Lagrangian:
    """``L = 1/2 |y|^2 - 1/2 m^2 |u|^2`` for translation-kernel pairs, with
    stacked analytic partials."""
    return Lagrangian(
        value=stacked(lambda x, u, y: 0.5 * np.sum(y ** 2, axis=(-2, -1))
                      - 0.5 * mass ** 2 * np.sum(u ** 2, axis=-1)),
        grad_u=stacked(lambda x, u, y: -mass ** 2 * np.asarray(u, dtype=float)),
        grad_y=stacked(lambda x, u, y: np.array(y, dtype=float)),
        autonomous=True,
    )


# ---------------------------------------------------------------------------
# Chern-Simons on a 3d lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChernSimonsData:
    """Quadratic Lie algebra data for the Chern-Simons Lagrangian.

    ``constants[al, be, ga]`` is the algebra bracket; ``metric`` must be
    symmetric and invariant enough that the lowered coefficients
    ``metric @ constants`` are totally antisymmetric (checked to 1e-12).
    ``positive_definite`` records the signature for downstream reporting.
    """

    constants: np.ndarray
    metric: np.ndarray
    lowered: np.ndarray = field(init=False)
    positive_definite: bool = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.constants, dtype=float)
        k = np.asarray(self.metric, dtype=float)
        object.__setattr__(self, "constants", c)
        object.__setattr__(self, "metric", k)
        if k.shape != (c.shape[0], c.shape[0]) or c.ndim != 3:
            raise ValueError("inconsistent algebra data shapes")
        if np.max(np.abs(k - k.T)) > 1e-12:
            raise ValueError("metric must be symmetric")
        eigs = np.linalg.eigvalsh(k)
        if np.min(np.abs(eigs)) < 1e-12:
            raise ValueError("metric must be nondegenerate")
        lowered = np.einsum("am,bgm->abg", k, c)
        for perm, sign in [((1, 0, 2), -1.0), ((0, 2, 1), -1.0), ((2, 1, 0), -1.0)]:
            if np.max(np.abs(lowered - sign * np.transpose(lowered, perm))) > 1e-12:
                raise ValueError(
                    "lowered structure coefficients are not totally antisymmetric "
                    "(metric is not invariant)")
        object.__setattr__(self, "lowered", lowered)
        object.__setattr__(self, "positive_definite", bool(np.min(eigs) > 0))

    @staticmethod
    def su2() -> "ChernSimonsData":
        return ChernSimonsData(constants=EPSILON3, metric=np.eye(3))


def chern_simons_lagrangian(data: ChernSimonsData) -> Lagrangian:
    """``L = C_lowered[al, be, ga] y^al_1 y^be_2 y^ga_3`` with analytic partials,
    all stacked."""
    cl = data.lowered

    @stacked
    def value(x, u, y):
        return np.einsum("abg,...a,...b,...g->...", cl, y[..., 0], y[..., 1], y[..., 2])

    @stacked
    def grad_y(x, u, y):
        out = np.empty(y.shape)
        out[..., 0] = np.einsum("abg,...b,...g->...a", cl, y[..., 1], y[..., 2])
        out[..., 1] = np.einsum("abg,...a,...g->...b", cl, y[..., 0], y[..., 2])
        out[..., 2] = np.einsum("abg,...a,...b->...g", cl, y[..., 0], y[..., 1])
        return out

    return Lagrangian(value=value,
                      grad_u=stacked(lambda x, u, y: np.zeros(u.shape)),
                      grad_y=grad_y, autonomous=True)


def builder_chern_simons(data: ChernSimonsData, grid: GridSpec):
    """Product pair (trivial kernel bundle over a 3d chart) plus its Lagrangian."""
    if grid.dim != 3:
        raise ValueError("Chern-Simons scenario needs a 3-dimensional grid")
    mk = data.constants.shape[0]
    pair = FibredAlgebroidPair(
        base_dim=3, fibre_dim=0, kernel_rank=mk,
        c_kernel=_constant(data.constants),
    )
    return pair, chern_simons_lagrangian(data)


def chern_simons_lagrangian_difference(data: ChernSimonsData,
                                       section: DiscretizedSection, nodes) -> list:
    """Defect of the conventional-vs-cubic Lagrangian identity at each of ``nodes``.

    The conventional density ``k(A ^ dA + (2/3) A ^ A ^ A-bracket-term)``
    differs from the cubic density by the metric pairing of ``A`` with
    the flatness form ``F = dA + 1/2 [A ^ A]``.  Evaluated with the same grid
    derivatives on both sides the identity is algebraically exact, so the
    returned defect is rounding noise bounded well below stencil order
    for any field.  (The cubic coefficient 2/3 is the one that makes the
    identity hold; the two densities then agree on flat sections.)  The
    grid derivatives are formed once for all nodes, and the nodes are read
    as one block.  Each wedge of a 1-form ``v`` with a 2-form ``b`` is its
    top coefficient ``1/2 eps[i, j, k] v_i b_jk``.
    """
    k, cl = data.metric, data.lowered
    idx, _, _, y = section.node_data(nodes)  # y[..., alpha, a]
    dy = grid_gradient(section.y, section.grid)[idx]  # [..., alpha, b, a] = d_a y^alpha_b
    da = np.swapaxes(dy, -1, -2) - dy  # [..., alpha, a, b] = d_a A_b - d_b A_a
    f = da + np.einsum("bga,...bi,...gj->...aij", data.constants, y, y)
    defect = (0.5 * np.einsum("ab,ijk,...ai,...bjk->...", k, EPSILON3, y, da)
              + (2.0 / 3.0) * np.einsum("amn,...ai,...mj,...nk,ijk->...", cl, y, y, y, EPSILON3)
              - np.einsum("abg,...a,...b,...g->...", cl, y[..., 0], y[..., 1], y[..., 2])
              - 0.5 * np.einsum("am,ijk,...mi,...ajk->...", k, EPSILON3, y, f))
    return np.abs(defect).tolist()


# ---------------------------------------------------------------------------
# lattice sampling of flat (pure-gauge) connections
# ---------------------------------------------------------------------------

# -i/2 times the Pauli matrices sigma_x, sigma_y, sigma_z
_SU2_BASIS = -0.5j * np.array([[[0.0, 1.0], [1.0, 0.0]],
                               [[0.0, -1.0j], [1.0j, 0.0]],
                               [[1.0, 0.0], [0.0, -1.0]]], dtype=complex)
_SU2_BASIS.flags.writeable = False


def su2_basis() -> np.ndarray:
    """Anti-hermitian basis with bracket constants ``eps``: ``T_al = -i sigma_al / 2``
    (one read-only array, built at import)."""
    return _SU2_BASIS


def su2_exponential(v) -> np.ndarray:
    """Closed-form exponential of ``v^al T_al`` in the defining representation."""
    v = np.asarray(v, dtype=float)
    theta = float(np.linalg.norm(v))
    eye = np.eye(2, dtype=complex)
    if theta < 1e-14:
        x = np.einsum("a,aij->ij", v, su2_basis())
        return eye + x + 0.5 * x @ x
    unit = v / theta
    x = np.einsum("a,aij->ij", unit, su2_basis())
    return np.cos(theta / 2) * eye + 2 * np.sin(theta / 2) * x


# below this |v| the dexp coefficients are their two-term series, which is
# exact at v = 0 and off by under theta^4 / 720 at the switch
_DEXP_SERIES_BELOW = 1e-3


def _su2_dexp_coefficients(theta: np.ndarray) -> tuple:
    """``(1 - cos t) / t^2`` and ``(t - sin t) / t^3`` of each ``t = theta``,
    by their series ``1/2 - t^2/24`` and ``1/6 - t^2/120`` near 0."""
    small = theta < _DEXP_SERIES_BELOW
    t = np.where(small, 1.0, theta)
    c1 = (1.0 - np.cos(t)) / t ** 2
    c2 = (t - np.sin(t)) / t ** 3
    t2 = theta[small] ** 2
    c1[small] = 0.5 - t2 / 24.0
    c2[small] = 1.0 / 6.0 - t2 / 120.0
    return c1, c2


def _cross_into(out: np.ndarray, u: np.ndarray, w: np.ndarray) -> None:
    """``out = u x w`` over the last axis, one component at a time."""
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(u[..., j], w[..., k], out=out[..., i])
        out[..., i] -= u[..., k] * w[..., j]


def su2_exponential_gauge_field(coords: Sequence, grid: GridSpec) -> DiscretizedSection:
    """Pure-gauge connection of ``g = exp(v^al T_al)`` on a grid, in closed form.

    ``coords`` are the three exponential coordinates ``v^al``, each a
    ``TrigPolynomial`` or ``0``; they are evaluated with their analytic
    gradients over all nodes at once.  With ``theta = |v|`` the su(2)
    case of ``dexp`` gives the components of ``g^{-1} d_a g`` in
    ``su2_basis()``:

        ``y[..., :, a] = d_a v - (1 - cos theta)/theta^2 v x d_a v
                         + (theta - sin theta)/theta^3 v x (v x d_a v)``

    (Iserles, Munthe-Kaas, Norsett and Zanna, "Lie-group methods", Acta
    Numerica 2000).  Nothing is differenced, so the flatness residual of
    the result is pure stencil error, and the identity gauge (all
    coordinates 0) gives exactly 0.  The cross products are formed one
    axis at a time in two ``(..., 3)`` buffers and written into ``y`` in
    place.  Any other gauge goes through ``flat_connection_generator``.
    """
    if len(coords) != 3:
        raise ValueError("su(2) gauges have three exponential coordinates")
    v = np.zeros(grid.extents + (3,))
    y = np.zeros(grid.extents + (3, grid.dim))  # d_a v^al, until overwritten
    points = grid.points()
    for al, c in enumerate(coords):
        if isinstance(c, TrigPolynomial):
            v[..., al], y[..., al, :] = c(points), c.gradient(points)
        elif not (np.isscalar(c) and c == 0):
            raise TypeError("an exponential coordinate is a TrigPolynomial or 0")
    del points
    c1, c2 = _su2_dexp_coefficients(np.sqrt(np.einsum("...k,...k->...", v, v)))
    c1, c2 = c1[..., None], c2[..., None]
    first, second = np.empty_like(v), np.empty_like(v)
    for a in range(grid.dim):
        dv = y[..., a]
        _cross_into(first, v, dv)
        _cross_into(second, v, first)
        first *= c1
        second *= c2
        dv -= first
        dv += second
    return DiscretizedSection(grid=grid, u=np.zeros(grid.extents + (0,)), y=y)


def flat_connection_generator(gauge: Callable, grid: GridSpec,
                              algebra_basis: Sequence[np.ndarray]) -> DiscretizedSection:
    """Sample the pure-gauge connection of a group-valued function on a grid.

    ``A_a(x) = g(x)^{-1} d_a g(x)`` is formed on blocks of ``BLOCK_NODES``
    nodes (``fields.block_pass``): one central difference (``FINE_STEP``)
    of the caller-supplied matrix function per block, independent of the
    grid spacing, then one batched inverse and product.  ``gauge`` takes
    one point; it is called once per node and once per shifted point.
    Each ``A_a`` is projected onto the given algebra basis; one whose
    component outside the span exceeds ``PROJECTION_TOL * (1 + |A_a|)``
    raises ``ProjectionError`` naming the first such node (C order) and
    axis, at the end of the block that holds it.  The result is a
    kernel-only section (no fibre coordinates) whose flatness residual is
    stencil error plus the difference error of the gauge derivative
    (about 1e-10 for the su(2) exponentials).  This is the general path
    for any matrix gauge; ``su2_exponential_gauge_field`` samples gauges
    given by exponential coordinates in closed form.
    """
    basis = np.stack([np.asarray(b, dtype=complex) for b in algebra_basis])
    # real parts of the traces tr(b_k^H m), for the basis itself and for samples
    trace = lambda m: np.einsum("kij,...ij->...k", basis.conj(), m).real
    gram = trace(basis)

    def read(z):
        """The gauge at every point of ``z`` (any leading axes), as complex matrices."""
        rows = np.array([gauge(p) for p in z.reshape(-1, z.shape[-1])], dtype=complex)
        return rows.reshape(z.shape[:-1] + rows.shape[1:])

    def step(x, nodes, y_rows):
        dg = central_difference(read, (x,), 0, FINE_STEP)  # [n, i, j, a]
        amat = np.linalg.inv(read(x))[:, None] @ np.ascontiguousarray(np.moveaxis(dg, -1, 1))
        coeffs = np.linalg.solve(gram, trace(amat)[..., None])[..., 0]  # [n, a, k]
        defect = np.linalg.norm(amat - np.einsum("...k,kij->...ij", coeffs, basis),
                                axis=(-2, -1))
        bad = np.argwhere(defect > PROJECTION_TOL * (1.0 + np.linalg.norm(amat, axis=(-2, -1))))
        if bad.size:
            row, a = bad[0]
            raise ProjectionError(
                f"connection sample at node {tuple(nodes[row].tolist())}, axis {a} lies "
                f"outside the algebra span (defect {defect[row, a]:.2e})")
        y_rows[...] = np.swapaxes(coeffs, -1, -2)

    y = np.zeros(grid.extents + (basis.shape[0], grid.dim))
    block_pass(grid, step, np.moveaxis(np.indices(grid.extents), 0, -1), y)
    return DiscretizedSection(grid=grid, u=np.zeros(grid.extents + (0,)), y=y)


# ---------------------------------------------------------------------------
# reduced bundles of symmetry group actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtiyahData:
    """Algebra constants plus the curvature of the reference connection.

    ``curvature(x)[a, b, al]`` is antisymmetric in ``(a, b)``; ``None``
    means a flat reference.  With a flat reference the field equations
    are the covariant Euler-Poincare equations.  A non-flat reference
    yields valid structure functions only when the curvature is closed
    and central (e.g. abelian algebras); the structure-equation check is
    the arbiter.
    """

    constants: np.ndarray
    curvature: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(self, "constants", np.asarray(self.constants, dtype=float))


def builder_atiyah(data: AtiyahData, base_dim: int) -> FibredAlgebroidPair:
    """Reduced pair with kernel constants and reference curvature block."""
    mk = data.constants.shape[0]
    c_base_kernel = None
    if data.curvature is not None:
        c_base_kernel = lambda x, u: -np.asarray(data.curvature(x), dtype=float)
    return FibredAlgebroidPair(
        base_dim=base_dim, fibre_dim=0, kernel_rank=mk,
        c_base_kernel=c_base_kernel,
        c_kernel=_constant(data.constants),
    )
