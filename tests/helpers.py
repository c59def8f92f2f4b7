"""Shared fixtures-in-code for the test suite: reference algebroids and fields."""

import numpy as np

from algfield.algebroid import LieAlgebroid, PForm, Section
from algfield.smoothfields import trig_polynomial, trig_vector

EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k, _s in [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
                       (1, 0, 2, -1.0), (2, 1, 0, -1.0), (0, 2, 1, -1.0)]:
    EPS3[_i, _j, _k] = _s


def so3_algebroid(base_dim: int = 1) -> LieAlgebroid:
    """so(3) with the epsilon structure constants and zero anchor."""
    return LieAlgebroid.from_lie_algebra(EPS3, base_dim=base_dim)


def broken_so3_algebroid(delta: float = 0.5) -> LieAlgebroid:
    """so(3) with an off-pattern perturbation that genuinely breaks Jacobi.

    Adding ``delta`` to the first-direction coefficient of the bracket of
    the first two frame fields leaves antisymmetry intact but destroys
    the Jacobi identity (unlike a rescaling of an epsilon entry, which
    produces an isomorphic Lie algebra).
    """
    c = EPS3.copy()
    c[0, 1, 0] += delta
    c[1, 0, 0] -= delta
    return LieAlgebroid.from_lie_algebra(c, base_dim=1)


def frame_algebroid(rng: np.random.Generator, amplitude: float = 0.3):
    """The tangent algebroid of a 2d chart in a random smooth positive frame.

    Frame fields ``e_1 = a(x) d_1``, ``e_2 = b(x) d_2`` with
    ``a = exp(p)``, ``b = exp(q)`` for random trig polynomials ``p, q``.
    Their commutator gives x-dependent structure functions

        ``C_12^1 = -(b/a) d_2 a = -b d_2 p``,  ``C_12^2 = (a/b) d_1 b = a d_1 q``

    which satisfy both structure equations exactly (frame of an honest
    tangent bundle), so the model doubles as a seeded valid algebroid
    with non-constant anchor and bracket.
    """
    p = trig_polynomial(rng, 2, n_modes=2, max_freq=1, amplitude=amplitude)
    q = trig_polynomial(rng, 2, n_modes=2, max_freq=1, amplitude=amplitude)

    def a(x):
        return float(np.exp(p(x)))

    def b(x):
        return float(np.exp(q(x)))

    def anchor(x):
        return np.array([[a(x), 0.0], [0.0, b(x)]])

    def anchor_derivative(x):
        da = a(x) * p.gradient(x)
        db = b(x) * q.gradient(x)
        out = np.zeros((2, 2, 2))
        out[0, 0, :] = da
        out[1, 1, :] = db
        return out

    def coeffs(x):
        c = np.zeros((2, 2, 2))
        c[0, 1, 0] = -b(x) * p.gradient(x)[1]
        c[1, 0, 0] = -c[0, 1, 0]
        c[0, 1, 1] = a(x) * q.gradient(x)[0]
        c[1, 0, 1] = -c[0, 1, 1]
        return c

    return LieAlgebroid(base_dim=2, rank=2, anchor=anchor,
                        bracket_coeffs=coeffs, anchor_derivative=anchor_derivative)


def random_section(rng: np.random.Generator, model: LieAlgebroid,
                   amplitude: float = 1.0) -> Section:
    comps = trig_vector(rng, model.base_dim, model.rank, amplitude=amplitude)

    def coeffs(x):
        return np.array([c(x) for c in comps])

    def derivative(x):
        return np.stack([c.gradient(x) for c in comps])

    return Section(coeffs=coeffs, derivative=derivative)


def random_one_form(rng: np.random.Generator, model: LieAlgebroid,
                    amplitude: float = 1.0) -> PForm:
    comps = trig_vector(rng, model.base_dim, model.rank, amplitude=amplitude)

    def coeffs(x):
        return np.array([c(x) for c in comps])

    def derivative(x):
        return np.stack([c.gradient(x) for c in comps])

    return PForm(degree=1, coeffs=coeffs, derivative=derivative)


def random_zero_form(rng: np.random.Generator, model: LieAlgebroid,
                     amplitude: float = 1.0) -> PForm:
    f = trig_polynomial(rng, model.base_dim, amplitude=amplitude)
    return PForm(degree=0, coeffs=lambda x: f(x), derivative=lambda x: f.gradient(x))


# ---------------------------------------------------------------------------
# fibred pairs
# ---------------------------------------------------------------------------

def trivial_pair(r: int, m: int):
    """Coordinate base, abelian kernel acting by translations on u."""
    from algfield.fibred import FibredAlgebroidPair

    eye = np.eye(m)
    return FibredAlgebroidPair(
        base_dim=r, fibre_dim=m, kernel_rank=m,
        rho_kernel_u=lambda x, u: eye,
    )


def heavy_top_style_pair():
    """r=1 pair with the rotation algebra acting on a 3-vector.

    Action ``rho_alpha^A = -eps[alpha, A, B] u^B`` paired with kernel
    constants ``-eps`` (the pairing required by the anchor structure
    equation).
    """
    from algfield.fibred import FibredAlgebroidPair

    return FibredAlgebroidPair(
        base_dim=1, fibre_dim=3, kernel_rank=3,
        rho_kernel_u=lambda x, u: -np.einsum("kAB,B->kA", EPS3, u),
        c_kernel=lambda x, u: -EPS3,
    )


def connection_pair(rng: np.random.Generator, r: int = 2, m: int = 2,
                    amplitude: float = 0.4):
    """Jet-bundle pair of a fibred chart in a frame adapted to a connection.

    Connection coefficients ``G_i^A(x, u) = g_i^A(x) + M[i, A, B] u^B``
    (affine in u); the base-base bracket block is the frame commutator,
    so the assembled structure functions are valid by construction.
    """
    from algfield.fibred import FibredAlgebroidPair
    from algfield.smoothfields import trig_polynomial as tp

    gs = [[tp(rng, r, n_modes=2, max_freq=1, amplitude=amplitude)
           for _ in range(m)] for _ in range(r)]
    mix = amplitude * rng.uniform(-1.0, 1.0, size=(r, m, m))

    def gamma(x, u):
        g = np.array([[gs[i][a](x) for a in range(m)] for i in range(r)])
        return g + np.einsum("iAB,B->iA", mix, u)

    def dgamma_x(x, u):
        return np.stack([np.stack([gs[i][a].gradient(x) for a in range(m)])
                         for i in range(r)])

    def c_base_kernel(x, u):
        # frame bracket of e_i = d_i + G_i^A d_A: depends on x and u
        g = gamma(x, u)
        dgx = dgamma_x(x, u)  # [i, A, j] = d_j G_i^A
        out = np.zeros((r, r, m))
        for i in range(r):
            for j in range(r):
                out[i, j] = (dgx[j, :, i] - dgx[i, :, j]
                             + np.einsum("B,AB->A", g[i], mix[j])
                             - np.einsum("B,AB->A", g[j], mix[i]))
        return out

    # [e_i, e_B] = -dG_i^A/du^B e_A for the frame e_i = d_i + G_i^A d_A
    return FibredAlgebroidPair(
        base_dim=r, fibre_dim=m, kernel_rank=m,
        rho_base_u=gamma,
        rho_kernel_u=lambda x, u: np.eye(m),
        c_base_kernel=c_base_kernel,
        c_mixed=lambda x, u: -np.transpose(mix, (0, 2, 1)),
    )


def random_jet_point(rng: np.random.Generator, pair) -> "object":
    from algfield.fibred import JetPoint

    return JetPoint(
        x=rng.uniform(-1, 1, size=pair.base_dim),
        u=rng.uniform(-1, 1, size=pair.fibre_dim),
        y=rng.uniform(-1, 1, size=(pair.kernel_rank, pair.base_dim)),
    )


# ---------------------------------------------------------------------------
# per-node reference stencil
# ---------------------------------------------------------------------------

def node_stencil(at, grid, axis: int, idx):
    """Second-order difference along one grid axis at node ``idx``, node by node.

    ``at(jj)`` returns the value at node index tuple ``jj`` and is called
    only at the two or three nodes the stencil needs: central inside,
    wrapped on a periodic grid, second-order one-sided at the ends
    otherwise.  The reference that ``grid_derivative`` is checked against.
    """
    n = grid.extents[axis]
    h = grid.spacing[axis]
    i = idx[axis]

    def shifted(j):
        jj = list(idx)
        jj[axis] = j
        return at(tuple(jj))

    if grid.boundary == "periodic":
        return (shifted((i + 1) % n) - shifted((i - 1) % n)) / (2.0 * h)
    if 0 < i < n - 1:
        return (shifted(i + 1) - shifted(i - 1)) / (2.0 * h)
    if i == 0:
        return (-3.0 * shifted(0) + 4.0 * shifted(1) - shifted(2)) / (2.0 * h)
    return (3.0 * shifted(n - 1) - 4.0 * shifted(n - 2) + shifted(n - 3)) / (2.0 * h)


# ---------------------------------------------------------------------------
# two-array RK4 references for the one-vector integrators
# ---------------------------------------------------------------------------

class _LastValue:
    """One-entry memo of ``f(a)``, keyed on the bytes of the array ``a``.

    ``f`` runs again only when ``a`` differs from the last array it saw;
    a call of ``f`` that raises stores nothing.
    """

    def __init__(self, f):
        self.f, self.key, self.value = f, None, None

    def __call__(self, a):
        key = a.tobytes()
        if key != self.key:
            self.key, self.value = key, self.f(a)
        return self.value


def _mechanics_stage(pair, lagrangian, t, u, y, inverse, kernel, check_cond=False):
    """Rates ``(udot, ydot)`` at one stage, each half of the state in its own array;
    every ingredient is read at the stage's own point."""
    from algfield.differentiation import FINE_STEP, central_difference
    from algfield.fibred import sample_points
    from algfield.scenarios import DegenerateLagrangianError, _hessian_reader

    x = np.array([t])
    ycol = y[:, None]
    mk = y.shape[0]
    udot = np.zeros(0)
    if u.size:
        rho_k = pair.coefficient("rho_kernel_u", x, u)
        udot = pair.coefficient("rho_base_u", x, u)[0] + rho_k.T @ y
    mom = lagrangian.partial_y_points(x, u, ycol)[:, 0]
    if pair.c_kernel is None:
        ck = pair.coefficient("c_kernel", x, u)
    else:
        ck = kernel(sample_points(pair.c_kernel, "c_kernel", (mk, mk, mk), x, u))
    zslice = pair.coefficient("c_mixed", x, u)[0] + (y @ ck.reshape(mk, -1)).reshape(mk, mk)
    rhs = zslice @ mom
    if u.size:
        rhs += rho_k @ lagrangian.partial_u_points(x, u, ycol)
    hyy = _hessian_reader(lagrangian, "hess_yy", (mk, mk))(x, u, ycol)
    if u.size:
        hyu = _hessian_reader(lagrangian, "hess_yu", (mk, u.size))(x, u, ycol)
    hinv, well_conditioned = inverse(hyy)
    if check_cond and not well_conditioned:
        raise DegenerateLagrangianError(
            "velocity Hessian of the Lagrangian is singular or ill-conditioned")
    if u.size:
        rhs -= hyu @ udot
    if not lagrangian.autonomous:
        rhs -= central_difference(lagrangian.partial_y_points, (x, u, ycol), 0,
                                  FINE_STEP)[:, 0, 0]
    return udot, hinv @ rhs


def mechanics_reference(pair, lagrangian, initial, t_end, dt, cond_limit=1e12):
    """``(times, us, ys)`` of the RK4 loop that ``integrate_mechanics`` runs,
    written twice per line, once for ``u`` and once for ``y``."""
    from algfield.fibred import _antisym01
    from algfield.scenarios import IntegrationBlowupError, _inverse_and_verdict

    n_steps = int(round((t_end - initial.t) / dt))
    times = initial.t + dt * np.arange(n_steps + 1)
    us = np.zeros((n_steps + 1, pair.fibre_dim))
    ys = np.zeros((n_steps + 1, pair.kernel_rank))
    us[0], ys[0] = initial.u, initial.y
    memo = (_LastValue(lambda hyy: _inverse_and_verdict(hyy, cond_limit)),
            _LastValue(_antisym01))
    u, y = initial.u.astype(float).copy(), initial.y.astype(float).copy()
    for i in range(n_steps):
        t = times[i]
        k1u, k1y = _mechanics_stage(pair, lagrangian, t, u, y, *memo, check_cond=True)
        k2u, k2y = _mechanics_stage(pair, lagrangian, t + dt / 2,
                                    u + dt / 2 * k1u, y + dt / 2 * k1y, *memo)
        k3u, k3y = _mechanics_stage(pair, lagrangian, t + dt / 2,
                                    u + dt / 2 * k2u, y + dt / 2 * k2y, *memo)
        k4u, k4y = _mechanics_stage(pair, lagrangian, t + dt,
                                    u + dt * k3u, y + dt * k3y, *memo)
        u = u + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        y = y + dt / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        if not (np.isfinite(u).all() and np.isfinite(y).all()):
            raise IntegrationBlowupError(f"non-finite state at t = {t + dt}")
        us[i + 1], ys[i + 1] = u, y
    return times, us, ys


def flow_reference(model, sigma, s, x0, steps=100):
    """``(x, M)`` of the RK4 loop that ``flow_of_section`` runs, written
    twice per line, once for the base point and once for the fibre matrix."""
    def rhs(x, m):
        rho = model.anchor_at(x)
        sx = sigma.at(x)
        d = np.einsum("gi,bi->bg", rho, sigma.jacobian(x))
        d += np.einsum("gab,a->bg", model.bracket_at(x), sx)
        return np.einsum("ai,a->i", rho, sx), d @ m

    x, m = np.asarray(x0, dtype=float).copy(), np.eye(model.rank)
    h = s / steps
    for _ in range(steps):
        k1x, k1m = rhs(x, m)
        k2x, k2m = rhs(x + 0.5 * h * k1x, m + 0.5 * h * k1m)
        k3x, k3m = rhs(x + 0.5 * h * k2x, m + 0.5 * h * k2m)
        k4x, k4m = rhs(x + h * k3x, m + h * k3m)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        m = m + (h / 6.0) * (k1m + 2 * k2m + 2 * k3m + k4m)
    return x, m


# ---------------------------------------------------------------------------
# seven-einsum flatness residual, the reference for the batched products
# ---------------------------------------------------------------------------

def morphism_reference(pair, x, u, y, dy):
    """Flatness residual at nodes of any leading axes, every term one generic
    ``einsum`` as in the formula of ``fields.morphism_residual``."""
    rho_f = pair.coefficient("rho_f", x)
    cm = pair.coefficient("c_mixed", x, u)
    ck = pair.coefficient("c_kernel", x, u)

    out = np.einsum("...bi,...kai->...kab", rho_f, dy)
    out -= np.einsum("...ai,...kbi->...kab", rho_f, dy)
    out += np.einsum("...bgk,...ga->...kab", cm, y)
    out -= np.einsum("...agk,...gb->...kab", cm, y)
    out += np.einsum("...mgk,...mb,...ga->...kab", ck, y, y)
    out += np.einsum("...abc,...kc->...kab", pair.coefficient("c_f", x), y)
    out -= np.einsum("...abk->...kab", pair.coefficient("c_base_kernel", x, u))
    return 0.5 * (out - np.swapaxes(out, -2, -1))
