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
