"""Checks of the program's outputs against computations made here.

Nothing in this module imports ``algfield``.  The inputs the program drew
from the seed are drawn again with the same ``numpy`` generator calls,
fields are built from them with this module's own closed forms, and
residuals are re-derived with this module's own central differences.
Each check returns a list of failure messages, empty when it passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

# Halving the step divides a second-order error by about 4 and an RK4
# drift by about 16; these are the windows each ratio check must hit.
ORDER_WINDOWS = {
    "morphism_convergence": (3.0, 5.0),
    "first_variation_convergence": (3.0, 5.0),
    "drift_convergence": (10.0, 24.0),
}

# The gauge field is a central difference of step 1e-6 of a matrix
# function; recomputing it with other rounding moves it by about
# eps / 1e-6 ~ 1e-10, which the grid stencils carry into the residuals.
GAUGE_RESIDUAL_TOL = 1e-8
# Scalar fields are sampled in closed form; only the connection's own
# central differences (step 1e-4 on a linear function) add rounding.
SCALAR_RESIDUAL_TOL = 1e-10
# Against solve_ivp at rtol = atol = 1e-12, RK4 with dt = 1e-3 over ten
# time units is accurate to a few 1e-9 on these trajectories.
TRAJECTORY_TOL = 1e-7
SERIES_RTOL = 1e-12


def _trig_draws(rng, dim, n_modes=3, max_freq=1, amplitude=1.0):
    """The draws of one random trigonometric polynomial, in the program's order."""
    waves = rng.integers(-max_freq, max_freq + 1, size=(n_modes, dim)).astype(float)
    amps = amplitude * rng.uniform(-1.0, 1.0, size=n_modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    return waves, amps, phases


def _trig_eval(draws, x):
    waves, amps, phases = draws
    return np.cos(x @ waves.T + phases) @ amps


def _trig_grad(draws, x):
    waves, amps, phases = draws
    return -(np.sin(x @ waves.T + phases) * amps) @ waves


def _grid_points(n, dim):
    axes = np.meshgrid(*[np.arange(n) * (2.0 * np.pi / n)] * dim, indexing="ij")
    return np.stack(axes, axis=-1)


def _central(values, axis, h):
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)


def _load_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _compare(label, got, want, tol):
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not np.isfinite(err) or err > tol:
        return [f"{label}: max deviation {err:.3e} > {tol:.1e}"]
    return []


# ---------------------------------------------------------------------------
# pure-gauge su(2) fields: flatness residual
# ---------------------------------------------------------------------------

_SU2 = np.stack([-0.5j * np.array([[0, 1], [1, 0]], dtype=complex),
                 -0.5j * np.array([[0, -1j], [1j, 0]], dtype=complex),
                 -0.5j * np.array([[1, 0], [0, -1]], dtype=complex)])
_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _EPS[_i, _j, _k], _EPS[_j, _i, _k] = 1.0, -1.0


def _su2_exp(v):
    """``exp(v^a T_a)`` for a stack of vectors ``v`` (closed form)."""
    theta = np.linalg.norm(v, axis=-1)[..., None, None]
    safe = np.where(theta > 0, theta, 1.0)
    x = np.einsum("...a,aij->...ij", v, _SU2)
    return np.cos(theta / 2) * np.eye(2) + 2 * np.sin(theta / 2) * x / safe


def pure_gauge_field(seed, n, dim, amplitude, fd_step=1e-6):
    """``A_a = g^-1 d_a g`` in su(2) components on the periodic n^dim lattice."""
    rng = np.random.default_rng(seed)
    comps = [_trig_draws(rng, dim, amplitude=amplitude) for _ in range(3)]

    def gauge(x):
        return _su2_exp(np.stack([_trig_eval(c, x) for c in comps], axis=-1))

    x = _grid_points(n, dim)
    ginv = np.linalg.inv(gauge(x))
    y = np.zeros(x.shape[:-1] + (3, dim))
    for a in range(dim):
        shift = np.zeros(dim)
        shift[a] = fd_step
        dg = (gauge(x + shift) - gauge(x - shift)) / (2 * fd_step)
        amat = ginv @ dg
        # the basis is orthogonal with trace norm 1/2
        y[..., a] = 2.0 * np.real(np.einsum("kij,...ij->...k", _SU2.conj(), amat))
    return y


def gauge_flatness(seed, n, dim, amplitude):
    """Flatness residual ``M[k, a, b]`` of the pure-gauge field, and node coordinates."""
    y = pure_gauge_field(seed, n, dim, amplitude)
    h = 2.0 * np.pi / n
    dy = np.stack([_central(y, i, h) for i in range(dim)], axis=-1)  # [..., k, a, i]
    mor = (dy - np.swapaxes(dy, -1, -2)                             # d_b y_a - d_a y_b
           + np.einsum("mgk,...mb,...ga->...kab", _EPS, y, y))
    return mor.reshape(-1, 3, dim, dim), _grid_points(n, dim).reshape(-1, dim)


def check_gauge_csv(path, seed, n, dim, amplitude):
    header, data = _load_csv(path)
    mor, x = gauge_flatness(seed, n, dim, amplitude)
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    want_header = ([f"x_{i}" for i in range(dim)]
                   + [f"mor_{k}_{a}_{b}" for k in range(3) for a, b in pairs])
    if header != want_header:
        return [f"{path.name}: header {header} != {want_header}"]
    want = np.stack([mor[:, k, a, b] for k in range(3) for a, b in pairs], axis=1)
    return (_compare(f"{path.name} coordinates", data[:, :dim], x, 1e-12)
            + _compare(f"{path.name} flatness residual", data[:, dim:], want,
                       GAUGE_RESIDUAL_TOL))


# ---------------------------------------------------------------------------
# scalar field in a linear connection frame: admissibility and flatness
# ---------------------------------------------------------------------------

def scalar_field_residuals(seed, n, structure_points, coeffs):
    """Admissibility ``[node, a]`` and flatness ``[node]`` of the seeded 2d field.

    The connection is ``G_a(u) = c_a u``; the field is ``u = f`` with
    ``y_a = d_a f - c_a f`` for a seeded trig polynomial ``f``, drawn after
    the points of the structure-equation check.
    """
    rng = np.random.default_rng(seed)
    rng.uniform(-1.0, 1.0, size=(structure_points, 3))
    draws = _trig_draws(rng, 2, amplitude=0.6)
    c = np.asarray(coeffs, dtype=float)
    x = _grid_points(n, 2)
    u = _trig_eval(draws, x)
    y = _trig_grad(draws, x) - c * u[..., None]
    h = 2.0 * np.pi / n
    adm = np.stack([_central(u, a, h) - c[a] * u - y[..., a] for a in range(2)], axis=-1)
    mor = (_central(y[..., 0], 1, h) - _central(y[..., 1], 0, h)
           - c[1] * y[..., 0] + c[0] * y[..., 1])
    return adm.reshape(-1, 2), mor.reshape(-1), x.reshape(-1, 2)


def check_scalar_csv(path, seed, n, structure_points, coeffs):
    header, data = _load_csv(path)
    want_header = ["x_0", "x_1", "adm_0_0", "adm_0_1", "mor_0_0_1"]
    if header != want_header:
        return [f"{path.name}: header {header} != {want_header}"]
    adm, mor, x = scalar_field_residuals(seed, n, structure_points, coeffs)
    return (_compare(f"{path.name} coordinates", data[:, :2], x, 1e-12)
            + _compare(f"{path.name} admissibility residual", data[:, 2:4], adm,
                       SCALAR_RESIDUAL_TOL)
            + _compare(f"{path.name} flatness residual", data[:, 4], mor,
                       SCALAR_RESIDUAL_TOL))


# ---------------------------------------------------------------------------
# mechanics: independent integration of the textbook equations
# ---------------------------------------------------------------------------

def _ivp(rhs, z0, times):
    sol = solve_ivp(rhs, (times[0], times[-1]), z0, method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=times)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def _times(params):
    n_steps = int(round(params["t_end"] / params["dt"]))
    return params["dt"] * np.arange(n_steps + 1)


def rigid_body_reference(params):
    """Euler's equations ``I w' = (I w) x w`` with ``w = y``."""
    inertia = np.asarray(params["inertia"], dtype=float)
    times = _times(params)
    w = _ivp(lambda t, w: np.cross(inertia * w, w) / inertia, params["y0"], times)
    return times, w


def heavy_top_reference(params):
    """``I W' = (I W) x W + mgl G x chi``, ``G' = G x W``; ``y = -W``, ``u = G``."""
    inertia = np.asarray(params["inertia"], dtype=float)
    chi = np.asarray(params["chi"], dtype=float)
    mgl = float(params["mgl"])

    def rhs(t, z):
        om, ga = z[:3], z[3:]
        return np.concatenate([(np.cross(inertia * om, om) + mgl * np.cross(ga, chi))
                               / inertia, np.cross(ga, om)])

    times = _times(params)
    z = _ivp(rhs, np.concatenate([-np.asarray(params["y0"]), params["u0"]]), times)
    return times, -z[:, :3], z[:, 3:]


def check_rigid_body_csv(path, params, reference):
    header, data = _load_csv(path)
    if header != ["t", "y_0", "y_1", "y_2", "casimir", "energy"]:
        return [f"{path.name}: unexpected header {header}"]
    times, w = reference
    inertia = np.asarray(params["inertia"], dtype=float)
    y = data[:, 1:4]
    energy = 0.5 * np.sum(inertia * y ** 2, axis=1)
    casimir = np.sum((inertia * y) ** 2, axis=1)
    return (_compare(f"{path.name} times", data[:, 0], times, 1e-12)
            + _compare(f"{path.name} angular velocity vs solve_ivp", y, w, TRAJECTORY_TOL)
            + _compare(f"{path.name} casimir", data[:, 4] / casimir, 1.0, SERIES_RTOL)
            + _compare(f"{path.name} energy", data[:, 5] / energy, 1.0, SERIES_RTOL))


def check_heavy_top_csv(path, params, reference):
    header, data = _load_csv(path)
    if header != ["t", "u_0", "u_1", "u_2", "y_0", "y_1", "y_2",
                  "axis_current", "casimir", "energy", "sphere"]:
        return [f"{path.name}: unexpected header {header}"]
    times, y_ref, u_ref = reference
    inertia = np.asarray(params["inertia"], dtype=float)
    chi = np.asarray(params["chi"], dtype=float)
    u, y = data[:, 1:4], data[:, 4:7]
    mom = inertia * y
    series = {
        "axis_current": mom[:, 2],
        "casimir": np.sum(mom * u, axis=1),
        "energy": 0.5 * np.sum(inertia * y ** 2, axis=1) + params["mgl"] * (u @ chi),
        "sphere": np.sum(u ** 2, axis=1),
    }
    out = (_compare(f"{path.name} times", data[:, 0], times, 1e-12)
           + _compare(f"{path.name} -omega vs solve_ivp", y, y_ref, TRAJECTORY_TOL)
           + _compare(f"{path.name} gamma vs solve_ivp", u, u_ref, TRAJECTORY_TOL))
    for col, name in enumerate(("axis_current", "casimir", "energy", "sphere"), start=7):
        scale = max(float(np.max(np.abs(series[name]))), 1e-300)
        out += _compare(f"{path.name} {name}", data[:, col] / scale,
                        series[name] / scale, SERIES_RTOL)
    return out


# ---------------------------------------------------------------------------
# report.json
# ---------------------------------------------------------------------------

# Check verdicts that pass or fail with the seed at the shipped sizes, so
# the benchmark leaves them out (see the FOUND lines in CHANGES.md).  At
# lattice 12 about one seed in eight gives a flatness convergence ratio of
# 3.2-3.5, under the configs' floor of 3.5 (the ratio is still held to the
# second-order window here), and a few seeds push the chern_simons
# flatness maximum just over its tolerance of 0.2.  standard_field draws
# its one-component first-variation section with all wave vectors zero
# for about one seed in 729 (seed 131); the section is then constant, the
# defect is rounding at both sizes and the ratio means nothing.
SEED_DEPENDENT = {
    ("chern_simons", "morphism_sweep"),
    ("chern_simons", "morphism_convergence"),
    ("atiyah_euler_poincare", "morphism_convergence"),
    ("standard_field", "first_variation_convergence"),
}


def check_report(path, config, exit_code):
    """Checks present once and passed, exit code matching, ratios in their windows."""
    report = json.loads(Path(path).read_text())
    out = []
    names = [c["name"] for c in report["checks"]]
    if names != [c["name"] for c in config["checks"]]:
        out.append(f"{path}: checks {names} do not match the config")
    if exit_code != (0 if report.get("all_passed") is True else 1):
        out.append(f"{path}: exit code {exit_code} with all_passed {report.get('all_passed')}")
    if report.get("seed") != config["seed"]:
        out.append(f"{path}: seed {report.get('seed')} != {config['seed']}")
    for chk in report["checks"]:
        judged = (config["scenario"], chk["kind"]) not in SEED_DEPENDENT
        if judged and not chk["passed"]:
            out.append(f"{path}: check {chk['name']} failed")
        windowed = chk["kind"] in ORDER_WINDOWS and (judged or chk["kind"] == "morphism_convergence")
        if not windowed:
            continue
        lo, hi = ORDER_WINDOWS[chk["kind"]]
        extra = chk.get("extra", {})
        ratio = extra.get("coarse", np.nan) / extra.get("fine", np.nan)
        if not lo <= ratio <= hi or abs(ratio - extra.get("ratio", np.nan)) > 1e-12 * ratio:
            out.append(f"{path}: {chk['name']} ratio {extra.get('ratio')} "
                       f"(coarse/fine {ratio}) outside [{lo}, {hi}]")
    return out
