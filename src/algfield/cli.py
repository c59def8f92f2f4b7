"""Command-line front end: run scenario configs, emit machine-readable reports.

``algfield run <config> <outdir>`` executes every check listed in the
config and writes ``report.json`` (deterministic for a fixed config and
seed: wall time goes to ``timing.json``), plus a CSV dump of the primary
field or trajectory.  The exit code is 0 exactly when all checks pass;
distinct nonzero codes identify check failures, config errors, unknown
scenario kinds and I/O errors (see EXIT_* constants, documented in the
README).

Each scenario kind is one ``Scenario`` entry of ``SCENARIOS``: a set-up
function that checks the params, including the limits of the configured
check kinds, and builds the pair, the Lagrangian and any gauge into a
``CheckContext``; one check function per check kind; and the CSV writer.
``run``, ``check-config`` and ``list`` all take their check kinds from
that table, and ``run`` validates the config and runs the set-up before
it makes the output directory, so every config error is caught before
any work is done.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import scenarios as sc
from .algebroid import structure_residual_max
from .fibred import ProjectableSection, stacked
from .fields import DiscretizedSection, GridSpec, grid_derivative, residual_report
from .smoothfields import TrigPolynomial, trig_polynomial, trig_vector
from .variational import el_residual_field, first_variation_identity_defect

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_SCHEMA_VIOLATION = 3
EXIT_UNKNOWN_SCENARIO = 4
EXIT_IO_ERROR = 5


class ConfigError(ValueError):
    """Config fails schema or semantic validation."""


class UnknownScenarioError(ValueError):
    pass


class CheckContext:
    """State of one scenario run, shared by its checks and its CSV writer.

    Holds the config's params, seed and set of check kinds, the run's
    random generator, the objects the scenario's set-up adds as attributes
    (``pair``, ``lag``, ...) and lazily computed results.  Nothing stored
    here may refer back to the context, so a run's fields are freed as soon
    as ``run_command`` returns instead of at the next garbage collection.
    """

    def __init__(self, config: dict, rng: np.random.Generator):
        self.params = config.get("params", {})
        self.seed = int(config.get("seed", 0))
        self.kinds = {chk["kind"] for chk in config["checks"]}
        self.rng = rng
        self._cache: dict = {}

    def cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]


@dataclass
class CheckResult:
    name: str
    kind: str
    max_norm: float
    l2_norm: float
    tolerance: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = asdict(self)
        if not self.extra:
            del out["extra"]
        return out


@dataclass(frozen=True)
class Scenario:
    """One scenario kind: what ``list`` prints and what ``run`` executes.

    ``setup(ctx)`` adds the scenario's objects to the context; ``checks``
    maps each check kind to ``check(chk, ctx) -> CheckResult``, called in
    config order; ``write(ctx, outdir)`` writes the CSV dump and returns
    the names of the files it wrote.  The run's RNG is drawn from in that
    order (gauges at set-up, structure points per check, the seeded field
    at its first use), which keeps a report fixed for a given seed.
    """

    summary: str
    params: tuple
    setup: Callable
    checks: dict
    write: Callable


# ---------------------------------------------------------------------------
# check results
# ---------------------------------------------------------------------------

def _norm_result(chk, values, default_tol, extra=None) -> CheckResult:
    tol = chk.get("tol", default_tol)
    values = np.atleast_1d(np.asarray(values, dtype=float))
    max_norm = float(np.max(np.abs(values))) if values.size else 0.0
    l2_norm = float(np.sqrt(np.mean(values ** 2))) if values.size else 0.0
    return CheckResult(name=chk["name"], kind=chk["kind"], max_norm=max_norm,
                       l2_norm=l2_norm, tolerance=float(tol),
                       passed=bool(max_norm <= tol), extra=extra or {})


def _ratio_result(chk, coarse, fine, default_min, default_max) -> CheckResult:
    """Coarse/fine error ratio; passes inside ``[ratio_min, ratio_max]``.  A fine
    error of 0 gives the ratio ``None`` (``null`` in the report) and fails."""
    ratio_min = chk.get("ratio_min", default_min)
    ratio_max = chk.get("ratio_max", default_max)
    ratio = float(coarse / fine) if fine > 0 else None
    return CheckResult(
        name=chk["name"], kind=chk["kind"], max_norm=float(coarse), l2_norm=float(fine),
        tolerance=float(ratio_max),
        passed=ratio is not None and bool(ratio_min <= ratio <= ratio_max),
        extra={"ratio": ratio, "ratio_min": ratio_min, "ratio_max": ratio_max,
               "coarse": float(coarse), "fine": float(fine)})


def _param(ctx, key, default, convert=float, valid=lambda v: True, need="a number"):
    """``params[key]`` (or ``default``) through ``convert``; ConfigError unless
    it is a JSON number or a list of them, and the result is finite and
    ``valid``."""
    raw = ctx.params.get(key, default)
    try:
        value = convert(raw)
        ok = ((all(map(_is_number, raw)) if isinstance(raw, list) else _is_number(raw))
              and bool(np.all(np.isfinite(value))) and valid(value))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"params.{key} must be {need}, got {raw!r}")
    return value


def _integer(raw) -> int:
    """``raw`` as an int; ValueError for non-integral values."""
    if int(raw) != float(raw):
        raise ValueError(raw)
    return int(raw)


def _needs(ctx, kind, ok, need):
    """ConfigError when check ``kind`` is configured and its limit does not hold."""
    if kind in ctx.kinds and not ok:
        raise ConfigError(f"{kind} needs {need}")


def _vector(ctx, key, default):
    n = len(default)
    return _param(ctx, key, default, lambda v: np.asarray(v, dtype=float),
                  lambda v: v.shape == (n,), f"a list of {n} numbers")


def _lattice(ctx):
    return _param(ctx, "lattice", 12, _integer, lambda v: v >= 3, "an integer >= 3")


def _time_grid(ctx, dt, t_end):
    ctx.dt = _param(ctx, "dt", dt, valid=lambda v: v > 0, need="a positive number")
    ctx.t_end = _param(ctx, "t_end", t_end,
                       valid=lambda v: v >= ctx.dt and sc.whole_steps(v, ctx.dt),
                       need=f"a whole number of steps dt = {ctx.dt!r}, at least one")


# ---------------------------------------------------------------------------
# checks shared by several scenarios
# ---------------------------------------------------------------------------

def _structure_check(chk, ctx) -> CheckResult:
    total = ctx.pair.total_algebroid()
    n_points = int(chk.get("points", 100))
    pts = ctx.rng.uniform(-1.0, 1.0, size=(n_points, total.base_dim))
    worst = structure_residual_max(total, pts)
    return _norm_result(chk, worst, 1e-8, extra={"points": n_points})


def _seeded_sigma(rng, dim, pair) -> ProjectableSection:
    """Seeded vertical section that depends on the base point alone.

    When every component draws only zero wave vectors the section is
    constant, both first-variation defects are rounding noise and their
    ratio means nothing, so such a draw is replaced by the next one (a
    pair without kernel directions has no components to redraw).
    """
    mu, mk = pair.fibre_dim, pair.kernel_rank
    comps = trig_vector(rng, dim, mk)
    while comps and not any(np.any(c.waves) for c in comps):
        comps = trig_vector(rng, dim, mk)
    return ProjectableSection(
        vertical_coeffs=stacked(lambda x, u: np.stack([c(x) for c in comps], axis=-1)),
        d_vertical_x=stacked(lambda x, u: np.stack([c.gradient(x) for c in comps], axis=-2)),
        d_vertical_u=stacked(lambda x, u: np.zeros(x.shape[:-1] + (mk, mu))),
    )


def _first_variation(chk, ctx, rng, grids, nodes, window) -> CheckResult:
    """Coarse/fine ratio of the first-variation defect at ``nodes`` of ``grids[0]``
    (indices doubled on ``grids[1]``) for seeded ``u``, ``y`` and ``sigma``."""
    pair, dim = ctx.pair, grids[0].dim
    mu, mk = pair.fibre_dim, pair.kernel_rank
    fu = trig_vector(rng, dim, mu)
    fy = trig_vector(rng, dim, mk * dim)
    sigma = _seeded_sigma(rng, dim, pair)
    u_fn = stacked(lambda x: np.stack([c(x) for c in fu], axis=-1)) if mu else None
    y_fn = stacked(lambda x: np.stack([c(x) for c in fy], axis=-1).reshape(
        x.shape[:-1] + (mk, dim)))
    defects = []
    for scale, grid in enumerate(grids, start=1):
        sec = DiscretizedSection.from_functions(grid, mu, mk, u_fn=u_fn, y_fn=y_fn)
        defects.append(max(first_variation_identity_defect(
            pair, ctx.lag, sigma, sec, [tuple(scale * i for i in node) for node in nodes])))
    return _ratio_result(chk, defects[0], defects[1], *window)


def _morphism_convergence(report):
    """Check kind: ratio of the max flatness residual of ``report(ctx, nn)``
    between lattices ``n`` and ``2n``, both over the nodes the lattices
    share (every second node of ``2n``); ``extra.fine_all_nodes`` is the
    fine maximum over all its nodes."""
    def check(chk, ctx):
        coarse, fine = (report(ctx, nn) for nn in (ctx.n, 2 * ctx.n))
        # morphism residuals have shape extents + (kernel_rank, dim, dim)
        shared = fine.morphism[(slice(None, None, 2),) * (fine.morphism.ndim - 3)]
        result = _ratio_result(chk, coarse.morphism_max, float(np.abs(shared).max()), 3.5, 4.5)
        result.extra["fine_all_nodes"] = fine.morphism_max
        return result
    return check


# ---------------------------------------------------------------------------
# mechanics scenarios
# ---------------------------------------------------------------------------

def _rigid_body_setup(ctx):
    inertia = _vector(ctx, "inertia", [1.0, 2.0, 3.0])
    y0 = _vector(ctx, "y0", [1.0, 1.0, 1.0])
    _time_grid(ctx, 1e-3, 10.0)
    ctx.pair = sc.rigid_body_pair()
    ctx.lag = sc.rigid_body_lagrangian(inertia)
    ctx.state0 = sc.MechanicsState(0.0, np.zeros(0), y0)
    ctx.conserved = lambda tr, lg: {
        "energy": tr.energy_series(lg, tr.momentum_series(lg)),
        "casimir": np.sum((inertia * tr.y) ** 2, axis=1),
    }


def _heavy_top_setup(ctx):
    inertia = _vector(ctx, "inertia", [2.0, 2.0, 1.0])
    mgl = _param(ctx, "mgl", 1.0)
    chi = _vector(ctx, "chi", [0.0, 0.0, 1.0])
    u0 = _vector(ctx, "u0", [0.2, 0.0, 0.9797958971132712])
    y0 = _vector(ctx, "y0", [0.1, -0.2, 5.0])
    _time_grid(ctx, 1e-3, 10.0)
    ctx.pair = sc.heavy_top_pair()
    ctx.lag = sc.heavy_top_lagrangian(inertia, mgl=mgl, chi=chi)
    ctx.state0 = sc.MechanicsState(0.0, u0, y0)

    def conserved(tr, lg):
        mom = tr.momentum_series(lg)
        return {"energy": tr.energy_series(lg, mom), "sphere": np.sum(tr.u ** 2, axis=1),
                "casimir": np.sum(mom * tr.u, axis=1), "axis_current": mom[:, 2]}
    ctx.conserved = conserved


def _free_particle_setup(ctx):
    dim = _param(ctx, "dim", 2, _integer, lambda v: v >= 1, "an integer >= 1")
    u0 = _vector(ctx, "u0", [0.0] * dim)
    y0 = _vector(ctx, "y0", [1.0] * dim)
    _time_grid(ctx, 1e-2, 5.0)
    ctx.pair = sc.free_particle_pair(dim)
    ctx.lag = sc.quadratic_kinetic_lagrangian(np.ones(dim))
    ctx.state0 = sc.MechanicsState(0.0, u0, y0)
    ctx.conserved = lambda tr, lg: {"energy": tr.energy_series(lg, tr.momentum_series(lg))}


def _trajectory(ctx, dt):
    """Trajectory at step ``dt`` and the series of each conserved quantity along it."""
    def build():
        traj = sc.integrate_mechanics(ctx.pair, ctx.lag, ctx.state0,
                                      t_end=ctx.t_end, dt=dt)
        return traj, ctx.conserved(traj, ctx.lag)
    return ctx.cached(("trajectory", dt), build)


def _relative_drift(series) -> float:
    scale = max(abs(series[0]), 1e-30)
    return float(np.max(np.abs(series - series[0])) / scale)


def _drift(quantity, default_tol):
    """Check kind: relative drift of one conserved quantity along the trajectory."""
    def check(chk, ctx):
        _, series = _trajectory(ctx, ctx.dt)
        return _norm_result(chk, _relative_drift(series[quantity]), default_tol)
    return check


def _drift_convergence(chk, ctx) -> CheckResult:
    _, coarse = _trajectory(ctx, ctx.dt)
    _, fine = _trajectory(ctx, ctx.dt / 2)
    return _ratio_result(chk, _relative_drift(coarse["energy"]),
                         _relative_drift(fine["energy"]), 10.0, 24.0)


def _el_residual_trajectory(chk, ctx) -> CheckResult:
    traj, _ = _trajectory(ctx, ctx.dt)
    series = traj.el_residual_series(ctx.pair, ctx.lag)
    return _norm_result(chk, np.max(np.abs(series[1:-1])), 50 * ctx.dt ** 2 * 10)


def _exact_solution(chk, ctx) -> CheckResult:
    traj, _ = _trajectory(ctx, ctx.dt)
    u0, y0 = ctx.state0.u, ctx.state0.y
    expected_u = u0[None, :] + traj.times[:, None] * y0[None, :]
    err = max(np.max(np.abs(traj.u - expected_u)), np.max(np.abs(traj.y - y0[None, :])))
    return _norm_result(chk, err, 1e-10)


def _mechanics_first_variation(chk, ctx) -> CheckResult:
    # off-shell identity on seeded smooth non-solution data over [0, 2]
    grids = [GridSpec((n,), (2.0 / (n - 1),), "one_sided") for n in (101, 201)]
    return _first_variation(chk, ctx, ctx.rng, grids, [(i,) for i in (0, 10, 50, 100)],
                            (3.5, 4.5))


# ---------------------------------------------------------------------------
# lattice field scenarios
# ---------------------------------------------------------------------------

def _field(ctx, nn) -> DiscretizedSection:
    """The scenario's field on the ``nn`` lattice, drawn by ``ctx.sample_field``."""
    return ctx.cached(("field", nn), lambda: ctx.sample_field(nn))


def _field_report(ctx, nn):
    return ctx.cached(("report", nn),
                      lambda: residual_report(ctx.pair, _field(ctx, nn)))


def _standard_connection(ctx):
    # the scalar field and its first-variation data are drawn on a 2d base
    # for a single fibre coordinate
    r = _param(ctx, "base_dim", 2, _integer, lambda v: v == 2, "2")
    fibre_dim = _param(ctx, "fibre_dim", 1, _integer, lambda v: v == 1, "1")
    kind = ctx.params.get("connection", "zero")
    if kind == "zero":
        data = sc.StandardCaseData(
            gamma=stacked(lambda x, u: np.zeros(x.shape[:-1] + (r, fibre_dim))))
    elif kind == "linear_u":
        coeffs = _vector(ctx, "connection_coeffs", [0.4, -0.7])
        # np.outer(coeffs, u) at every point
        data = sc.StandardCaseData(
            gamma=stacked(lambda x, u: coeffs[:, None] * u[..., None, :]))
    else:
        raise ConfigError(f"unknown connection kind {kind!r}")
    _needs(ctx, "el_vs_classical", kind == "zero", "the zero connection")
    return sc.builder_standard(data, base_dim=r, fibre_dim=fibre_dim)


def _scalar_section(pair, grid, f) -> DiscretizedSection:
    """Scalar field ``u = f`` with ``y_a = d_a f - Gamma_a(x, u)`` (admissible)."""
    return DiscretizedSection.from_functions(
        grid, 1, 1,
        u_fn=stacked(lambda x: f(x)[..., None]),
        y_fn=stacked(lambda x: (f.gradient(x) - pair.coefficient(
            "rho_base_u", x, f(x)[..., None])[..., 0])[..., None, :]))


def _standard_field_setup(ctx):
    ctx.n = _lattice(ctx)
    _needs(ctx, "first_variation_convergence", ctx.n >= 6, "lattice >= 6")
    ctx.mass = _param(ctx, "mass", 0.0)
    ctx.pair = pair = _standard_connection(ctx)
    ctx.lag = sc.scalar_field_lagrangian(mass=ctx.mass)
    rng = ctx.rng
    # drawn from the run's RNG when a check (or the CSV) first needs it;
    # closes over rng and pair only, never over ctx
    ctx.sample_field = lambda nn: _scalar_section(
        pair, GridSpec.periodic_box((nn, nn)),
        trig_polynomial(rng, 2, n_modes=3, max_freq=1, amplitude=0.6))


def _el_vs_classical(chk, ctx) -> CheckResult:
    n = ctx.n
    sec = _field(ctx, n)
    div = sum(grid_derivative(sec.y[..., 0, a], sec.grid, a) for a in range(2))
    el = el_residual_field(ctx.pair, ctx.lag, sec)
    worst = 0.0
    for idx in [(0, 0), (n // 3, 1), (n - 1, n // 2)]:
        oracle = div[idx] + ctx.mass ** 2 * sec.u[idx][0]
        worst = max(worst, abs(el[idx][0] - oracle))
    return _norm_result(chk, worst, 1e-10)


def _admissibility_sweep(chk, ctx) -> CheckResult:
    return _norm_result(chk, _field_report(ctx, ctx.n).admissibility_max, 1e-3)


def _fixed_wave_report(ctx, nn):
    # the sampled-gradient curl cancels exactly on a uniform grid for
    # modes with |w_1| = |w_2|, so fix asymmetric wave vectors and
    # seed only amplitudes and phases
    rng = np.random.default_rng(ctx.seed + 11)
    f = TrigPolynomial(
        waves=np.array([[2.0, 1.0], [1.0, 0.0], [1.0, 2.0]]),
        amplitudes=0.6 * rng.uniform(0.3, 1.0, size=3),
        phases=rng.uniform(0, 2 * np.pi, size=3))
    sec = _scalar_section(ctx.pair, GridSpec.periodic_box((nn, nn)), f)
    return residual_report(ctx.pair, sec)


def _field_first_variation(chk, ctx) -> CheckResult:
    n = ctx.n
    return _first_variation(chk, ctx, np.random.default_rng(ctx.seed + 23),
                            [GridSpec.periodic_box((nn, nn)) for nn in (n, 2 * n)],
                            [(0, 0), (3, 5), (n - 2, 1), (n // 2, n // 2)], (3.0, 5.0))


def _gauge_coords(kind, amplitude, rng, dim):
    """Exponential coordinates ``v`` of the gauge ``exp(v^al T_al)``, drawn from ``rng``."""
    if kind == "identity":
        return [0, 0, 0]
    if kind == "single_generator":
        return [0, 0, trig_polynomial(rng, dim, amplitude=amplitude)]
    if kind == "random_su2":
        return trig_vector(rng, dim, 3, amplitude=amplitude)
    raise ConfigError(f"unknown gauge function {kind!r}")


def _chern_simons_setup(ctx):
    ctx.n = _lattice(ctx)
    _needs(ctx, "cs_identity_defect", ctx.n >= 4, "lattice >= 4")
    ctx.data = sc.ChernSimonsData.su2()
    coords = _gauge_coords(ctx.params.get("gauge", "random_su2"),
                           _param(ctx, "gauge_amplitude", 0.5), ctx.rng, 3)
    ctx.sample_field = lambda nn: sc.su2_exponential_gauge_field(
        coords, GridSpec.periodic_box((nn, nn, nn)))
    ctx.pair, ctx.lag = sc.builder_chern_simons(ctx.data,
                                                GridSpec.periodic_box((ctx.n,) * 3))


def _atiyah_setup(ctx):
    ctx.n = _lattice(ctx)
    dim = _param(ctx, "base_dim", 2, _integer, lambda v: v >= 1, "an integer >= 1")
    _needs(ctx, "first_variation_convergence", dim == 2 and ctx.n >= 6,
           "base_dim 2 and lattice >= 6")
    ctx.inertia = _vector(ctx, "inertia", [1.0, 2.0, 3.0])
    ctx.pair = sc.builder_atiyah(sc.AtiyahData(constants=sc.EPSILON3), base_dim=dim)
    ctx.lag = sc.quadratic_kinetic_lagrangian(np.ones(3))
    coords = _gauge_coords("random_su2", _param(ctx, "gauge_amplitude", 0.5), ctx.rng, dim)
    ctx.sample_field = lambda nn: sc.su2_exponential_gauge_field(
        coords, GridSpec.periodic_box((nn,) * dim))


def _morphism_sweep(chk, ctx) -> CheckResult:
    report = _field_report(ctx, ctx.n)
    tol = float(chk.get("tol", 1e-1))
    return CheckResult(name=chk["name"], kind=chk["kind"], max_norm=report.morphism_max,
                       l2_norm=report.morphism_l2, tolerance=tol,
                       passed=bool(report.max_norm <= tol))


def _el_vs_morphism_bound(chk, ctx) -> CheckResult:
    sec = _field(ctx, ctx.n)
    report = _field_report(ctx, ctx.n)
    el = el_residual_field(ctx.pair, ctx.lag, sec)
    kappa = 3.0 * np.max(np.abs(sec.y)) * np.max(
        np.sum(np.abs(ctx.data.lowered), axis=(1, 2)))
    bound = kappa * report.morphism_max
    return CheckResult(
        name=chk["name"], kind=chk["kind"], max_norm=float(np.max(np.abs(el))),
        l2_norm=float(np.sqrt(np.mean(el ** 2))), tolerance=float(bound),
        passed=bool(np.max(np.abs(el)) <= bound),
        extra={"kappa": float(kappa), "morphism_max": float(report.morphism_max)})


def _cs_identity_defect(chk, ctx) -> CheckResult:
    n = ctx.n
    sec = _field(ctx, n)
    worst = max(sc.chern_simons_lagrangian_difference(
        ctx.data, sec, [(0, 0, 0), (1, 2, 3), (n - 1, n // 2, 1), (n // 2, n // 2, n // 2)]))
    return _norm_result(chk, worst, 1e-10)


def _rigid_body_crosscheck(chk, ctx) -> CheckResult:
    red = sc.builder_atiyah(sc.AtiyahData(constants=sc.EPSILON3), base_dim=1)
    rb = sc.rigid_body_pair()
    lag3 = sc.rigid_body_lagrangian(ctx.inertia)
    s0 = sc.MechanicsState(0.0, np.zeros(0), np.array([0.7, -0.1, 0.4]))
    t1 = sc.integrate_mechanics(red, lag3, s0, t_end=1.0, dt=1e-2)
    t2 = sc.integrate_mechanics(rb, lag3, s0, t_end=1.0, dt=1e-2)
    return _norm_result(chk, float(np.max(np.abs(t1.y - t2.y))), 1e-12)


# ---------------------------------------------------------------------------
# CSV writers (columns frozen per schema version, documented in the README)
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header: list, table: np.ndarray) -> None:
    # the bytes of csv.writer, which writes each float with repr (never
    # quoted) and ends lines with "\r\n"; the rows become lists one at a
    # time (a whole-table list holds ~4 MB of floats at 10001 x 11)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in table)


def _write_trajectory_csv(ctx, outdir: Path) -> list:
    traj, conserved = _trajectory(ctx, ctx.dt)
    names = sorted(conserved)
    header = (["t"] + [f"u_{i}" for i in range(traj.u.shape[1])]
              + [f"y_{i}" for i in range(traj.y.shape[1])] + names)
    table = np.concatenate([traj.times[:, None], traj.u, traj.y]
                           + [conserved[name][:, None] for name in names], axis=1)
    _write_csv(outdir / "trajectory.csv", header, table)
    return ["trajectory.csv"]


def _write_residual_csv(ctx, outdir: Path) -> list:
    """One row per node of the residuals already computed for the field at ``n``."""
    grid = _field(ctx, ctx.n).grid
    report = _field_report(ctx, ctx.n)
    r = grid.dim
    mu, mk = report.admissibility.shape[-2], report.morphism.shape[-3]
    upper = np.triu_indices(r, 1)
    header = ([f"x_{i}" for i in range(r)]
              + [f"adm_{a}_{i}" for a in range(mu) for i in range(r)]
              + [f"mor_{k}_{a}_{b}" for k in range(mk)
                 for a in range(r) for b in range(a + 1, r)])
    nodes = int(np.prod(grid.extents))
    table = np.concatenate([grid.points().reshape(nodes, r),
                            report.admissibility.reshape(nodes, mu * r),
                            report.morphism[..., upper[0], upper[1]].reshape(nodes, -1)],
                           axis=1)
    _write_csv(outdir / "residuals.csv", header, table)
    return ["residuals.csv"]


# ---------------------------------------------------------------------------
# the scenario table
# ---------------------------------------------------------------------------

SCENARIOS = {
    "rigid_body": Scenario(
        summary="free rotational dynamics",
        params=("inertia", "y0", "dt", "t_end"),
        setup=_rigid_body_setup,
        checks={
            "structure_equations": _structure_check,
            "energy_drift": _drift("energy", 1e-8),
            "casimir_drift": _drift("casimir", 1e-8),
            "drift_convergence": _drift_convergence,
            "el_residual_trajectory": _el_residual_trajectory,
        },
        write=_write_trajectory_csv),
    "heavy_top": Scenario(
        summary="advected-vector top",
        params=("inertia", "mgl", "chi", "u0", "y0", "dt", "t_end"),
        setup=_heavy_top_setup,
        checks={
            "structure_equations": _structure_check,
            "energy_drift": _drift("energy", 1e-6),
            "sphere_drift": _drift("sphere", 1e-6),
            "casimir_drift": _drift("casimir", 1e-6),
            "noether_axis_drift": _drift("axis_current", 1e-6),
            "first_variation_convergence": _mechanics_first_variation,
        },
        write=_write_trajectory_csv),
    "free_particle": Scenario(
        summary="abelian kernel",
        params=("dim", "u0", "y0", "dt", "t_end"),
        setup=_free_particle_setup,
        checks={
            "structure_equations": _structure_check,
            "exact_solution": _exact_solution,
        },
        write=_write_trajectory_csv),
    "standard_field": Scenario(
        summary="scalar field in a connection frame (connection: zero | linear_u)",
        params=("base_dim", "fibre_dim", "lattice", "mass", "connection",
                "connection_coeffs"),
        setup=_standard_field_setup,
        checks={
            "structure_equations": _structure_check,
            "el_vs_classical": _el_vs_classical,
            "admissibility_sweep": _admissibility_sweep,
            "morphism_convergence": _morphism_convergence(_fixed_wave_report),
            "first_variation_convergence": _field_first_variation,
        },
        write=_write_residual_csv),
    "chern_simons": Scenario(
        summary="su(2) lattice gauge field",
        params=("lattice", "gauge", "gauge_amplitude"),
        setup=_chern_simons_setup,
        checks={
            "structure_equations": _structure_check,
            "morphism_sweep": _morphism_sweep,
            "morphism_convergence": _morphism_convergence(_field_report),
            "el_vs_morphism_bound": _el_vs_morphism_bound,
            "cs_identity_defect": _cs_identity_defect,
        },
        write=_write_residual_csv),
    "atiyah_euler_poincare": Scenario(
        summary="reduced symmetry bundle (flat reference)",
        params=("lattice", "base_dim", "gauge_amplitude", "inertia"),
        setup=_atiyah_setup,
        checks={
            "structure_equations": _structure_check,
            "morphism_convergence": _morphism_convergence(_field_report),
            "rigid_body_crosscheck": _rigid_body_crosscheck,
            "first_variation_convergence": _field_first_variation,
        },
        write=_write_residual_csv),
}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def builtin_config_path(name: str) -> Path:
    """Path of a shipped example config (bare name, no extension)."""
    return Path(__file__).parent / "configs" / f"{name}.json"


def load_config(path_or_name: str) -> dict:
    path = Path(path_or_name)
    if not path.exists() and "/" not in str(path_or_name):
        candidate = builtin_config_path(str(path_or_name).removesuffix(".json"))
        if candidate.exists():
            path = candidate
    try:
        text = path.read_text()
    except OSError as exc:
        raise IOError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_config(config)
    return config


def _require(ok, message):
    if not ok:
        raise ConfigError(f"config violates schema: {message}")


def _is_number(value, minimum=None, integral=False) -> bool:
    """A JSON number (not a boolean), integral if asked (``5.0`` is), ``>= minimum``."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (not integral or isinstance(value, int) or value.is_integer())
            and (minimum is None or value >= minimum))


# optional numeric check keys: (minimum, integral, requirement)
_CHECK_NUMBERS = {"tol": (0, False, "a number >= 0"), "ratio_min": (None, False, "a number"),
                  "ratio_max": (None, False, "a number"), "points": (1, True, "an integer >= 1")}


def validate_config(config: dict) -> Scenario:
    """Check a config against the README's layout and the scenario table; return its entry."""
    _require(isinstance(config, dict), "a config is an object")
    try:
        json.dumps(config, allow_nan=False)
    except ValueError:
        raise ConfigError("config violates schema: every number must be finite") from None
    missing = [key for key in ("schema", "scenario", "checks") if key not in config]
    unknown = sorted(set(config) - {"schema", "scenario", "checks", "seed", "params"})
    _require(not missing and not unknown, f"missing keys {missing}, unknown keys {unknown}")
    _require(_is_number(config["schema"]) and config["schema"] == 1, "schema must be 1")
    _require(isinstance(config["scenario"], str), "scenario must be a string")
    _require(_is_number(config.get("seed", 0), 0, True), "seed must be an integer >= 0")
    _require(isinstance(config.get("params", {}), dict), "params must be an object")
    checks = config["checks"]
    _require(isinstance(checks, list) and checks and all(isinstance(c, dict) for c in checks),
             "checks must be a non-empty list of objects")
    for i, chk in enumerate(checks):
        for key in ("name", "kind"):
            _require(isinstance(chk.get(key), str) and chk[key],
                     f"checks[{i}].{key} must be a non-empty string")
        for key, (minimum, integral, need) in _CHECK_NUMBERS.items():
            _require(key not in chk or _is_number(chk[key], minimum, integral),
                     f"checks[{i}].{key} must be {need}")
    names = [chk["name"] for chk in config["checks"]]
    if len(names) != len(set(names)):
        raise ConfigError("check names must be unique")
    scenario = SCENARIOS.get(config["scenario"])
    if scenario is None:
        raise UnknownScenarioError(f"unknown scenario kind {config['scenario']!r}; "
                                   f"known kinds: {', '.join(sorted(SCENARIOS))}")
    unknown = sorted(set(config.get("params", {})) - set(scenario.params))
    if unknown:
        raise ConfigError(f"unknown params {', '.join(map(repr, unknown))} for scenario "
                          f"{config['scenario']}; known params: {', '.join(scenario.params)}")
    for chk in config["checks"]:
        if chk["kind"] not in scenario.checks:
            raise ConfigError(f"unknown check kind {chk['kind']!r} for scenario "
                              f"{config['scenario']}; known kinds: "
                              f"{', '.join(scenario.checks)}")
    return scenario


def apply_overrides(config: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = config
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"override path {key!r} does not address an object")
        target[parts[-1]] = value
    return config


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# exit code and check-config's stderr prefix of each error of the set-up
_SET_UP_ERRORS = {UnknownScenarioError: (EXIT_UNKNOWN_SCENARIO, "invalid"),
                  ConfigError: (EXIT_SCHEMA_VIOLATION, "invalid"),
                  IOError: (EXIT_IO_ERROR, "error")}


def _set_up(config_path: str, seed=None, overrides=None) -> tuple:
    """Load, override, seed and validate a config, then run its scenario's set-up.

    Returns ``(config, scenario, ctx)``; raises one of ``_SET_UP_ERRORS``.
    """
    config = apply_overrides(load_config(config_path), overrides)
    if seed is not None:
        config["seed"] = int(seed)
    scenario = validate_config(config)
    ctx = CheckContext(config, np.random.default_rng(int(config.get("seed", 0))))
    scenario.setup(ctx)
    return config, scenario, ctx


def _set_up_failed(exc: Exception, prefix=None) -> int:
    """Print a set-up error to stderr (under ``prefix``, or check-config's
    prefix for its type) and return its exit code."""
    code, default = next(v for kind, v in _SET_UP_ERRORS.items() if isinstance(exc, kind))
    print(f"{prefix or default}: {exc}", file=sys.stderr)
    return code


def run_command(config_path: str, outdir: str, seed=None, overrides=None) -> int:
    start = time.perf_counter()
    try:
        config, scenario, ctx = _set_up(config_path, seed, overrides)
    except tuple(_SET_UP_ERRORS) as exc:
        return _set_up_failed(exc, "error")

    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR

    try:
        results = [scenario.checks[chk["kind"]](chk, ctx) for chk in config["checks"]]
        outputs = scenario.write(ctx, out)
    except OSError as exc:
        print(f"error: I/O failure during run: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    # one entry per configured check; wall time goes to timing.json so
    # that the report is byte-identical for a fixed config and seed
    timing = {"wall_time_seconds": time.perf_counter() - start}
    all_passed = all(r.passed for r in results)
    report = {"schema": 1, "scenario": config["scenario"], "seed": ctx.seed,
              "checks": [r.as_dict() for r in results], "outputs": outputs,
              "all_passed": all_passed}
    try:
        (out / "report.json").write_text(
            json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
        (out / "timing.json").write_text(json.dumps(timing) + "\n")
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR

    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name} ({r.kind}): max={r.max_norm:.3e} tol={r.tolerance:.3e}")
    print(f"report: {out / 'report.json'}")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILURE


def list_command() -> int:
    print("scenario kinds:")
    for name, scenario in sorted(SCENARIOS.items()):
        print(f"  {name}: {scenario.summary}; checks: {', '.join(scenario.checks)}; "
              f"params: {', '.join(scenario.params)}")
    print()
    print("lagrangian catalog:")
    print("  free_quadratic(weights) - kinetic form with per-direction weights")
    print("  rigid_body(inertia) - kinetic form on the rotation algebra")
    print("  heavy_top(inertia, mgl, chi) - kinetic form minus advected potential")
    print("  scalar_field(mass) - kinetic form minus mass term")
    print("  chern_simons(algebra, metric) - cubic density from lowered constants")
    print()
    print("gauge-function catalog (chern_simons, atiyah_euler_poincare):")
    print("  identity - constant unit gauge (zero field)")
    print("  single_generator(gauge_amplitude) - exp(f(x) T_3), one seeded mode set")
    print("  random_su2(gauge_amplitude) - exp(sum_a f_a(x) T_a), seeded trig modes")
    print()
    print("shipped example configs (run with: algfield run <name> <outdir>):")
    for cfg in sorted(p.stem for p in (Path(__file__).parent / "configs").glob("*.json")):
        print(f"  {cfg}")
    return EXIT_OK


def check_config_command(config_path: str) -> int:
    try:
        _set_up(config_path)
    except tuple(_SET_UP_ERRORS) as exc:
        return _set_up_failed(exc)
    print("config ok")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="algfield",
        description="field-theory scenario runner: residual sweeps, "
                    "integrations and identity checks with machine-readable "
                    "reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="config path or shipped config name")
    p_run.add_argument("outdir", help="output directory for report and CSV files")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config entry (dotted path, JSON value)")

    sub.add_parser("list", help="list scenario kinds and catalogs")

    p_chk = sub.add_parser("check-config",
                          help="validate a config against the schema and its check kinds")
    p_chk.add_argument("config", help="config path or shipped config name")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_command(args.config, args.outdir, seed=args.seed,
                           overrides=args.override)
    if args.command == "list":
        return list_command()
    return check_config_command(args.config)


if __name__ == "__main__":
    sys.exit(main())
