"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion including its runtime budget.
"""

import json
import subprocess
import sys
import time

import numpy as np
from scipy.linalg import expm

from algfield.algebroid import (
    PForm,
    Section,
    exterior_differential,
    flow_morphism_defect,
    flow_of_section,
    lie_derivative,
    structure_residual_max,
)
from algfield.fibred import ProjectableSection
from algfield.fields import DiscretizedSection, GridSpec, grid_derivative, residual_report
from algfield.scenarios import (
    AtiyahData,
    ChernSimonsData,
    EPSILON3,
    MechanicsState,
    StandardCaseData,
    builder_atiyah,
    builder_chern_simons,
    builder_standard,
    chern_simons_lagrangian_difference,
    flat_connection_generator,
    heavy_top_lagrangian,
    heavy_top_pair,
    integrate_mechanics,
    rigid_body_lagrangian,
    rigid_body_pair,
    su2_basis,
    su2_exponential,
)
from algfield.smoothfields import trig_polynomial, trig_vector
from algfield.variational import (
    Lagrangian,
    el_residual,
    el_residual_field,
    first_variation_identity_defect,
)

from helpers import (
    broken_so3_algebroid,
    connection_pair,
    frame_algebroid,
    random_one_form,
    random_section,
    random_zero_form,
    so3_algebroid,
)


def _report(number: int, description: str, elapsed: float, budget: float):
    print(f"\n[PASS] criterion {number}: {description} "
          f"(runtime {elapsed:.2f} s < {budget:.0f} s)")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_structure_equation_suite():
    """All four scenario builders satisfy the structure equations."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)

    # standard field theory with a curved, u-dependent connection
    g = trig_vector(rng, 2, 4, amplitude=0.4)

    def gamma(x, u):
        base = np.array([[g[0](x), g[1](x)], [g[2](x), g[3](x)]])
        return base + 0.3 * np.outer(np.ones(2), u)

    standard = builder_standard(StandardCaseData(gamma=gamma), 2, 2)
    pts = rng.uniform(-1, 1, size=(100, 4))
    assert structure_residual_max(standard.total_algebroid(), pts) < 1e-8

    # time-dependent mechanics: constant-coefficient case is exactly zero
    rb_total = rigid_body_pair().total_algebroid()
    assert structure_residual_max(rb_total, rng.uniform(-1, 1, (100, 1))) == 0.0
    ht_total = heavy_top_pair().total_algebroid()
    assert structure_residual_max(ht_total, rng.uniform(-1, 1, (100, 4))) < 1e-8

    # Chern-Simons: constant coefficients, exactly zero
    cs_pair, _ = builder_chern_simons(ChernSimonsData.su2(),
                                      GridSpec.periodic_box((4, 4, 4)))
    assert structure_residual_max(cs_pair.total_algebroid(),
                                  rng.uniform(-1, 1, (100, 3))) == 0.0

    # reduced symmetry bundle: flat nonabelian and constant abelian curvature
    flat = builder_atiyah(AtiyahData(constants=EPSILON3), base_dim=2)
    assert structure_residual_max(flat.total_algebroid(),
                                  rng.uniform(-1, 1, (100, 2))) == 0.0
    omega = np.zeros((2, 2, 1))
    omega[0, 1, 0], omega[1, 0, 0] = 0.9, -0.9
    abelian = builder_atiyah(AtiyahData(constants=np.zeros((1, 1, 1)),
                                        curvature=lambda x: omega), base_dim=2)
    assert structure_residual_max(abelian.total_algebroid(),
                                  rng.uniform(-1, 1, (100, 2))) < 1e-8

    _report(1, "builder structure residuals < 1e-8 at 100 seeded points "
               "(exactly 0 for constant coefficients)",
            time.perf_counter() - start, 1.0)


def test_criterion_2_calculus_suite():
    """d^2 = 0 and d_sigma d = d d_sigma at FD step 1e-4; negative control."""
    start = time.perf_counter()

    worst_dd = 0.0
    worst_comm = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        model = frame_algebroid(rng)  # valid, x-dependent structure functions
        x = rng.uniform(-1, 1, size=2)

        f = random_zero_form(rng, model)
        omega = random_one_form(rng, model)
        sigma = random_section(rng, model, amplitude=0.6)

        df = PForm(degree=1, coeffs=lambda z: exterior_differential(model, f, z))
        worst_dd = max(worst_dd, np.max(np.abs(exterior_differential(model, df, x))))

        lhs = lie_derivative(model, sigma, df, x)
        dsf = PForm(degree=0, coeffs=lambda z: lie_derivative(model, sigma, f, z))
        rhs = exterior_differential(model, dsf, x)
        worst_comm = max(worst_comm, np.max(np.abs(lhs - rhs)))

        domega = PForm(degree=2,
                       coeffs=lambda z: exterior_differential(model, omega, z))
        dd_omega = exterior_differential(model, domega, x) if model.rank > 2 else None

    # rank-3 valid algebra: d^2 on 1-forms
    so3 = so3_algebroid()
    rng = np.random.default_rng(7)
    omega3 = random_one_form(rng, so3)
    dom3 = PForm(degree=2, coeffs=lambda z: exterior_differential(so3, omega3, z))
    worst_dd = max(worst_dd, np.max(np.abs(exterior_differential(so3, dom3, np.zeros(1)))))

    assert worst_dd < 1e-6
    assert worst_comm < 1e-6

    # negative control: an off-pattern bracket perturbation breaks the Jacobi
    # identity, and d^2 sees it
    broken = broken_so3_algebroid(delta=0.5)
    omega_neg = random_one_form(np.random.default_rng(5), broken)
    dneg = PForm(degree=2, coeffs=lambda z: exterior_differential(broken, omega_neg, z))
    ddneg = exterior_differential(broken, dneg, np.zeros(1))
    assert np.max(np.abs(ddneg)) > 1e-2

    _report(2, "d^2 = 0 and d_sigma/d commutation < 1e-6 at FD step 1e-4; "
               "broken-Jacobi control > 1e-2",
            time.perf_counter() - start, 1.0)


def test_criterion_3_flow_morphism():
    """Flows match the matrix exponential and are morphisms."""
    start = time.perf_counter()

    # constant rotation-algebra sections versus the closed-form exponential
    so3 = so3_algebroid()
    for vec in ([0.0, 0.0, 1.0], [0.3, -0.4, 0.8]):
        vec = np.array(vec)
        s = np.pi / 2
        _, m = flow_of_section(so3, Section.constant(vec), s, np.zeros(1), steps=1000)
        d = np.einsum("gab,a->bg", EPSILON3, vec)
        assert np.max(np.abs(m - expm(s * d))) < 1e-8

    # seeded smooth sections on a two-dimensional base: pullback commutes
    # with the differential on coordinates and coframe
    worst = 0.0
    for seed in (43, 44):
        rng = np.random.default_rng(seed)
        model = frame_algebroid(rng)
        sigma = random_section(rng, model, amplitude=0.4)
        x0 = rng.uniform(-0.5, 0.5, size=2)
        adm, mor = flow_morphism_defect(model, sigma, 0.5, x0, steps=200)
        worst = max(worst, np.max(np.abs(adm)), np.max(np.abs(mor)))
    assert worst < 1e-6

    _report(3, "so(3) flow vs matrix exponential < 1e-8; smooth-section "
               "pullback/differential commutation < 1e-6",
            time.perf_counter() - start, 5.0)


def test_criterion_4_standard_case_reduction():
    """Euler-Lagrange residual matches an independent classical oracle."""
    start = time.perf_counter()
    pair = builder_standard(StandardCaseData(gamma=lambda x, u: np.zeros((2, 1))),
                            base_dim=2, fibre_dim=1)
    grid = GridSpec.periodic_box((8, 8))
    worst_rel = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        cu = trig_polynomial(rng, 2)
        cy = trig_vector(rng, 2, 2)
        sec = DiscretizedSection.from_functions(
            grid, 1, 1,
            u_fn=lambda x: np.array([cu(x)]),
            y_fn=lambda x: np.array([[cy[0](x), cy[1](x)]]))

        coeff = rng.uniform(0.5, 2.0, size=2)
        lin = rng.uniform(-1.0, 1.0, size=2)
        vq = rng.uniform(-1.0, 1.0, size=3)
        lag = Lagrangian(
            value=lambda x, u, y: (0.5 * float(coeff @ (y[0] ** 2))
                                   + float(lin @ y[0])
                                   - (vq[0] * u[0] + vq[1] * u[0] ** 2
                                      + vq[2] * u[0] ** 3)),
            grad_u=lambda x, u, y: np.array([-(vq[0] + 2 * vq[1] * u[0]
                                               + 3 * vq[2] * u[0] ** 2)]),
            grad_y=lambda x, u, y: (coeff * y[0] + lin)[None, :])

        # independent classical operator: momentum array, plain differences
        mom = np.zeros(grid.extents + (2,))
        dv = np.zeros(grid.extents)
        for idx in grid.nodes():
            mom[idx] = coeff * sec.y[idx][0] + lin
            dv[idx] = vq[0] + 2 * vq[1] * sec.u[idx][0] + 3 * vq[2] * sec.u[idx][0] ** 2
        oracle = sum(grid_derivative(mom[..., a], grid, a) for a in range(2)) + dv

        for idx in [(0, 0), (3, 5), (7, 2)]:
            got = el_residual(pair, lag, sec, idx)[0]
            ref = oracle[idx]
            worst_rel = max(worst_rel, abs(got - ref) / max(abs(ref), 1e-3))
    assert worst_rel < 1e-10

    _report(4, "trivial-connection residual vs independent classical oracle "
               "< 1e-10 relative on 50 seeded pairs",
            time.perf_counter() - start, 5.0)


def test_criterion_5_rigid_body_mechanics():
    """Energy and Casimir drift below 1e-8 with fourth-order convergence."""
    start = time.perf_counter()
    pair = rigid_body_pair()
    inertia = np.array([1.0, 2.0, 3.0])
    lag = rigid_body_lagrangian(inertia)
    # initial spin fast enough that the integrator error dominates rounding
    y0 = np.array([3.0, 4.0, 5.0])

    def drifts(dt):
        traj = integrate_mechanics(pair, lag, MechanicsState(0.0, np.zeros(0), y0),
                                   t_end=10.0, dt=dt)
        e = traj.energy_series(lag, traj.momentum_series(lag))
        c = np.sum((inertia * traj.y) ** 2, axis=1)
        return (np.max(np.abs(e - e[0])) / abs(e[0]),
                np.max(np.abs(c - c[0])) / c[0])

    e1, c1 = drifts(1e-3)
    assert e1 < 1e-8 and c1 < 1e-8
    e2, c2 = drifts(5e-4)
    assert 10.0 <= e1 / e2 <= 24.0
    assert 10.0 <= c1 / c2 <= 24.0

    _report(5, f"energy/Casimir drift {e1:.1e}/{c1:.1e} < 1e-8; halving "
               f"ratios {e1 / e2:.1f}/{c1 / c2:.1f} in [10, 24]",
            time.perf_counter() - start, 10.0)


def test_criterion_6_chern_simons_lattice():
    """Flatness convergence, residual bound and density identity on 16^3."""
    start = time.perf_counter()
    data = ChernSimonsData.su2()
    rng = np.random.default_rng(606)
    comps = trig_vector(rng, 3, 3, amplitude=0.5)

    def gauge(x):
        return su2_exponential(np.array([c(x) for c in comps]))

    mors = []
    fields = {}
    for n in (16, 32):
        grid = GridSpec.periodic_box((n, n, n))
        sec = flat_connection_generator(gauge, grid, su2_basis())
        pair, lag = builder_chern_simons(data, grid)
        report = residual_report(pair, sec)
        mors.append(report.morphism_max)
        fields[n] = (grid, sec, pair, lag, report)
    ratio = mors[0] / mors[1]
    assert 3.5 <= ratio <= 4.5

    grid, sec, pair, lag, report = fields[16]
    el = el_residual_field(pair, lag, sec)
    kappa = 3.0 * np.max(np.abs(sec.y)) * np.max(
        np.sum(np.abs(data.lowered), axis=(1, 2)))
    assert np.max(np.abs(el)) <= kappa * report.morphism_max

    # density identity on an arbitrary (non-flat) seeded field; the discrete
    # identity is algebraically exact, so the defect sits far below the
    # stencil-order bound at both resolutions
    for n in (16, 32):
        g2 = GridSpec.periodic_box((n, n, n))
        comps2 = trig_vector(np.random.default_rng(607), 3, 9, amplitude=0.8)
        arb = DiscretizedSection.from_functions(
            g2, 0, 3, y_fn=lambda x: np.array([c(x) for c in comps2]).reshape(3, 3))
        h2 = g2.spacing[0] ** 2
        worst = max(chern_simons_lagrangian_difference(
            data, arb, [(0, 0, 0), (1, 2, 3), (n - 1, n // 2, 1), (n // 2, 2, n - 2)]))
        assert worst <= h2  # and in fact rounding-level
        assert worst < 1e-10

    _report(6, f"flatness halving ratio {ratio:.2f} in [3.5, 4.5]; "
               f"max|EL| <= kappa*max|M|; density identity defect < 1e-10",
            time.perf_counter() - start, 60.0)


def test_criterion_7_noether():
    """Axis-symmetry current conservation and off-shell identity order."""
    start = time.perf_counter()

    # symmetric top with the center of mass on the symmetry axis
    pair = heavy_top_pair()
    inertia = np.array([2.0, 2.0, 1.0])
    lag = heavy_top_lagrangian(inertia, mgl=1.0, chi=[0.0, 0.0, 1.0])
    u0 = np.array([0.2, 0.0, 0.9797958971132712])
    traj = integrate_mechanics(pair, lag,
                               MechanicsState(0.0, u0, np.array([0.1, -0.2, 5.0])),
                               t_end=10.0, dt=1e-3)
    current = traj.momentum_series(lag)[:, 2]
    drift = np.max(np.abs(current - current[0]))
    assert drift < 1e-6

    # off-shell first-variation identity, field case: O(h^2)
    rng = np.random.default_rng(31)
    pairf = connection_pair(rng)
    lagf = Lagrangian(
        value=lambda x, u, y: (0.5 * float(np.sum(y ** 2)) + float(u[0] * y[1, 0])
                               - float(np.cos(u[1]))),
        grad_u=lambda x, u, y: np.array([y[1, 0], np.sin(u[1])]),
        grad_y=lambda x, u, y: y + np.array([[0.0, 0.0], [u[0], 0.0]]))
    su = trig_vector(rng, 2, 2)
    sigma = ProjectableSection(
        vertical_coeffs=lambda x, u: np.array([su[0](x), su[1](x)]),
        d_vertical_x=lambda x, u: np.stack([su[0].gradient(x), su[1].gradient(x)]),
        d_vertical_u=lambda x, u: np.zeros((2, 2)))
    fu = trig_vector(rng, 2, 2)
    fy = trig_vector(rng, 2, 4)
    nodes = [(0, 0), (3, 5), (10, 1), (6, 6)]
    field_defects = []
    for scale, n in ((1, 12), (2, 24)):
        g = GridSpec.periodic_box((n, n))
        sec = DiscretizedSection.from_functions(
            g, 2, 2,
            u_fn=lambda x: np.array([f(x) for f in fu]),
            y_fn=lambda x: np.array([f(x) for f in fy]).reshape(2, 2))
        field_defects.append(max(first_variation_identity_defect(
            pairf, lagf, sigma, sec, [(scale * i, scale * j) for i, j in nodes])))
    field_ratio = field_defects[0] / field_defects[1]
    assert 3.5 <= field_ratio <= 4.5

    # off-shell identity, mechanics case: O(dt^2)
    rng = np.random.default_rng(41)
    uc = trig_vector(rng, 1, 3)
    yc = trig_vector(rng, 1, 3)
    scp = trig_vector(rng, 1, 3)
    sig_t = ProjectableSection(
        vertical_coeffs=lambda x, u: np.array([c(x) for c in scp]),
        d_vertical_x=lambda x, u: np.stack([c.gradient(x) for c in scp]),
        d_vertical_u=lambda x, u: np.zeros((3, 3)))
    mech_defects = []
    for scale, n in ((1, 101), (2, 201)):
        ts = np.linspace(0.0, 2.0, n)
        g = GridSpec(extents=(n,), spacing=(ts[1] - ts[0],), boundary="one_sided")
        u = np.array([[c(np.array([t])) for c in uc] for t in ts])
        y = np.array([[c(np.array([t])) for c in yc] for t in ts])[:, :, None]
        sec = DiscretizedSection(grid=g, u=u, y=y)
        mech_defects.append(max(first_variation_identity_defect(
            pair, lag, sig_t, sec, [(scale * i,) for i in (0, 10, 50, 100)])))
    mech_ratio = mech_defects[0] / mech_defects[1]
    assert 3.5 <= mech_ratio <= 4.5

    _report(7, f"axis current drift {drift:.1e} < 1e-6; off-shell identity "
               f"ratios {field_ratio:.2f} (h) and {mech_ratio:.2f} (dt) in "
               f"[3.5, 4.5]",
            time.perf_counter() - start, 10.0)


def test_criterion_8_cli_end_to_end(tmp_path):
    """All shipped configs run to exit 0; reports are deterministic."""
    start = time.perf_counter()
    configs = ["rigid_body", "heavy_top", "standard_field", "chern_simons",
               "atiyah_euler_poincare"]
    for name in configs:
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "algfield", "run", name, str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, f"{name} failed:\n{proc.stdout}\n{proc.stderr}"
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True

    # determinism: re-run one config, byte-identical report
    out2 = tmp_path / "standard_field_again"
    proc = subprocess.run(
        [sys.executable, "-m", "algfield", "run", "standard_field", str(out2)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert ((tmp_path / "standard_field" / "report.json").read_bytes()
            == (out2 / "report.json").read_bytes())

    _report(8, "all shipped scenario configs exit 0; reports byte-identical "
               "across runs",
            time.perf_counter() - start, 120.0)
