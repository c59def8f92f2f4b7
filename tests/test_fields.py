"""Grids, stencils, constraint residuals and section serialization."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from algfield.algebroid import structure_residual_max
from algfield.fibred import FibredAlgebroidPair, ProjectableSection, z_functions
from algfield.fields import (
    BLOCK_NODES,
    DiscretizedSection,
    GridSpec,
    StencilError,
    admissibility_residual,
    grid_derivative,
    load_section,
    morphism_residual,
    residual_report,
    save_section,
)
from algfield.smoothfields import trig_polynomial, trig_vector
from algfield.variational import (
    Lagrangian,
    el_residual,
    el_residual_field,
    first_variation_identity_defect,
    invariance_defect,
    noether_current,
    noether_current_field,
)

from helpers import connection_pair, heavy_top_style_pair, node_stencil, trivial_pair


class TestGridSpec:
    def test_too_few_nodes_rejected(self):
        with pytest.raises(StencilError):
            GridSpec(extents=(2, 4), spacing=(0.1, 0.1))

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(extents=(4, 4), spacing=(0.1, 0.0))

    def test_unknown_boundary_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(extents=(4,), spacing=(0.1,), boundary="clamped")

    def test_periodic_box_coords(self):
        grid = GridSpec.periodic_box((8, 8))
        npt.assert_allclose(grid.coords((1, 2)), [2 * np.pi / 8, 4 * np.pi / 8])


class TestStencils:
    @pytest.mark.parametrize("case", ["periodic", "one_sided", "periodic_3d_blocks",
                                      "one_sided_1d_heavy_top"])
    def test_grid_passes_match_node_reference(self, case):
        # every node of the whole-grid passes against the same formulas fed
        # by the per-node reference stencil; u-dependent connection pair (or
        # the heavy-top action on a 3-vector), Lagrangian of fourth order in
        # y.  The 3d and 1d grids span more than one block, with a partial
        # last block.
        rng = np.random.default_rng(17)
        if case == "one_sided_1d_heavy_top":
            pair = heavy_top_style_pair()
            grid = GridSpec(extents=(BLOCK_NODES + 37,), spacing=(0.01,),
                            boundary="one_sided")
        elif case == "periodic_3d_blocks":
            pair = connection_pair(rng, r=3)
            grid = GridSpec(extents=(9, 8, 8), spacing=(0.3, 0.2, 0.25))
        else:
            pair = connection_pair(rng)
            grid = GridSpec(extents=(5, 6), spacing=(0.3, 0.2), boundary=case)
        if grid.dim != 2:
            n_nodes = int(np.prod(grid.extents))
            assert n_nodes > BLOCK_NODES and n_nodes % BLOCK_NODES
        r, mu, mk = pair.base_dim, pair.fibre_dim, pair.kernel_rank
        sec = DiscretizedSection(grid=grid, u=rng.standard_normal(grid.extents + (mu,)),
                                 y=rng.standard_normal(grid.extents + (mk, r)))

        def grad_y(x, u, y):
            out = y ** 3
            out[1, 0] += u[0]
            return out

        lag = Lagrangian(
            value=lambda x, u, y: (0.25 * float(np.sum(y ** 4)) + float(u[0] * y[1, 0])
                                   - float(np.cos(u[1]))),
            grad_u=lambda x, u, y: np.concatenate([[y[1, 0], np.sin(u[1])], np.zeros(mu - 2)]),
            grad_y=grad_y)
        sc = trig_vector(rng, r, mk)
        sigma = ProjectableSection(
            vertical_coeffs=lambda x, u: np.array([c(x) for c in sc]),
            d_vertical_x=lambda x, u: np.stack([c.gradient(x) for c in sc]),
            d_vertical_u=lambda x, u: np.zeros((mk, mu)))

        def gradient_at(at, idx):
            return np.stack([node_stencil(at, grid, a, idx) for a in range(r)], axis=-1)

        def divergence_at(at, idx):  # at(jj) -> [..., a]
            return sum(node_stencil(lambda jj, a=a: at(jj)[..., a], grid, a, idx)
                       for a in range(r))

        def mom(jj):
            p = sec.jet_point(jj)
            return lag.partial_y_points(p.x, p.u, p.y)

        def el_at(idx):
            p = sec.jet_point(idx)
            z_mixed, _ = z_functions(pair, p)
            return (divergence_at(mom, idx) - np.einsum("gak,ga->k", z_mixed, mom(idx))
                    - pair.coefficient("rho_kernel_u", p.x, p.u)
                    @ lag.partial_u_points(p.x, p.u, p.y))

        def current(jj):
            p = sec.jet_point(jj)
            return sigma.vertical_points(p.x, p.u, mk) @ mom(jj)

        nodes = list(grid.nodes())
        adm, mor, el, fv = [], [], [], []
        for idx in nodes:
            p = sec.jet_point(idx)
            rho_f, y = pair.coefficient("rho_f", p.x), p.y
            du = gradient_at(lambda jj: sec.u[jj], idx)
            adm.append(du @ rho_f.T - pair.coefficient("rho_base_u", p.x, p.u).T
                       - pair.coefficient("rho_kernel_u", p.x, p.u).T @ y)
            dy = gradient_at(lambda jj: sec.y[jj], idx)
            cm = pair.coefficient("c_mixed", p.x, p.u)
            ck = pair.coefficient("c_kernel", p.x, p.u)
            # the flatness residual is the antisymmetric part m - m^T of these terms
            m = (np.einsum("bi,kai->kab", rho_f, dy)
                 + np.einsum("bgk,ga->kab", cm, y)
                 + 0.5 * np.einsum("mgk,mb,ga->kab", ck, y, y)
                 + 0.5 * np.einsum("abc,kc->kab", pair.coefficient("c_f", p.x), y)
                 - 0.5 * np.einsum("abk->kab", pair.coefficient("c_base_kernel", p.x, p.u)))
            mor.append(m - np.swapaxes(m, 1, 2))
            el.append(el_at(idx))
            s = sigma.vertical_points(p.x, p.u, mk)
            fv.append(abs(invariance_defect(pair, lag, sigma, sec, idx) + el[-1] @ s
                          - divergence_at(current, idx)))

        report, _ = residual_report(pair, sec, tol=1.0)
        shape = grid.extents
        for got, want in [(report.admissibility, adm), (report.morphism, mor),
                          (el_residual_field(pair, lag, sec), el),
                          (first_variation_identity_defect(pair, lag, sigma, sec, nodes), fv)]:
            want = np.reshape(want, shape + np.shape(want)[1:])
            scale = np.max(np.abs(want))
            # one base direction has no flatness residual: it must be exactly 0
            assert scale > 1e-3 or (r == 1 and got is report.morphism)
            npt.assert_allclose(np.reshape(got, want.shape), want, rtol=0.0,
                                atol=1e-13 * scale)

    @pytest.mark.parametrize("name, wrong", [
        ("rho_f", (2, 1)), ("c_f", (2, 2, 1)), ("rho_base_u", (2, 1)),
        ("rho_kernel_u", (2, 1)), ("c_base_kernel", (2, 2, 1)), ("c_mixed", (2, 2, 1)),
        ("c_kernel", (2, 2, 1)), ("grad_u", (1,)), ("grad_y", (2, 1)),
        ("vertical_coeffs", (1,))])
    def test_wrongly_shaped_callable_raises(self, name, wrong):
        # each wrong shape would broadcast against the right one, so only
        # the shape check can catch it: at a single node and in a grid pass,
        # and for a pair coefficient also in the structure residuals of the
        # total algebroid
        rng = np.random.default_rng(29)
        pair = connection_pair(rng)
        grid = GridSpec(extents=(5, 6), spacing=(0.3, 0.2))
        sec = DiscretizedSection(grid=grid, u=rng.standard_normal(grid.extents + (2,)),
                                 y=rng.standard_normal(grid.extents + (2, 2)))
        lag = Lagrangian(value=lambda x, u, y: 0.5 * float(np.sum(y ** 2) + np.sum(u ** 2)),
                         grad_u=lambda x, u, y: u.copy(), grad_y=lambda x, u, y: y.copy())
        sigma = ProjectableSection(vertical_coeffs=lambda x, u: np.array([1.0, -0.5]))

        def bad(*args):
            return np.ones(wrong)

        if name in ("grad_u", "grad_y"):
            lag = dataclasses.replace(lag, **{name: bad})
        elif name == "vertical_coeffs":
            sigma = ProjectableSection(vertical_coeffs=bad)
        else:
            pair = dataclasses.replace(pair, **{name: bad})
        idx = (1, 2)
        if name in ("rho_base_u", "rho_kernel_u"):
            calls = (lambda: admissibility_residual(pair, sec, idx),
                     lambda: residual_report(pair, sec, tol=1.0))
        elif name == "grad_u":
            calls = (lambda: el_residual(pair, lag, sec, idx),
                     lambda: el_residual_field(pair, lag, sec))
        elif name == "grad_y":
            calls = (lambda: noether_current(pair, lag, sigma, sec, idx),
                     lambda: el_residual_field(pair, lag, sec))
        elif name == "vertical_coeffs":
            calls = (lambda: noether_current(pair, lag, sigma, sec, idx),
                     lambda: noether_current_field(pair, lag, sigma, sec))
        else:
            calls = (lambda: morphism_residual(pair, sec, idx),
                     lambda: residual_report(pair, sec, tol=1.0))
        if name not in ("grad_u", "grad_y", "vertical_coeffs"):
            pts = [np.concatenate([grid.coords(idx), sec.u[idx]])]
            calls += (lambda: structure_residual_max(pair.total_algebroid(), pts),)
        for call in calls:
            with pytest.raises(ValueError, match=f"^{name} returned shape {re.escape(str(wrong))}"):
                call()

    @pytest.mark.parametrize("boundary", ["periodic", "one_sided"])
    def test_grid_derivative_allocates_its_output_only(self, boundary):
        grid = GridSpec(extents=(24, 24, 24), spacing=(0.1, 0.2, 0.3), boundary=boundary)
        values = np.random.default_rng(5).standard_normal(grid.extents + (3, 3))
        for axis in range(3):
            tracemalloc.start()
            try:
                out = grid_derivative(values, grid, axis)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * out.nbytes

    def test_periodic_derivative_convergence(self):
        # halving h divides the stencil error of a trig field by about 4
        errs = []
        for n in (16, 32):
            grid = GridSpec.periodic_box((n,))
            xs = np.array([grid.coords((i,))[0] for i in range(n)])
            values = np.sin(xs)
            deriv = grid_derivative(values, grid, 0)
            errs.append(np.max(np.abs(deriv - np.cos(xs))))
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_one_sided_boundary_second_order(self):
        errs = []
        for h in (0.02, 0.01):
            grid = GridSpec(extents=(5,), spacing=(h,), boundary="one_sided")
            xs = np.array([grid.coords((i,))[0] for i in range(5)])
            values = np.sin(3 * xs)
            deriv = grid_derivative(values, grid, 0)
            errs.append(np.max(np.abs(deriv - 3 * np.cos(3 * xs))))
        assert 3.0 < errs[0] / errs[1] < 5.0


class TestAdmissibility:
    def test_exact_gradient_field_is_second_order(self):
        # u = sin(x1) cos(x2) with exactly sampled gradient
        pair = trivial_pair(2, 1)
        grid = GridSpec(extents=(5, 5), spacing=(0.01, 0.01), boundary="one_sided")
        sec = DiscretizedSection.from_functions(
            grid, 1, 1,
            u_fn=lambda x: np.array([np.sin(x[0]) * np.cos(x[1])]),
            y_fn=lambda x: np.array([[np.cos(x[0]) * np.cos(x[1]),
                                      -np.sin(x[0]) * np.sin(x[1])]]),
        )
        for idx in [(2, 2), (0, 0), (4, 2), (0, 4)]:
            res = admissibility_residual(pair, sec, idx)
            assert np.max(np.abs(res)) <= 1e-4

    def test_empty_when_no_fibre_coordinates(self):
        pair = FibredAlgebroidPair(base_dim=2, fibre_dim=0, kernel_rank=1)
        grid = GridSpec(extents=(4, 4), spacing=(0.5, 0.5))
        sec = DiscretizedSection(grid=grid, u=np.zeros((4, 4, 0)),
                                 y=np.zeros((4, 4, 1, 2)))
        res = admissibility_residual(pair, sec, (1, 1))
        assert res.shape == (0, 2)

    def test_constant_drift_read_off(self):
        # u = 0, y = 0, rho_a^A = 1 constant -> residual identically -1
        pair = FibredAlgebroidPair(
            base_dim=2, fibre_dim=1, kernel_rank=1,
            rho_base_u=lambda x, u: np.ones((2, 1)),
            rho_kernel_u=lambda x, u: np.ones((1, 1)),
        )
        grid = GridSpec(extents=(4, 4), spacing=(0.25, 0.25))
        sec = DiscretizedSection(grid=grid, u=np.zeros((4, 4, 1)),
                                 y=np.zeros((4, 4, 1, 2)))
        res = admissibility_residual(pair, sec, (2, 1))
        npt.assert_array_equal(res, -np.ones((1, 2)))


class TestMorphismResidual:
    def test_zero_field_zero_structure(self):
        pair = trivial_pair(2, 2)
        grid = GridSpec(extents=(4, 4), spacing=(0.3, 0.3))
        sec = DiscretizedSection(grid=grid, u=np.zeros((4, 4, 2)),
                                 y=np.zeros((4, 4, 2, 2)))
        npt.assert_array_equal(morphism_residual(pair, sec, (1, 2)), 0.0)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(11)
        pair = connection_pair(rng)
        grid = GridSpec.periodic_box((6, 6))
        sec = DiscretizedSection(grid=grid,
                                 u=rng.standard_normal((6, 6, 2)),
                                 y=rng.standard_normal((6, 6, 2, 2)))
        m = morphism_residual(pair, sec, (3, 4))
        npt.assert_array_equal(m, -np.swapaxes(m, 1, 2))

    def test_holonomic_field_of_curved_connection_is_morphism(self):
        # u arbitrary smooth, y = du - G(x, u(x)): the adapted first jet of
        # an honest section must satisfy the flatness condition at stencil
        # accuracy even though the connection has curvature
        rng = np.random.default_rng(13)
        pair = connection_pair(rng, amplitude=0.3)
        fu = [trig_polynomial(rng, 2, amplitude=0.5) for _ in range(2)]

        def u_fn(x):
            return np.array([f(x) for f in fu])

        def y_fn(x):
            du = np.stack([f.gradient(x) for f in fu])  # [A, i]
            gam = pair.coefficient("rho_base_u", x, u_fn(x))  # [i, A]
            return du - gam.T  # y[alpha=A, a=i] = du[A, i] - gam[i, A]

        errs = []
        for n in (16, 32):
            grid = GridSpec.periodic_box((n, n))
            sec = DiscretizedSection.from_functions(grid, 2, 2, u_fn=u_fn, y_fn=y_fn)
            errs.append(max(np.max(np.abs(morphism_residual(pair, sec, idx)))
                            for idx in grid.nodes()))
        assert errs[0] < 0.2          # wrong constant-term sign would give O(1)
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_flat_reference_forces_curl_equal_curvature(self):
        # abelian kernel over a 2d base with constant reference curvature:
        # the condition picks out d_1 y_2 - d_2 y_1 = Omega_12, satisfied
        # exactly by a linear closed-form field
        omega12 = 0.8
        pair = FibredAlgebroidPair(
            base_dim=2, fibre_dim=0, kernel_rank=1,
            c_base_kernel=lambda x, u: np.array([[[0.0], [-omega12]],
                                                 [[omega12], [0.0]]]),
        )
        grid = GridSpec(extents=(5, 5), spacing=(0.2, 0.2), boundary="one_sided")
        good = DiscretizedSection.from_functions(
            grid, 0, 1,
            y_fn=lambda x: np.array([[-0.5 * omega12 * x[1], 0.5 * omega12 * x[0]]]))
        bad = DiscretizedSection.from_functions(
            grid, 0, 1,
            y_fn=lambda x: np.array([[0.5 * omega12 * x[1], -0.5 * omega12 * x[0]]]))
        for idx in [(2, 2), (0, 1), (4, 4)]:
            npt.assert_allclose(morphism_residual(pair, good, idx), 0.0, atol=1e-13)
        m = morphism_residual(pair, bad, (2, 2))
        npt.assert_allclose(m[0, 0, 1], 2 * omega12, atol=1e-12)

    def test_scaled_base_frame_closed_form(self):
        # non-coordinate base frame e_1 = d_1, e_2 = b(x1) d_2 with abelian
        # kernel: the flatness condition for y_1 = 0 forces y_2 = const * b
        def b(x):
            return 1.0 + 0.5 * np.sin(x[0])

        def db(x):
            return 0.5 * np.cos(x[0])

        pair = FibredAlgebroidPair(
            base_dim=2, fibre_dim=0, kernel_rank=1,
            rho_f=lambda x: np.array([[1.0, 0.0], [0.0, b(x)]]),
            c_f=lambda x: np.array([[[0.0, 0.0], [0.0, db(x) / b(x)]],
                                    [[0.0, -db(x) / b(x)], [0.0, 0.0]]]),
        )
        errs = []
        for n in (24, 48):
            grid = GridSpec.periodic_box((n, n))
            sec = DiscretizedSection.from_functions(
                grid, 0, 1, y_fn=lambda x: np.array([[0.0, 2.0 * b(x)]]))
            errs.append(max(np.max(np.abs(morphism_residual(pair, sec, idx)))
                            for idx in [(0, 0), (5, 7), (13, 2), (n // 2, 3)]))
        assert errs[0] < 2e-2  # pure stencil error
        assert 3.5 < errs[0] / errs[1] < 4.5


class TestResidualReport:
    def test_zero_section_on_trivial_pair_is_morphism_at_zero_tol(self):
        pair = trivial_pair(2, 1)
        grid = GridSpec(extents=(4, 4), spacing=(0.3, 0.3))
        sec = DiscretizedSection(grid=grid, u=np.zeros((4, 4, 1)),
                                 y=np.zeros((4, 4, 1, 2)))
        report, is_morphism = residual_report(pair, sec, tol=0.0)
        assert is_morphism
        assert report.max_norm == 0.0

    def test_random_field_is_not_morphism(self):
        rng = np.random.default_rng(17)
        pair = connection_pair(rng)
        grid = GridSpec.periodic_box((5, 5))
        sec = DiscretizedSection(grid=grid,
                                 u=rng.standard_normal((5, 5, 2)),
                                 y=rng.standard_normal((5, 5, 2, 2)))
        report, is_morphism = residual_report(pair, sec, tol=1e-6)
        assert not is_morphism
        assert report.max_norm > 0.1
        assert report.admissibility.shape == (5, 5, 2, 2)
        assert report.morphism.shape == (5, 5, 2, 2, 2)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        grid = GridSpec(extents=(4, 5), spacing=(0.1, 0.2), boundary="one_sided",
                        origin=(1.0, -2.0))
        sec = DiscretizedSection(grid=grid,
                                 u=rng.standard_normal((4, 5, 3)),
                                 y=rng.standard_normal((4, 5, 2, 2)))
        path = tmp_path / "field.algsec"
        save_section(sec, path)
        back = load_section(path)
        assert back.grid == grid
        npt.assert_array_equal(back.u, sec.u)
        npt.assert_array_equal(back.y, sec.y)

    def test_header_is_json_line(self, tmp_path):
        grid = GridSpec(extents=(3, 3), spacing=(1.0, 1.0))
        sec = DiscretizedSection(grid=grid, u=np.zeros((3, 3, 1)),
                                 y=np.zeros((3, 3, 1, 2)))
        path = tmp_path / "field.algsec"
        save_section(sec, path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["format"] == "algfield-section"
        assert header["extents"] == [3, 3]

    def test_round_trip_without_fibre_coordinates(self, tmp_path):
        rng = np.random.default_rng(29)
        grid = GridSpec.periodic_box((4, 4, 4))
        sec = DiscretizedSection(grid=grid, u=np.zeros((4, 4, 4, 0)),
                                 y=rng.standard_normal((4, 4, 4, 3, 3)))
        path = tmp_path / "gauge.algsec"
        save_section(sec, path)
        back = load_section(path)
        assert back.fibre_dim == 0
        npt.assert_array_equal(back.y, sec.y)

    def test_reject_foreign_file(self, tmp_path):
        path = tmp_path / "junk.algsec"
        path.write_bytes(b'{"format": "other"}\n')
        with pytest.raises(ValueError):
            load_section(path)

    @staticmethod
    def saved_small_section(tmp_path):
        """Path, header fields and payload bytes of a freshly saved 3x3 section."""
        path = tmp_path / "field.algsec"
        grid = GridSpec(extents=(3, 3), spacing=(1.0, 1.0))
        save_section(DiscretizedSection(grid=grid, u=np.zeros((3, 3, 1)),
                                        y=np.ones((3, 3, 1, 2))), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        return path, json.loads(header), payload

    @pytest.mark.parametrize("payload_edit", [lambda b: b + b"\0" * 8, lambda b: b[:-8]],
                             ids=["trailing_bytes", "truncated"])
    def test_reject_payload_of_wrong_length(self, tmp_path, payload_edit):
        path, header, payload = self.saved_small_section(tmp_path)
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload_edit(payload))
        with pytest.raises(ValueError, match="payload"):
            load_section(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda h: {k: v for k, v in h.items() if k != "extents"}, "'extents'"),
        (lambda h: {**h, "extents": [3, 3.0]}, "'extents'"),
        (lambda h: {**h, "fibre_dim": True}, "'fibre_dim'"),
        (lambda h: {**h, "kernel_rank": -1}, "'kernel_rank'"),
        (lambda h: {**h, "version": True}, "'version'"),
        (lambda h: list(h.items()), "not a recognized section file")],
        ids=["no_extents", "float_extent", "bool_fibre_dim", "negative_kernel_rank",
             "bool_version", "list_header"])
    def test_reject_malformed_header(self, tmp_path, edit, match):
        # each of these once raised KeyError, TypeError or AttributeError, or
        # loaded: JSON true is the integer 1 to a plain comparison
        path, header, payload = self.saved_small_section(tmp_path)
        path.write_bytes(json.dumps(edit(header)).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match=match):
            load_section(path)

    @pytest.mark.parametrize("key, value", [("dtype", ">f8"), ("dtype", "<f4"),
                                            ("order", "F"), ("dtype", None)])
    def test_reject_unknown_layout(self, tmp_path, key, value):
        path, header, payload = self.saved_small_section(tmp_path)
        header[key] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match="payload"):
            load_section(path)
