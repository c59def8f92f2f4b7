"""Discretized sections on structured grids and their constraint residuals.

A field configuration is a grid of jet data ``(u, y)`` over the base
chart.  Two residuals measure how far it is from the constraint set of
the variational problem:

* the admissibility residual (the ``u``-velocity matches the anchor),
* the flatness-type morphism residual ``M_ab^alpha`` (antisymmetric in
  the base pair), whose vanishing makes the section compatible with both
  exterior differentials.

All derivatives come from ``grid_derivative``: second-order central
differences, with periodic wrap or one-sided second-order stencils at
the boundary.  Each pointwise residual formula is written once, over
node data with any leading axes.  The single-node functions call it on
one node (after differentiating the whole grid and reading their node).
``residual_report`` and ``morphism_maxima`` call it on runs of whole
rows of the first grid axis, about ``BLOCK_NODES`` nodes each: a run
differentiates its own rows (with one halo row on each side along the
first axis), so apart from the output arrays of ``residual_report`` and
the squared copy each of its norms takes, their temporaries scale with
the run, not the grid; ``morphism_maxima`` holds no residual of the
whole grid.  Within a run a
:func:`~algfield.fibred.stacked` coefficient callable of the pair is
called once, and any other once per node (see ``FibredAlgebroidPair``);
either must return its documented shape.  Sweeps call
``residual_report``.  Closed-form or integrated fields come from the
scenario builders.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .algebroid import BLOCK_NODES
from .fibred import FibredAlgebroidPair, JetPoint, sample_points

_FORMAT_NAME = "algfield-section"
_FORMAT_VERSION = 1


class StencilError(ValueError):
    """Grid too small (or node out of range) for the difference stencil."""


@dataclass(frozen=True)
class GridSpec:
    """Structured grid on the base chart.

    ``extents[a]`` nodes along axis ``a`` with spacing ``spacing[a]``,
    node coordinates ``origin + index * spacing``.  ``boundary`` is
    ``"periodic"`` (wrap; the grid covers one full period, the node at
    ``extents`` being identified with the origin) or ``"one_sided"``
    (second-order one-sided stencils at the edges).
    """

    extents: tuple
    spacing: tuple
    boundary: str = "periodic"
    origin: Optional[tuple] = None

    def __post_init__(self):
        extents = tuple(int(n) for n in self.extents)
        if not extents:
            raise ValueError("a grid needs at least one axis")
        if extents != tuple(self.extents):
            raise ValueError(f"grid extents must be whole numbers, got {self.extents!r}")
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        if self.origin is None:
            object.__setattr__(self, "origin", (0.0,) * len(self.extents))
        else:
            object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        if len(self.spacing) != len(self.extents) or len(self.origin) != len(self.extents):
            raise ValueError("extents, spacing and origin must have equal length")
        if any(n < 3 for n in self.extents):
            raise StencilError("need at least 3 nodes per axis for central differences")
        if not (all(h > 0 for h in self.spacing) and np.isfinite(self.spacing + self.origin).all()):
            raise ValueError("grid spacing must be positive, and spacing and origin finite")
        if self.boundary not in ("periodic", "one_sided"):
            raise ValueError(f"unknown boundary rule {self.boundary!r}")

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def coords(self, idx) -> np.ndarray:
        return np.asarray(self.origin) + np.asarray(idx, dtype=float) * np.asarray(self.spacing)

    def nodes(self):
        return np.ndindex(*self.extents)

    def points(self) -> np.ndarray:
        """Coordinates of every node, ``out[idx] = coords(idx)``: shape ``extents + (dim,)``."""
        out = np.empty(self.extents + (self.dim,))
        for a, (n, o, h) in enumerate(zip(self.extents, self.origin, self.spacing)):
            out[..., a] = (o + np.arange(n) * h).reshape((n,) + (1,) * (self.dim - 1 - a))
        return out

    def check_nodes(self, nodes) -> np.ndarray:
        """``nodes``, one index tuple of ``dim`` integers or a list of them, as
        an integer array (shape ``(dim,)`` or ``(n, dim)``).

        A node outside the grid (a negative index included) raises
        ``StencilError`` naming the node and the extents, as does anything
        that is not such an index or list.
        """
        pos, ext = np.asarray(nodes), self.extents
        if pos.ndim not in (1, 2) or pos.shape[-1] != len(ext) or pos.dtype.kind not in "iu":
            raise StencilError(f"{nodes!r} is neither a node index of {len(ext)} integers "
                               f"nor a list of them")
        rows = pos.reshape(-1, len(ext))
        outside = np.any((rows < 0) | (rows >= ext), axis=-1)
        if outside.any():
            raise StencilError(f"node {tuple(rows[outside][0].tolist())} lies outside the "
                               f"grid of extents {ext}")
        return pos

    @staticmethod
    def periodic_box(extents) -> "GridSpec":
        """Periodic grid covering ``[0, 2*pi)`` per axis."""
        extents = tuple(int(n) for n in extents)
        return GridSpec(extents=extents, spacing=tuple(2.0 * np.pi / n for n in extents),
                        boundary="periodic")


def grid_derivative(values: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    """Second-order derivative of a nodal array along one grid axis: central
    differences, wrapped at the ends of a periodic grid and one-sided there otherwise."""
    out = np.empty(values.shape, dtype=np.result_type(values, 1.0))
    return _difference_into(out, values, grid, axis)


def grid_gradient(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """All grid derivatives in one array: ``out[..., i] = grid_derivative(values, grid, i)``."""
    out = np.empty(values.shape + (grid.dim,), dtype=np.result_type(values, 1.0))
    for i in range(grid.dim):
        _difference_into(out[..., i], values, grid, i)
    return out


def _difference_into(out: np.ndarray, values: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    # the rows are counted on ``values``, which may be a run of rows of the grid
    n, h = values.shape[axis], grid.spacing[axis]
    # slices (never single indices) keep the end rows views, also of 1-d arrays
    v, d = values.swapaxes(axis, 0), out.swapaxes(axis, 0)
    np.subtract(v[2:], v[:-2], out=d[1:-1])
    if grid.boundary == "periodic":
        np.subtract(v[1:2], v[n - 1:], out=d[:1])
        np.subtract(v[:1], v[n - 2:n - 1], out=d[n - 1:])
    else:
        d[:1] = -3.0 * v[:1] + 4.0 * v[1:2] - v[2:3]
        d[n - 1:] = 3.0 * v[n - 1:] - 4.0 * v[n - 2:n - 1] + v[n - 3:n - 2]
    d /= 2.0 * h
    return out


def block_pass(grid: GridSpec, step: Callable, *arrays: np.ndarray) -> None:
    """Call ``step(x, *blocks)`` on consecutive blocks of at most ``BLOCK_NODES`` nodes.

    Nodes are taken in C order.  ``x`` holds the coordinates of the
    block's nodes, shape ``(n, dim)``, equal to ``grid.coords`` of each;
    each block is the rows of one of ``arrays`` (shape ``extents +
    point shape``) flattened to ``(n,) + point shape``.  For a
    C-contiguous array the rows are views, so ``step`` may overwrite a
    block in place, as the grid passes do with their derivative arrays.
    """
    total = int(np.prod(grid.extents))
    rows = [a.reshape((total,) + a.shape[grid.dim:]) for a in arrays]
    for start in range(0, total, BLOCK_NODES):
        stop = min(start + BLOCK_NODES, total)
        step(_node_coords(grid, start, stop), *(r[start:stop] for r in rows))


def _node_coords(grid: GridSpec, start: int, stop: int) -> np.ndarray:
    """Coordinates of the nodes ``start:stop`` in C order, shape ``(stop - start, dim)``."""
    return grid.coords(np.stack(np.unravel_index(np.arange(start, stop), grid.extents), axis=-1))


@dataclass(frozen=True)
class DiscretizedSection:
    """Grid of first-order field data: ``u[idx, A]`` and ``y[idx, alpha, a]``."""

    grid: GridSpec
    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        ext = self.grid.extents
        if self.u.shape[:len(ext)] != ext or self.u.ndim != len(ext) + 1:
            raise ValueError("u array does not match the grid layout")
        if self.y.shape[:len(ext)] != ext or self.y.ndim != len(ext) + 2:
            raise ValueError("y array does not match the grid layout")
        if self.y.shape[-1] != self.grid.dim:
            raise ValueError("trailing axis of y must match the base dimension")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.y))):
            raise ValueError("non-finite field entries")

    @property
    def fibre_dim(self) -> int:
        return self.u.shape[-1]

    @property
    def kernel_rank(self) -> int:
        return self.y.shape[-2]

    def node_data(self, nodes) -> tuple:
        """``(idx, x, u, y)`` of one node, or of a list of nodes read as one block.

        ``nodes`` is checked by :meth:`GridSpec.check_nodes`.  ``idx`` reads
        any nodal array (shape ``extents + ...``) at those nodes; ``x``,
        ``u`` and ``y`` are the nodes' coordinates and jet data, with no
        leading axis for one node and one axis over the nodes for a list.
        """
        pos = self.grid.check_nodes(nodes)
        idx = tuple(pos.T)
        return idx, self.grid.coords(pos), self.u[idx], self.y[idx]

    def jet_point(self, idx) -> JetPoint:
        _, x, u, y = self.node_data(idx)
        return JetPoint(x=x, u=u, y=y)

    @staticmethod
    def from_functions(grid: GridSpec, fibre_dim: int, kernel_rank: int,
                       u_fn: Optional[Callable] = None,
                       y_fn: Optional[Callable] = None) -> "DiscretizedSection":
        """Sample closed-form ``u(x)`` and ``y(x)`` on the grid.

        Both take one node's coordinates ``x[dim]`` (or, if stacked, a block
        ``x[n, dim]``) and return ``(fibre_dim,)`` and ``(kernel_rank, dim)``
        per node; any other shape raises.  An unset function leaves its array zero.
        """
        u = np.zeros(grid.extents + (fibre_dim,))
        y = np.zeros(grid.extents + (kernel_rank, grid.dim))

        def step(x, u_rows, y_rows):
            if u_fn is not None:
                u_rows[...] = sample_points(u_fn, "u_fn", u_rows.shape[1:], x)
            if y_fn is not None:
                y_rows[...] = sample_points(y_fn, "y_fn", y_rows.shape[1:], x)

        block_pass(grid, step, u, y)
        return DiscretizedSection(grid=grid, u=u, y=y)


@dataclass
class ResidualField:
    """Per-node admissibility and morphism residuals with norm summaries.

    ``l2`` norms are cell-volume weighted (discrete integral norms); the
    morphism block is exactly antisymmetric in its base pair.
    """

    admissibility: np.ndarray
    morphism: np.ndarray
    admissibility_max: float = field(init=False)
    morphism_max: float = field(init=False)
    admissibility_l2: float = field(init=False)
    morphism_l2: float = field(init=False)

    cell_volume: float = 1.0

    def __post_init__(self):
        self.admissibility_max = _maxabs(self.admissibility)
        self.morphism_max = _maxabs(self.morphism)
        self.admissibility_l2 = float(np.sqrt(np.sum(self.admissibility ** 2) * self.cell_volume))
        self.morphism_l2 = float(np.sqrt(np.sum(self.morphism ** 2) * self.cell_volume))

    @property
    def max_norm(self) -> float:
        return max(self.admissibility_max, self.morphism_max)


def _maxabs(arr: np.ndarray) -> float:
    """``max |arr|`` without a copy of ``arr``: 0.0 when empty (never -0.0), NaN if any is."""
    return float(max(arr.max(), -arr.min())) + 0.0 if arr.size else 0.0


def admissibility_residual(pair: FibredAlgebroidPair, section: DiscretizedSection,
                           idx) -> np.ndarray:
    """``rho_a^i d_i u^A - rho_a^A - rho_alpha^A y^alpha_a`` at one node.

    Shape ``(fibre_dim, base_dim)``; identically empty when the pair has
    no fibre coordinates.
    """
    idx, x, u, y = section.node_data(idx)
    return _admissibility(pair, x, u, y, grid_gradient(section.u, section.grid)[idx])


def morphism_residual(pair: FibredAlgebroidPair, section: DiscretizedSection,
                      idx) -> np.ndarray:
    """Flatness residual ``M[alpha, a, b]`` at one node, antisymmetric in (a, b).

    ``M_ab^al = rho_b^i d_i y_a^al - rho_a^i d_i y_b^al
                + C_{b g}^al y_a^g - C_{a g}^al y_b^g
                + C_{be g}^al y_b^be y_a^g + C_ab^c y_c^al - C_ab^al``

    The constant term enters with a minus sign: that is the sign under
    which pullback commutes with the differential on the coframe, under
    which holonomic fields of a curved connection frame are morphisms,
    and under which the flat-reference case forces
    ``d_a y_b - d_b y_a = Omega_ab`` (see the scenario tests).
    """
    idx, x, u, y = section.node_data(idx)
    return _morphism(pair, x, u, y, grid_gradient(section.y, section.grid)[idx])


def _admissibility(pair: FibredAlgebroidPair, x: np.ndarray, u: np.ndarray, y: np.ndarray,
                   du: np.ndarray) -> np.ndarray:
    """Admissibility residual at nodes with coordinates ``x`` (shape
    ``lead + (dim,)``), jet data ``u``, ``y`` and ``du[..., A, i] = d_i u^A``."""
    if u.shape[-1] == 0:
        return np.zeros(du.shape)
    out = np.einsum("...ai,...Ai->...Aa", pair.coefficient("rho_f", x), du)
    out -= np.swapaxes(pair.coefficient("rho_base_u", x, u), -1, -2)
    out -= np.einsum("...kA,...ka->...Aa", pair.coefficient("rho_kernel_u", x, u), y)
    return out


def _morphism(pair: FibredAlgebroidPair, x: np.ndarray, u: np.ndarray, y: np.ndarray,
              dy: np.ndarray) -> np.ndarray:
    """Flatness residual at nodes with coordinates ``x`` (shape ``lead + (dim,)``),
    jet data ``u``, ``y`` and ``dy[..., al, a, i] = d_i y^al_a``.

    The residual is ``P - P^T`` (transpose of the base pair) of

    ``P[al, a, b] = rho_b^i d_i y^al_a + C_{b g}^al y^g_a
                    + 1/2 C_{m g}^al y^m_b y^g_a + 1/2 C_ab^c y^al_c - 1/2 C_ab^al``,

    each contraction a batched ``np.matmul`` (see :func:`_product`): the
    anchor term ``dy @ rho_f^T``; the kernel terms ``y^T @ c_kernel``, with
    ``c_kernel`` read as a ``(k, k*k)`` matrix, then ``y^T`` times that
    half-product plus ``c_mixed``; the base bracket ``y @ c_f^T``, with
    ``c_f`` read as an ``(r*r, r)`` matrix.  A coefficient may be
    point-shaped (unset, or a constant), a broadcast view or stacked.
    """
    lead, k, r = y.shape[:-2], y.shape[-2], y.shape[-1]
    yt = np.swapaxes(y, -1, -2)
    ck = pair.coefficient("c_kernel", x, u)
    w = _product(yt, ck.reshape(ck.shape[:-3] + (k, k * k)))  # [b, (g, al)]
    v = 0.5 * np.swapaxes(w.reshape(lead + (r, k, k)), -3, -2)  # [g, b, al]
    v += np.swapaxes(pair.coefficient("c_mixed", x, u), -3, -2)
    p = _product(dy, np.swapaxes(pair.coefficient("rho_f", x), -1, -2))
    p += np.moveaxis(_product(yt, v.reshape(lead + (k, r * k))).reshape(lead + (r, r, k)),
                     -1, -3)  # [a, b, al] read as [al, a, b]
    cf = pair.coefficient("c_f", x)
    cf = np.swapaxes(cf.reshape(cf.shape[:-3] + (r * r, r)), -1, -2)
    p += 0.5 * _product(y, cf).reshape(p.shape)
    p -= 0.5 * np.moveaxis(pair.coefficient("c_base_kernel", x, u), -1, -3)
    # exactly antisymmetric in the base pair, however each term rounds
    return p - np.swapaxes(p, -1, -2)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for matrices ``b`` with the leading axes of the nodes or none.

    The rows of ``a`` over its further axes are stacked into one matrix per
    matrix of ``b``: a point-shaped ``b``, or one matrix broadcast over the
    nodes, is one product for the whole block, a stacked ``b`` one product
    per node.
    """
    if not any(b.strides[:-2]):
        b = b[(0,) * (b.ndim - 2)]
    blead = b.shape[:-2]
    rows = a.reshape(blead + (math.prod(a.shape[len(blead):-1]), a.shape[-1]))
    return (rows @ b).reshape(a.shape[:-1] + b.shape[-1:])


def _slab_pass(section: DiscretizedSection, step: Callable, *arrays: np.ndarray) -> None:
    """Call ``step(rows, x, u, y, *derivatives)`` on consecutive runs of whole
    rows of the first grid axis, about ``BLOCK_NODES`` nodes and at least
    one row each.

    ``rows`` is the slice of first-axis rows; ``x``, ``u`` and ``y`` are the
    coordinates and jet data of the run's nodes, flattened to one leading
    axis in C order as ``block_pass`` gives them; for each of ``arrays``
    (nodal arrays of the grid) come its derivatives at those nodes,
    ``[..., i]`` along axis ``i``, bit for bit the rows of ``grid_gradient``.
    """
    grid, n = section.grid, section.grid.extents[0]
    row = math.prod(grid.extents[1:])
    per_run = max(1, BLOCK_NODES // row)
    flat = lambda a: a.reshape((math.prod(a.shape[:grid.dim]),) + a.shape[grid.dim:])
    for start in range(0, n, per_run):
        rows = slice(start, min(start + per_run, n))
        step(rows, _node_coords(grid, start * row, rows.stop * row), flat(section.u[rows]),
             flat(section.y[rows]), *(flat(_slab_gradient(a, grid, rows)) for a in arrays))


def _slab_gradient(values: np.ndarray, grid: GridSpec, rows: slice) -> np.ndarray:
    """``grid_gradient(values, grid)[rows]``, from those rows and the rows that
    their first-axis stencils read: one more on each side, wrapped on a
    periodic grid, and three at an end of a one-sided grid."""
    n = len(values)
    lo, hi = rows.start - 1, rows.stop + 1
    if grid.boundary == "one_sided":
        lo, hi = min(max(lo, 0), n - 3), max(min(hi, n), 3)
    # a view unless the rows wrap around a periodic grid
    window = np.take(values, range(lo, hi), 0, mode="wrap") if lo < 0 or hi > n else values[lo:hi]
    out = np.empty(window.shape + (grid.dim,))
    _difference_into(out[..., 0], window, grid, 0)
    own = out[rows.start - lo:rows.stop - lo]
    for i in range(1, grid.dim):
        _difference_into(own[..., i], values[rows], grid, i)
    return own


def residual_report(pair: FibredAlgebroidPair, section: DiscretizedSection) -> ResidualField:
    """Both residuals at every node, with their norms.

    The residuals are formed on runs of whole rows (``_slab_pass``): each run
    differentiates its own rows, reads every coefficient once (per node for
    one not stacked) and forms the flatness residual from batched matrix
    products (see :func:`_morphism`), a point-shaped coefficient in one
    product for the whole run.
    """
    adm, mor = (np.empty(a.shape + (section.grid.dim,)) for a in (section.u, section.y))

    def step(rows, x, u, y, du, dy):
        adm[rows] = _admissibility(pair, x, u, y, du).reshape(adm[rows].shape)
        mor[rows] = _morphism(pair, x, u, y, dy).reshape(mor[rows].shape)

    _slab_pass(section, step, section.u, section.y)
    return ResidualField(admissibility=adm, morphism=mor, cell_volume=section.grid.cell_volume)


def morphism_maxima(pair: FibredAlgebroidPair, section: DiscretizedSection) -> tuple:
    """``(all_nodes, shared)``: the max of ``|M|`` over all nodes and over the
    nodes whose indices are all even, equal to the maxima of
    ``residual_report(pair, section).morphism``.

    The residual is formed run by run as in ``residual_report`` and reduced
    at once (:func:`slab_maxima`), so no residual of the whole grid is held.
    """
    top = np.zeros(2)

    def step(rows, x, u, y, dy):
        mor = _morphism(pair, x, u, y, dy).reshape(section.y[rows].shape + (section.grid.dim,))
        np.maximum(top, slab_maxima(mor, rows.start), out=top)

    _slab_pass(section, step, section.y)
    return tuple(top.tolist())


def slab_maxima(mor: np.ndarray, start: int) -> tuple:
    """``(all_nodes, shared)`` maxima of ``|M|`` of flatness residual rows ``mor``
    (shape ``(rows,) + extents[1:] + (k, r, r)``) that begin at row ``start`` of
    the grid; ``shared`` is over the nodes whose indices are all even."""
    shared = mor[(slice(start % 2, None, 2),) + (slice(None, None, 2),) * (mor.ndim - 4)]
    return _maxabs(mor), _maxabs(shared)


# ---------------------------------------------------------------------------
# serialization: one-line JSON header followed by raw little-endian float64
# payload (u then y, C order); layout documented in the README and frozen
# per format version
# ---------------------------------------------------------------------------

def save_section(section: DiscretizedSection, path) -> None:
    header = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "extents": list(section.grid.extents),
        "spacing": list(section.grid.spacing),
        "origin": list(section.grid.origin),
        "boundary": section.grid.boundary,
        "fibre_dim": section.fibre_dim,
        "kernel_rank": section.kernel_rank,
        "dtype": "<f8",
        "order": "C",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(section.u, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(section.y, dtype="<f8").tobytes())


def load_section(path) -> DiscretizedSection:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    if not isinstance(header, dict) or header.get("format") != _FORMAT_NAME:
        raise ValueError("not a recognized section file")
    # numbers are checked by type: JSON true would pass as 1
    if type(header.get("version")) is not int or header["version"] != _FORMAT_VERSION:
        raise ValueError(f"section header 'version' must be {_FORMAT_VERSION}")
    if header.get("dtype") != "<f8" or header.get("order") != "C":
        raise ValueError("section payload must be little-endian float64 in C order")
    ext, mu, mk = (header.get(key) for key in ("extents", "fibre_dim", "kernel_rank"))
    for key, counts in (("extents", ext if isinstance(ext, list) else [None]),
                        ("fibre_dim", [mu]), ("kernel_rank", [mk])):
        if not all(type(n) is int and n >= 0 for n in counts):
            raise ValueError(f"section header {key!r} must be a non-negative integer (a "
                             f"list of them for 'extents'), got {header.get(key)!r}")
    ext = tuple(ext)
    for key in ("spacing", "origin"):
        v = header.get(key)
        if not (isinstance(v, list) and len(v) == len(ext) and all(
                isinstance(h, (int, float)) and not isinstance(h, bool) for h in v)):
            raise ValueError(f"section header {key!r} must be a list of {len(ext)} "
                             f"numbers, got {v!r}")
    if not isinstance(header.get("boundary"), str):
        raise ValueError(f"section header 'boundary' must be a string, "
                         f"got {header.get('boundary')!r}")
    r = len(ext)
    grid = GridSpec(extents=ext, spacing=tuple(header["spacing"]),
                    boundary=header["boundary"], origin=tuple(header["origin"]))
    n_nodes = int(np.prod(ext))
    u_count = n_nodes * mu
    y_count = n_nodes * mk * r
    if len(payload) != 8 * (u_count + y_count):
        raise ValueError(f"section payload has {len(payload)} bytes, the header "
                         f"describes {8 * (u_count + y_count)}")
    data = np.frombuffer(payload, dtype="<f8")
    u = data[:u_count].reshape(ext + (mu,))
    y = data[u_count:].reshape(ext + (mk, r))
    return DiscretizedSection(grid=grid, u=u, y=y)
