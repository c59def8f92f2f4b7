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
one node (after differentiating the whole grid and reading their node);
``residual_report`` forms the derivatives once per grid and calls it on
blocks of ``BLOCK_NODES`` nodes through ``block_pass``, so its
temporaries scale with the block, not the grid.  Within a block a
:func:`~algfield.fibred.stacked` coefficient callable of the pair is
called once, and any other once per node (see ``FibredAlgebroidPair``);
either must return its documented shape.  Sweeps
call ``residual_report``.  Closed-form or integrated fields come from
the scenario builders.
"""

from __future__ import annotations

import json
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
        object.__setattr__(self, "extents", tuple(int(n) for n in self.extents))
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        if self.origin is None:
            object.__setattr__(self, "origin", (0.0,) * len(self.extents))
        else:
            object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        if len(self.spacing) != len(self.extents) or len(self.origin) != len(self.extents):
            raise ValueError("extents, spacing and origin must have equal length")
        if any(n < 3 for n in self.extents):
            raise StencilError("need at least 3 nodes per axis for central differences")
        if any(h <= 0 for h in self.spacing):
            raise ValueError("grid spacing must be positive")
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

    @staticmethod
    def periodic_box(extents, lengths=None) -> "GridSpec":
        """Periodic grid covering ``[0, length)`` per axis (default ``2*pi``)."""
        extents = tuple(int(n) for n in extents)
        if lengths is None:
            lengths = (2.0 * np.pi,) * len(extents)
        spacing = tuple(l / n for l, n in zip(lengths, extents))
        return GridSpec(extents=extents, spacing=spacing, boundary="periodic")


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
    n, h = grid.extents[axis], grid.spacing[axis]
    # slices (never single indices) keep the end rows views, also of 1-d arrays
    v, d = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
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
    origin, spacing = np.asarray(grid.origin), np.asarray(grid.spacing)
    for start in range(0, total, BLOCK_NODES):
        stop = min(start + BLOCK_NODES, total)
        idx = np.stack(np.unravel_index(np.arange(start, stop), grid.extents), axis=-1)
        step(origin + idx * spacing, *(r[start:stop] for r in rows))


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

    def jet_point(self, idx) -> JetPoint:
        return JetPoint(x=self.grid.coords(idx), u=self.u[tuple(idx)], y=self.y[tuple(idx)])

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
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def admissibility_residual(pair: FibredAlgebroidPair, section: DiscretizedSection,
                           idx) -> np.ndarray:
    """``rho_a^i d_i u^A - rho_a^A - rho_alpha^A y^alpha_a`` at one node.

    Shape ``(fibre_dim, base_dim)``; identically empty when the pair has
    no fibre coordinates.
    """
    idx = tuple(idx)
    return _admissibility(pair, section.grid.coords(idx), section.u[idx], section.y[idx],
                          grid_gradient(section.u, section.grid)[idx])


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
    idx = tuple(idx)
    return _morphism(pair, section.grid.coords(idx), section.u[idx], section.y[idx],
                     grid_gradient(section.y, section.grid)[idx])


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
    jet data ``u``, ``y`` and ``dy[..., al, a, i] = d_i y^al_a``."""
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
    # enforce exact antisymmetry in the base pair (summation order in the
    # quadratic term can otherwise leave last-bit asymmetry)
    return 0.5 * (out - np.swapaxes(out, -2, -1))


def residual_report(pair: FibredAlgebroidPair, section: DiscretizedSection,
                    tol: float):
    """Aggregate both residuals over all nodes.

    Returns ``(ResidualField, is_morphism)`` with ``is_morphism`` true
    when both max norms are within ``tol``.
    """
    # the residual arrays have the shapes of the derivatives, and each node
    # reads only its own derivatives, so its residuals overwrite them
    adm = grid_gradient(section.u, section.grid)
    mor = grid_gradient(section.y, section.grid)

    def step(x, u, y, du, dy):
        du[...] = _admissibility(pair, x, u, y, du)
        dy[...] = _morphism(pair, x, u, y, dy)

    block_pass(section.grid, step, section.u, section.y, adm, mor)
    fieldres = ResidualField(admissibility=adm, morphism=mor,
                             cell_volume=section.grid.cell_volume)
    return fieldres, bool(fieldres.max_norm <= tol)


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
    # integers are checked by type: JSON true would pass as 1
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
