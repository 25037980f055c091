"""Discrete function-space arithmetic on a uniform interval grid.

States live on the interior nodes of a uniform grid over [0, L] with
homogeneous Dirichlet values at both walls.  Integrals use the rectangle
rule h * sum over interior nodes; because the wall values vanish this
coincides with the trapezoid rule.  Three norms are provided: the L2 norm
with its scalar product, the sup norm, and the graph norm ||z|| + ||A z||
of a linear operator.

All operations are pure functions on immutable inputs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, L]: interior nodes x_j = j*h, j = 1..n, h = L/(n+1).

    Boundary nodes x_0 = 0 and x_{n+1} = L carry the value 0 implicitly.
    """

    length_L: float
    n_interior: int
    spacing_h: float = field(init=False)

    def __post_init__(self):
        if not self.length_L > 0:
            raise ValueError("length_L must be positive, got %r" % (self.length_L,))
        if self.n_interior < 3:
            raise ValueError("n_interior must be >= 3, got %r" % (self.n_interior,))
        object.__setattr__(self, "spacing_h", self.length_L / (self.n_interior + 1))

    def interior_nodes(self) -> np.ndarray:
        return self.spacing_h * np.arange(1, self.n_interior + 1)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Real-valued grid function given by its interior node values."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.n_interior,):
            raise GridMismatchError(
                "state has %r values, grid has %d interior nodes"
                % (vals.shape, self.grid.n_interior)
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("state values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("operands live on different grids")


def inner_l2(a: StateVector, b: StateVector) -> float:
    """Discrete L2 scalar product h * sum_j a_j b_j."""
    _require_same_grid(a, b)
    return float(a.grid.spacing_h * np.dot(a.values, b.values))


def norm_l2(z: StateVector) -> float:
    return math.sqrt(max(inner_l2(z, z), 0.0))


def norm_linf(z: StateVector) -> float:
    return float(np.max(np.abs(z.values)))


def norm_graph(z: StateVector, op) -> float:
    """Graph norm ||z|| + ||A z|| for an operator with ``grid`` and ``op @ v``."""
    if op.grid != z.grid:
        raise GridMismatchError("operator and state live on different grids")
    image = op @ z.values
    return norm_l2(z) + math.sqrt(z.grid.spacing_h * float(np.dot(image, image)))


def boundary_envelope(grid: Grid) -> np.ndarray:
    """Smooth window vanishing to fourth order at both walls, peak value 1.

    Multiplying a profile by this window flattens its jets at x = 0 and
    x = L, which keeps difference stencils with ghost-node closures
    pointwise consistent up to the walls.
    """
    u = grid.interior_nodes() / grid.length_L
    return 256.0 * u**4 * (1.0 - u) ** 4


@functools.lru_cache(maxsize=8)
def _sine_basis(grid: Grid, n_modes: int) -> np.ndarray:
    """Read-only (n_modes, n) table whose row j-1 is sin(j pi x / L)."""
    x = grid.interior_nodes()
    basis = np.empty((n_modes, grid.n_interior))
    for j in range(1, n_modes + 1):
        basis[j - 1] = np.sin(j * np.pi * x / grid.length_L)
    basis.setflags(write=False)
    return basis


def random_smooth_values(grid: Grid, rng, n_modes: int = 12,
                         mode_decay: float = 3.0, envelope: bool = False,
                         size: int = None) -> np.ndarray:
    """Random truncated sine series with mode amplitudes decaying like j**-decay.

    Without ``size``, ``rng`` draws ``n_modes`` coefficients and the result
    is one (n,) state.  With ``size``, it draws a ``(size, n_modes)``
    coefficient block in one call and the result is a (size, n) block whose
    row i is bit for bit the single state of coefficient row i.  The
    coefficient draws do not depend on the grid resolution, so the same
    generator state yields samples of one underlying function across grids.
    """
    coeffs = rng.standard_normal(n_modes if size is None else (size, n_modes))
    # term j is coeffs[j-1] * j**-decay * sin(j pi x / L); the terms are
    # summed in order of j onto 0.0, which keeps an all-(-0.0) sum at 0.0
    weights = coeffs.reshape(-1, n_modes) * [j ** (-mode_decay)
                                             for j in range(1, n_modes + 1)]
    terms = weights.T[:, :, None] * _sine_basis(grid, n_modes)[:, None, :]
    v = np.add.reduce(terms, axis=0, initial=0.0)
    if envelope:
        v = v * boundary_envelope(grid)
    return v[0] if size is None else v
