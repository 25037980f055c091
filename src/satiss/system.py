"""Discrete transport-dispersion generator, saturated closed loop, time stepping.

The reference instance is the linearized Korteweg-de Vries generator
A z = -z' - z''' on (0, L) with z(0) = z(L) = 0 and z_x(L) = 0, feedback
u = -sigma(B* z + d) with B the identity.  The semi-discrete loop

    dz/dt = A z - sigma(z + d(t))

is integrated by an IMEX scheme: Crank-Nicolson on the stiff linear part
(the third derivative forces dt = O(h^3) on any explicit scheme) and an
explicit midpoint rule on the globally Lipschitz feedback term.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import eigvals_banded
from scipy.linalg.lapack import dpbtrf
from scipy.sparse.linalg import splu

from .csvio import csv_writer, write_csv
from .errors import DissipativityGateFailed, GridMismatchError, ParameterError, \
    SimulationDiverged
from .saturation import SaturationMap, _sat_values
from .spaces import Grid

#: Rows per tile of the operator product, and the column alignment of its
#: windows; the last tile also takes the rows left over, so no tile has
#: fewer than ``_TILE_ROWS`` rows unless the grid has.
_TILE_ROWS = 16
_TILE_COLUMNS = 16


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """A linear operator on grid functions, held as its band.

    ``band`` holds the diagonals at offsets -p..p, p the bandwidth: 2p + 1
    of them, the one at offset k with n - |k| entries.  They are copied
    into read-only arrays, and ``bandwidth``, ``csc``, the product's tiles
    and the band of the symmetric part, which the dissipativity gate
    factors and ``max_symmetric_eigenvalue`` reads, are built from them.
    ``A @ z`` (or ``A.apply(z, out)``) is the operator's product.  The
    dense ``matrix`` is filled once, on first read; no product reads it,
    and it is kept as the tests' oracle.  Tiles and lambda_max are
    computed on first use.  Operators are immutable.

    The product is one ``np.matmul`` per group of equal dense tiles.  Rows
    go in blocks of ``_TILE_ROWS``, the last block taking what is left;
    each block's tile is the window of columns that covers its band,
    starting on a multiple of ``_TILE_COLUMNS`` and as wide as a multiple
    of it, or ending at n.  Consecutive tiles of one shape whose windows
    step by the same number of columns form a group, held as one
    (count, 1, width, rows) stack.  n < 32 is one tile, the whole matrix;
    from n = 48 on the KdV band makes three groups, head, body and tail,
    which at n = 2047 hold 0.78 MB where the matrix holds 33.5 MB.  A
    group's ``np.matmul`` multiplies each window of each state by its tile
    as one gemv, so column j of a block is the product of its state j bit
    for bit, for every m.  ``A.product(z, out)`` builds the views of one
    pair of buffers once; ``A @ z`` builds them on each call for a block,
    and copies a state through one such pair.

    Measured with OpenBLAS 0.3.31 on one random state per n, not
    guaranteed.  The build targets Haswell; on the host measured it picked
    its SkylakeX kernels at run time, which another CPU may not get.  On
    one BLAS thread a state's product is the full dense gemv ``matrix @ z``
    bit for bit at every n from 5 to 1099 and at 2047; at n = 4095 the gemv
    splits its sum at column 2048, and 4 of its 4095 entries differ, all in
    rows 2046-2049.  The tile products were the same on one and on two
    threads at every n measured; the dense gemv moved at 97 of the 1097 n
    where it was compared.  A tile of one row would make numpy call a dot,
    not a gemv, so the last block keeps at least ``_TILE_ROWS`` rows.
    """

    grid: Grid
    band: tuple

    def __post_init__(self):
        n = self.grid.n_interior
        p = (len(self.band) - 1) // 2
        band = tuple(np.array(d, dtype=float) for d in self.band)
        if len(band) % 2 != 1 or p >= n or any(
                d.shape != (n - abs(k),) for k, d in zip(range(-p, p + 1), band)):
            raise GridMismatchError("a band of %d diagonals does not fit a grid of %d "
                                    "interior nodes" % (len(band), n))
        for d in band:
            d.setflags(write=False)
        object.__setattr__(self, "band", band)

    def apply(self, z: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """A z for a state (n,) or a column-major block (n, m), one state per
        column, written into ``out`` if given, which must be a state or a
        column-major block of z's shape.  A state is copied through the
        buffers of ``_state_product``, whose views are built once; a block's
        views are built on each call."""
        if z.shape[0] != self.grid.n_interior:
            raise GridMismatchError("a product of %d rows cannot take %d values per "
                                    "state" % (self.grid.n_interior, z.shape[0]))
        if out is None:
            out = np.empty(z.shape, order="F")
        elif out.shape != z.shape:
            raise GridMismatchError("out has shape %r, z %r" % (out.shape, z.shape))
        if z.ndim == 1:
            state, image, product, lock = self._state_product
            with lock:
                state[:, 0] = z
                product()
                out[...] = image[:, 0]
            return out
        for windows, tiles, rows in self._views(np.ascontiguousarray(z.T, dtype=float),
                                                out.T):
            np.matmul(windows, tiles, out=rows)
        return out

    __matmul__ = apply

    @cached_property
    def _state_product(self) -> tuple:
        """(z, A z, product, lock): the (n, 1) buffers that a state's product
        goes through, their prebuilt product, and the lock that keeps one
        call at a time in them.  Building the views costs more than the
        product of a state at n = 127, and set-up takes one graph norm per
        initial state."""
        state, image = (np.empty((self.grid.n_interior, 1), order="F") for _ in range(2))
        return state, image, self.product(state, image), threading.Lock()

    def product(self, z: np.ndarray, out: np.ndarray):
        """A function of no arguments that writes A z into ``out`` from what
        ``z`` holds when it is called; ``z`` and ``out`` are column-major
        (n, m) blocks, and the views of them that it reads and writes are
        built once, here."""
        views = self._views(z.T, out.T)

        def run():
            for windows, tiles, rows in views:
                np.matmul(windows, tiles, out=rows)
        return run

    def _views(self, zt, ot) -> list:
        """(windows, tiles, rows) per group, for the rows of ``zt`` and
        ``ot``, (m, n) C-contiguous float arrays, one state each: the group's
        ``np.matmul`` reads (count, m, 1, width) windows of zt, ``step``
        columns apart, and writes (count, m, 1, rows) rows of ot.  Each
        window row times its tile is one gemv, so a state's product is the
        same BLAS call whether it is alone or in a block.  The views are
        built over the buffers of zt and ot, and numpy checks that those
        hold them."""
        if not (zt.flags.c_contiguous and ot.flags.c_contiguous
                and zt.dtype == ot.dtype == float):
            raise ValueError("the product reads and writes column-major float blocks only")
        m, z_stride, out_stride, item = len(zt), zt.strides[0], ot.strides[0], zt.itemsize
        return [(np.ndarray((count, m, 1, width), float, zt, first_column * item,
                            (step * item, z_stride, 0, item)), tiles,
                 np.ndarray((count, m, 1, rows), float, ot, first_row * item,
                            (rows * item, out_stride, 0, item)))
                for first_row, first_column, step, tiles in self._groups
                for count, _, width, rows in [tiles.shape]]

    def _write_band(self, layout, flat) -> list:
        """Write the band into ``flat``, a zeroed buffer of one (count, rows,
        width) stack per group ``(r0, rows, count, c0, step, width)`` of
        ``layout``, in order: tile t of a group holds the rows from
        r0 + t rows and the columns from c0 + t step.  One write per
        diagonal; returns the stacks, views of ``flat``."""
        diagonal_at = np.empty(self.grid.n_interior, dtype=np.intp)  # flat index of (i, i)
        stacks, base = [], 0
        for r0, rows, count, c0, step, width in layout:
            j = np.arange(count * rows)
            diagonal_at[r0:r0 + j.size] = base + j * width + r0 + j - c0 - j // rows * step
            stacks.append(flat[base:base + j.size * width].reshape(count, rows, width))
            base += j.size * width
        for k, diagonal in zip(range(-self.bandwidth, self.bandwidth + 1), self.band):
            i = max(-k, 0)
            flat[diagonal_at[i:i + len(diagonal)] + k] = diagonal
        return stacks

    @cached_property
    def _groups(self) -> tuple:
        """(first row, first column, step, tiles) per group of equal tiles:
        the first row it writes, where its first window starts, the step of
        its windows, and its read-only tiles, transposed, as a (count, 1,
        width, rows) stack."""
        n, p, w = self.grid.n_interior, self.bandwidth, _TILE_COLUMNS
        starts = list(range(0, n - _TILE_ROWS + 1, _TILE_ROWS)) or [0]
        layout = []  # [r0, rows, count, c0, step, width] per group
        for r0, r1 in zip(starts, starts[1:] + [n]):
            c0 = max(r0 - p, 0) // w * w
            width = min(math.ceil((min(r1 + p, n) - c0) / w) * w, n - c0)
            if layout:
                group = layout[-1]
                _, rows, count, first, step, group_width = group
                gap = c0 - first - (count - 1) * step  # from the group's last window
                if (rows, group_width) == (r1 - r0, width) and gap > 0 \
                        and (count == 1 or gap == step):
                    group[2], group[4] = count + 1, gap
                    continue
            layout.append([r0, r1 - r0, 1, c0, 0, width])
        size = sum(rows * count * width for _, rows, count, _, _, width in layout)
        stacks = self._write_band(layout, np.zeros(size))
        groups = []
        for (r0, _, _, c0, step, _), stack in zip(layout, stacks):
            stack.setflags(write=False)
            groups.append((r0, c0, step, stack.transpose(0, 2, 1)[:, None]))
        return tuple(groups)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, zero outside the band; read-only, owns its data."""
        n = self.grid.n_interior
        m = np.zeros((n, n))
        self._write_band([(0, n, 1, 0, 0, n)], m.reshape(-1))
        m.setflags(write=False)
        return m

    @property
    def bandwidth(self) -> int:
        return (len(self.band) - 1) // 2

    @cached_property
    def csc(self) -> sparse.csc_matrix:
        """The matrix in compressed sparse column form, built from its band."""
        p = self.bandwidth
        out = sparse.diags(self.band, range(-p, p + 1), format="csc")
        out.eliminate_zeros()  # zeros inside the band are not stored, as in csc_matrix(m)
        return out

    def _symmetric_band(self) -> np.ndarray:
        """The symmetric part (A + A^T) / 2 in LAPACK's lower band form, row
        k its k-th lower diagonal, at its narrowest: the trailing all-zero
        diagonals are dropped, so the KdV operator's goes as a tridiagonal."""
        band, p, n = self.band, self.bandwidth, self.grid.n_interior
        lower = [0.5 * band[p - k] + 0.5 * band[p + k] for k in range(p + 1)]
        while len(lower) > 1 and not np.any(lower[-1]):
            lower.pop()
        out = np.zeros((len(lower), n))
        for k, diagonal in enumerate(lower):
            out[k, :n - k] = diagonal
        return out

    @cached_property
    def max_symmetric_eigenvalue(self) -> float:
        """lambda_max of the symmetric part (A + A^T) / 2, by banded LAPACK:
        the value the decay constant reads."""
        n = self.grid.n_interior
        return float(eigvals_banded(self._symmetric_band(), lower=True, select="i",
                                    select_range=(n - 1, n - 1))[0])


def dissipativity_gate(op: LinearOperator) -> LinearOperator:
    """``op`` itself if -sym(A) has a Cholesky factor, which proves
    lambda_max(sym A) < 0 up to the factor's backward error (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 10): LAPACK
    ``dpbtrf`` on the band ``max_symmetric_eigenvalue`` reads, O(n p^2).
    A refused, NaN or infinite pivot raises DissipativityGateFailed with the
    order of the leading minor it ends and lambda_max, computed on that path
    alone; so does lambda_max = 0."""
    band = op._symmetric_band()
    factor, info = dpbtrf(-band, lower=1)
    pivots = np.isfinite(factor[0])
    if info == 0 and pivots.all():
        return op
    raise DissipativityGateFailed(
        op.max_symmetric_eigenvalue if np.isfinite(band).all() else math.nan,
        info or 1 + int(np.argmin(pivots)))


def build_kdv_operator(grid: Grid) -> LinearOperator:
    """Assemble A z = -z' - z''' with the wall conditions encoded in the stencil.

    First derivative: backward (upwind) difference (z_j - z_{j-1}) / h.
    Third derivative: five-point centered stencil
    (-z_{j-2} + 2 z_{j-1} - 2 z_{j+1} + z_{j+2}) / (2 h^3).
    Node values left of the domain and at both walls are zero (Dirichlet);
    the right condition z_x(L) = 0 enters through the reflected ghost
    z_{n+2} := z_n, which folds one entry onto the last diagonal element.
    The five diagonals are assembled directly as the operator's band.

    The upwind part has a negative-definite symmetric part and the centered
    part is antisymmetric up to the (negative-semidefinite) ghost fold, so
    the assembled operator must pass the dissipativity gate; failure means
    the stencil/grid combination lost that structure and is rejected.
    """
    n = grid.n_interior
    if n < 5:
        raise ParameterError("the dispersion stencil needs at least 5 interior nodes")
    h = grid.spacing_h
    c1 = 1.0 / h
    try:
        c3 = 1.0 / (2.0 * h**3)
    except (OverflowError, ZeroDivisionError):
        c3 = math.nan
    if not 0.0 < c3 < math.inf:
        raise ParameterError("grid spacing h = %g leaves the dispersion stencil "
                             "1 / (2 h^3) outside the finite nonzero doubles" % h)
    # the sub-diagonal adds the upwind weight c1 to the dispersion weight
    # -2 c3, 1 / h^2 times larger: for h below about 1e-5 rounding moves c1
    # by more than 1e-6 of itself, and below about 1e-8 drops it altogether,
    # so that A is no longer the upwind discretisation.  Where 2 c3
    # overflows, sub is -inf and the difference is NaN, which fails the check
    sub = c1 - 2.0 * c3
    if not abs((sub + 2.0 * c3) - c1) <= 1e-6 * c1:
        raise ParameterError("grid spacing h = %g is too fine: c1 - 2 c3 = 1/h - 1/h^3 "
                             "no longer carries the upwind term 1/h" % h)
    main = np.full(n, -c1)
    main[-1] += -c3  # reflected ghost z_{n+2} = z_n
    band = (np.full(n - 2, c3), np.full(n - 1, sub), main,
            np.full(n - 1, 2.0 * c3), np.full(n - 2, -c3))
    return dissipativity_gate(LinearOperator(grid, band))


def linear_loop_operator(A: LinearOperator) -> LinearOperator:
    """Generator A - B B* of the unsaturated feedback loop (B = identity):
    A's band with its main diagonal shifted by -1."""
    band, p = list(A.band), A.bandwidth
    band[p] = band[p] - 1.0
    return LinearOperator(A.grid, band)


@dataclass(frozen=True, eq=False)
class DisturbanceSignal:
    """Disturbance d(t) entering the actuator: the uniform cosine
    amplitude * cos(frequency * t) at every interior node; (0, 0) is the
    zero disturbance."""

    amplitude: float = 0.0
    frequency: float = 0.0


def zero_disturbance() -> DisturbanceSignal:
    return DisturbanceSignal()


def cosine_disturbance(amplitude: float, frequency: float = 1.0) -> DisturbanceSignal:
    return DisturbanceSignal(amplitude=amplitude, frequency=frequency)


@dataclass(frozen=True, eq=False)
class SaturatedSystem:
    """Closed loop dz/dt = A z - B sigma(B* z + d); sigma = None means the
    unsaturated linear feedback u = -(B* z + d)."""

    A: LinearOperator
    sigma: SaturationMap = None
    d: DisturbanceSignal = field(default_factory=zero_disturbance)

    @property
    def feedback_lipschitz(self) -> float:
        return self.sigma.lipschitz_k if self.sigma is not None else 1.0


def assemble_closed_loop(A: LinearOperator, sigma: SaturationMap,
                         d: DisturbanceSignal = None) -> SaturatedSystem:
    if d is None:
        d = zero_disturbance()
    return SaturatedSystem(A=A, sigma=sigma, d=d)


def _half_step(A, k, dt):
    """(dt, solve) of the half-step system I - dt/2 A, for feedback of
    Lipschitz constant k."""
    if dt * k >= 1.0:
        raise ParameterError(
            "dt * k = %g >= 1: explicit feedback term needs a smaller step" % (dt * k))
    try:
        return dt, splu(sparse.identity(A.grid.n_interior, format="csc")
                        - (dt / 2.0) * A.csc).solve
    except RuntimeError as exc:
        raise ParameterError("half-step system is singular: %s" % exc)


class _ImexStepper:
    """One-step map: Crank-Nicolson on A, explicit midpoint on the feedback.

    (I - dt/2 A) z+ = (I + dt/2 A) z - dt sigma(B* zhat + d(t + dt/2)),
    zhat = z + dt/2 (A z - sigma(B* z + d(t))).

    It advances an (n, m) block of members, one column each, that share A
    and the saturation kind and may differ in d and in the level, over the
    ``times`` of one run: steps of ``dt``, the last one to ``times[-1]``,
    LU-factored apart when shorter.
    Blocks are column-major, so each member's column is contiguous, its
    reductions are the BLAS dot ``np.dot`` applies to a single state and its
    product is the state's gemv (``LinearOperator``): each member's
    arithmetic is that of its single run, bit for bit.  A member without a
    saturation map is saturated at level +inf, which returns its values bit
    for bit under either kind.  One LU factor per (A, dt) and one solve
    cover all m columns.

    The buffers are allocated once and every step writes into them, in the
    IEEE order of the expressions above: ``blocks[0..3]`` hold the rows of
    z, A z, u = sigma(B* z + d) and d (their (n, m) views are ``z``, ``az``,
    ``u`` and ``d``), two more zhat and the right-hand side.  A z goes
    from ``z`` into ``az`` through ``A.product``, whose views are built
    once.  ``cosines`` holds d of each member at each time the loop reads,
    row 2i at ``times[i]`` and row 2i + 1 at its half-step: (2 steps + 1) m
    doubles from one ``cos`` call per run.  Each time is computed as a step
    computes it, so each entry is the per-step
    ``amplitude * cos(frequency * t)``.
    """

    def __init__(self, systems, dt: float, times: np.ndarray):
        A, k = systems[0].A, max(s.feedback_lipschitz for s in systems)
        self._A, self._h = A, A.grid.spacing_h
        self._kind = next((s.sigma.kind for s in systems if s.sigma is not None), None)
        levels = [math.inf if s.sigma is None else s.sigma.level for s in systems]
        # one level for the whole block where the members share it
        self._level = levels[0] if len(set(levels)) == 1 else np.array(levels)
        step = _half_step(A, k, dt)
        last_dt = float(times[-1] - times[-2])
        last = step if abs(last_dt - dt) <= 1e-12 * dt else _half_step(A, k, last_dt)
        self._steps = [step] * (len(times) - 2) + [last]  # (dt, solve) per step
        at = np.repeat(times, 2)[:-1]  # t_i, then t_i + dt/2 for i < steps
        at[1::2] += 0.5 * dt
        at[-2] = times[-2] + 0.5 * last[0]
        amplitude = np.array([s.d.amplitude for s in systems])
        frequency = np.array([s.d.frequency for s in systems])
        self.cosines = amplitude * np.cos(frequency * at[:, None])
        n, m = A.grid.n_interior, len(systems)
        self.blocks = np.zeros((4, m, n))
        self.z, self.az, self.u, self.d = (block.T for block in self.blocks)
        self._zhat, self._rhs = (block.T for block in np.empty((2, m, n)))
        self._product = self._A.product(self.z, self.az)

    def _saturate(self, values):
        """sigma(values) in place, each member at its level; a block with no
        saturation map is left as it is."""
        if self._kind is not None:
            _sat_values(self._kind, values, self._level, self._h, out=values)

    def evaluate(self, i: int):
        """Fill d, A z and u = sigma(B* z + d) at ``times[i]`` from z."""
        d = self.cosines[2 * i]
        self.d[...] = d
        self._product()
        np.add(self.z, d, out=self.u)
        self._saturate(self.u)

    def advance(self, i: int):
        """Step z from ``times[i]`` to ``times[i + 1]``, reading the blocks
        ``evaluate(i)`` filled."""
        dt, solve = self._steps[i]
        zhat, rhs = self._zhat, self._rhs
        np.subtract(self.az, self.u, out=zhat)
        zhat *= 0.5 * dt
        zhat += self.z
        zhat += self.cosines[2 * i + 1]
        self._saturate(zhat)  # the midpoint feedback u_m
        np.multiply(self.az, 0.5 * dt, out=rhs)
        rhs += self.z
        zhat *= dt
        rhs -= zhat
        self.z[...] = solve(rhs)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-step norm and Lyapunov observables at ``times`` (steps + 1,): each
    series is (steps + 1,) for one run, (m, steps + 1) for m members."""

    grid: Grid
    times: np.ndarray
    observables: dict

    OBSERVABLE_COLUMNS = ("norm_l2", "norm_linf", "norm_graph",
                          "V", "V1", "V2", "norm_u", "norm_d")

    def __len__(self):
        return len(self.times)

    def member(self, j: int) -> Trajectory:
        """Member j of a batch's trajectory: the series of its single run."""
        return Trajectory(self.grid, self.times,
                          {name: series[j] for name, series in self.observables.items()})

    def write_observables_csv(self, path):
        """One line per time of one run; a series not filled in reads nan."""
        unset = np.full(len(self.times), math.nan)
        cols = self.OBSERVABLE_COLUMNS
        write_csv(path, ("t",) + cols,
                  [self.times] + [self.observables.get(c, unset) for c in cols])

    @staticmethod
    def write_states_csv(path, grid):
        """Context manager: open the states CSV of a run on ``grid`` and
        yield the sink ``(times, rows)`` that ``simulate`` hands its state
        rows to, one line per time.  Call it through the class."""
        return csv_writer(path, ["t"] + ["z%d" % j for j in range(1, grid.n_interior + 1)])


#: Steps per block of recorded state rows.  A run holds two (m, 32, n)
#: blocks, the rows and their magnitudes, whatever its number of steps.
_BLOCK_ROWS = 32


def simulate(sys, z0, T: float, dt: float, on_rows=None):
    """Integrate the closed loop over [0, T] and record observables per step.

    ``sys`` and ``z0`` are one system and one initial state, or
    equal-length lists of m of them; the listed systems must share ``A``
    and the kind of their saturation maps, and may differ in ``d`` and in
    the level; a system without a map (``sigma`` None) joins a batch of
    either kind at level +inf.  Either way the result is one Trajectory,
    whose series are (steps + 1,) for one system and (m, steps + 1) for a
    list, row j that of member j.  Row j, and the states handed out for
    it, are member j's single run bit for bit, for every m.  All members
    advance together as one block, in the buffers of one ``_ImexStepper``,
    with d read from its cosine table: under 2 m (steps + 1) doubles, as
    many as the recorded norms.  V is recorded as ||z||^2; V1 and V2 are not recorded: the
    functions of ``lyapunov.trajectory_observers`` compute them from the
    recorded norms.

    No state history is kept.  The states go into one reused block of
    ``_BLOCK_ROWS`` rows per member; when it is full, and at the last
    step, their max |z| is recorded and checked, and the rows are handed to
    ``on_rows(times, rows)`` if given: ``times`` (k,) and ``rows`` (k, n)
    for one system, (m, k, n) for a list, both valid only during the call.
    A non-finite state raises SimulationDiverged, naming its first step and
    member, before its block is handed out; a non-finite recorded norm
    raises it after the loop, once every block has been handed out.
    Overflow and invalid-operation warnings are off in the step loop alone:
    what overflows there stays non-finite and is reported by those checks.
    A step count T / dt whose per-step series cannot be allocated raises
    ParameterError.
    """
    batch = isinstance(sys, (list, tuple))
    systems = list(sys) if batch else [sys]
    z0s = list(z0) if batch else [z0]
    if not systems or len(systems) != len(z0s):
        raise ParameterError("systems and initial states must be nonempty lists "
                             "of equal length")
    if not 0 < T < math.inf:
        raise ParameterError("horizon T must be positive and finite, got %r" % (T,))
    if not 0 < dt <= T:
        raise ParameterError("dt must lie in (0, T]")
    A = systems[0].A
    if any(s.A is not A for s in systems) or len(
            {s.sigma.kind for s in systems if s.sigma is not None}) > 1:
        raise ParameterError("batched systems must share A and the saturation kind")
    grid = A.grid
    if any(z0_j.grid != grid for z0_j in z0s):
        raise GridMismatchError("initial state and system live on different grids")
    h = grid.spacing_h

    m = len(systems)
    try:  # OverflowError: T / dt = inf; ValueError: more entries than an index holds
        n_steps = max(1, int(math.ceil(T / dt - 1e-9)))
        times = np.arange(n_steps + 1) * dt
        # per member and step: max |z| and the sums of squares of z, A z,
        # u = sigma(B* z + d) and d, all read from the step's own blocks
        linf = np.empty((m, n_steps + 1))
        squares = np.empty((4, m, n_steps + 1))
    except (MemoryError, OverflowError, ValueError):
        raise ParameterError("T / dt = %.6g steps: their per-step series cannot be "
                             "allocated" % (T / dt)) from None
    times[-1] = T
    times.setflags(write=False)
    stepper = _ImexStepper(systems, dt, times)

    rows = np.empty((m, min(_BLOCK_ROWS, n_steps + 1), grid.n_interior))
    magnitudes = np.empty_like(rows)

    stepper.z[...] = np.array([z0_j.values for z0_j in z0s]).T
    state = stepper.blocks[0]  # z, one row per member
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps + 1):
            stepper.evaluate(i)
            r = i % _BLOCK_ROWS
            rows[:, r] = state
            np.vecdot(stepper.blocks, stepper.blocks, out=squares[:, :, i])
            if r == _BLOCK_ROWS - 1 or i == n_steps:
                start, k = i - r, r + 1
                np.abs(rows[:, :k], out=magnitudes[:, :k]).max(
                    axis=2, out=linf[:, start:i + 1])
                finite = np.isfinite(linf[:, start:i + 1])
                if not finite.all():
                    step = int(np.argmin(finite.all(axis=0)))
                    raise SimulationDiverged(start + step, int(np.argmin(finite[:, step])))
                if on_rows is not None:
                    on_rows(times[start:i + 1], rows[:, :k] if batch else rows[0, :k])
            if i < n_steps:
                stepper.advance(i)
    # the norms, computed in place to keep one (m, steps) array per column
    squares *= h
    bad = ~np.isfinite(squares)
    if bad.any():
        i = int(np.argmax(bad.any(axis=(0, 1))))
        j = int(np.argmax(bad[:, :, i].any(axis=0)))
        k = int(np.argmax(bad[:, j, i]))
        raise SimulationDiverged(i, j, ("norm_l2", "norm_graph", "norm_u", "norm_d")[k])
    nrm2, norm_graph, norm_u, norm_d = squares
    norm_l2 = np.sqrt(nrm2)
    np.sqrt(norm_graph, out=norm_graph)
    norm_graph += norm_l2
    np.sqrt(norm_u, out=norm_u)
    np.sqrt(norm_d, out=norm_d)
    obs = {"norm_l2": norm_l2, "norm_linf": linf, "norm_graph": norm_graph,
           "V": nrm2, "norm_u": norm_u, "norm_d": norm_d}
    return Trajectory(grid=grid, times=times, observables=obs if batch else
                      {name: series[0] for name, series in obs.items()})
