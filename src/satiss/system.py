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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import eigvals_banded
from scipy.sparse.linalg import splu

from .errors import DissipativityGateFailed, GridMismatchError, ParameterError, \
    SimulationDiverged
from .saturation import SaturationMap, _sat_values
from .spaces import Grid, StateVector

#: gate threshold is this factor times the spectral norm of the operator;
#: eigen-solver noise scales with ||A||.
DISSIPATIVITY_TOLERANCE_FACTOR = 1e-8


def _band_eigenvalue(lower_diagonals, index: int) -> float:
    """Eigenvalue number ``index`` (ascending; -1 is the largest) of the
    symmetric matrix whose main and lower diagonals are ``lower_diagonals``
    (main first), by banded LAPACK on its narrowest lower band form: the
    trailing all-zero diagonals are dropped."""
    n = len(lower_diagonals[0])
    width = len(lower_diagonals)
    while width > 1 and not np.any(lower_diagonals[width - 1]):
        width -= 1
    band = np.zeros((width, n))
    for k, diagonal in enumerate(lower_diagonals[:width]):
        band[k, :n - k] = diagonal
    i = index % n
    return float(eigvals_banded(band, lower=True, select="i", select_range=(i, i))[0])


class LinearOperator:
    """A linear operator on grid functions, held as its band.

    The band, the diagonals at offsets -p..p with p the bandwidth, is the
    operator's data: ``bandwidth``, ``csc`` and the spectral values read
    it.  ``from_band`` takes the diagonals as they are.  A dense matrix (a
    test fixture, a weight P) is kept as it is, and its band is found by
    one scan; a general dense matrix is a band of full width and takes the
    same route.  The dense ``matrix`` of an operator built from its band is
    filled once, on first read.  Spectral values are computed on first use.
    Operators are immutable.
    """

    def __init__(self, grid: Grid, matrix):
        # a read-only float64 array that owns its data is taken as it is;
        # anything else is copied, so a caller's array cannot change A later
        m = matrix
        if not (isinstance(m, np.ndarray) and m.dtype == np.float64
                and m.flags.owndata and not m.flags.writeable):
            m = np.array(m, dtype=float)
            m.setflags(write=False)
        n = grid.n_interior
        if m.shape != (n, n):
            raise GridMismatchError(
                "operator is %r but the grid has %d interior nodes" % (m.shape, n))
        object.__setattr__(self, "grid", grid)
        self.__dict__["matrix"] = m

    @classmethod
    def from_band(cls, grid: Grid, diagonals) -> LinearOperator:
        """The operator whose diagonals at offsets -p..p are ``diagonals``
        (2p + 1 of them; the one at offset k has n - |k| entries)."""
        n = grid.n_interior
        p = (len(diagonals) - 1) // 2
        band = tuple(np.array(d, dtype=float) for d in diagonals)
        if len(band) % 2 != 1 or p >= n or any(
                d.shape != (n - abs(k),) for k, d in zip(range(-p, p + 1), band)):
            raise GridMismatchError("a band of %d diagonals does not fit a grid of %d "
                                    "interior nodes" % (len(band), n))
        for d in band:
            d.setflags(write=False)
        op = cls.__new__(cls)
        object.__setattr__(op, "grid", grid)
        op.__dict__["band"] = band
        return op

    def __setattr__(self, name, value):
        raise AttributeError("LinearOperator is immutable")

    @cached_property
    def band(self) -> tuple:
        """Read-only diagonals at offsets -p..p, p = ``bandwidth``.  For a
        dense matrix, p is the largest |i - j| over its nonzero entries (0
        for a zero matrix)."""
        m = self.matrix
        nonzero = m != 0
        n = len(nonzero)
        rows = np.arange(n)
        first = nonzero.argmax(axis=1)
        last = n - 1 - nonzero[:, ::-1].argmax(axis=1)
        reach = np.maximum(rows - first, last - rows)
        p = int(np.max(reach, where=nonzero[rows, first], initial=0))
        return tuple(np.diagonal(m, k) for k in range(-p, p + 1))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, zero outside the band; read-only, owns its data."""
        n, p = self.grid.n_interior, self.bandwidth
        m = np.zeros((n, n))
        for k, diagonal in zip(range(-p, p + 1), self.band):
            np.fill_diagonal(m[max(-k, 0):, max(k, 0):], diagonal)
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

    def symmetric_eigenvalue(self, index: int) -> float:
        """Eigenvalue number ``index`` (ascending; -1 is the largest) of the
        symmetric part (A + A^T) / 2."""
        band, p = self.band, self.bandwidth
        return _band_eigenvalue([0.5 * band[p - k] + 0.5 * band[p + k]
                                 for k in range(p + 1)], index)

    @cached_property
    def max_symmetric_eigenvalue(self) -> float:
        """lambda_max of the symmetric part: the value the dissipativity gate
        and the decay constant read."""
        return self.symmetric_eigenvalue(-1)

    @cached_property
    def spectral_norm(self) -> float:
        """||A||_2 = s sqrt(lambda_max((A/s)^T (A/s))) with s = max |a_ij|.

        The Gram matrix has twice the bandwidth of A; the scaling keeps it
        finite for stencil entries near the top of the double range."""
        s = float(np.max(np.abs(self.csc.data), initial=0.0))
        if s == 0.0:
            return 0.0
        scaled = self.csc / s
        gram = (scaled.T @ scaled).tocsr()
        width = min(2 * self.bandwidth, self.grid.n_interior - 1)
        lam = _band_eigenvalue([gram.diagonal(-k) for k in range(width + 1)], -1)
        return s * math.sqrt(lam)

    def apply(self, z: StateVector) -> StateVector:
        if z.grid != self.grid:
            raise GridMismatchError("operator and state live on different grids")
        return StateVector(self.grid, self.matrix @ z.values)


def dissipativity_tolerance(op: LinearOperator) -> float:
    return DISSIPATIVITY_TOLERANCE_FACTOR * op.spectral_norm


def dissipativity_gate(op: LinearOperator) -> LinearOperator:
    """``op`` itself if lambda_max(sym A) is within the gate tolerance;
    raises DissipativityGateFailed otherwise.

    The tolerance 1e-8 ||A||_2 is never negative, so lambda_max <= 0 passes
    whatever it is; ||A||_2 is computed only when lambda_max > 0.
    """
    lam = op.max_symmetric_eigenvalue
    if lam > 0.0:
        tol = dissipativity_tolerance(op)
        if lam > tol:
            raise DissipativityGateFailed(lam, tol)
    return op


def build_kdv_operator(grid: Grid) -> LinearOperator:
    """Assemble A z = -z' - z''' with the wall conditions encoded in the stencil.

    First derivative: backward (upwind) difference (z_j - z_{j-1}) / h.
    Third derivative: five-point centered stencil
    (-z_{j-2} + 2 z_{j-1} - 2 z_{j+1} + z_{j+2}) / (2 h^3).
    Node values left of the domain and at both walls are zero (Dirichlet);
    the right condition z_x(L) = 0 enters through the reflected ghost
    z_{n+2} := z_n, which folds one entry onto the last diagonal element.
    The five diagonals are assembled directly as the operator's band.

    The upwind part has positive-definite symmetric part and the centered
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
    # so that A is no longer the upwind discretisation
    sub = c1 - 2.0 * c3
    if abs((sub + 2.0 * c3) - c1) > 1e-6 * c1:
        raise ParameterError("grid spacing h = %g is too fine: c1 - 2 c3 = 1/h - 1/h^3 "
                             "no longer carries the upwind term 1/h" % h)
    main = np.full(n, -c1)
    main[-1] += -c3  # reflected ghost z_{n+2} = z_n
    band = (np.full(n - 2, c3), np.full(n - 1, sub), main,
            np.full(n - 1, 2.0 * c3), np.full(n - 2, -c3))
    return dissipativity_gate(LinearOperator.from_band(grid, band))


def linear_loop_operator(A: LinearOperator) -> LinearOperator:
    """Generator A - B B* of the unsaturated feedback loop (B = identity):
    A's band with its main diagonal shifted by -1."""
    band, p = list(A.band), A.bandwidth
    band[p] = band[p] - 1.0
    return LinearOperator.from_band(A.grid, band)


@dataclass(frozen=True, eq=False)
class DisturbanceSignal:
    """Disturbance d(t) entering the actuator, valued in grid functions.

    Without ``func`` it is the uniform cosine amplitude * cos(frequency * t),
    and (0, 0) is the zero disturbance.  With ``func`` it is func(t): a
    scalar, taken as uniform, or the values at the interior nodes.
    """

    amplitude: float = 0.0
    frequency: float = 0.0
    func: object = None

    def values_at(self, t: float, grid: Grid) -> np.ndarray:
        n = grid.n_interior
        if self.func is None:
            return np.full(n, self.amplitude * math.cos(self.frequency * t))
        out = np.asarray(self.func(t), dtype=float)
        if out.ndim == 0:
            return np.full(n, float(out))
        if out.shape != (n,):
            raise GridMismatchError("disturbance returned shape %r on a grid of %d "
                                    "interior nodes" % (out.shape, n))
        return out


def zero_disturbance() -> DisturbanceSignal:
    return DisturbanceSignal()


def cosine_disturbance(amplitude: float, frequency: float = 1.0) -> DisturbanceSignal:
    return DisturbanceSignal(amplitude=amplitude, frequency=frequency)


def table_disturbance(times, states) -> DisturbanceSignal:
    """Tabulated disturbance; ``states`` may be StateVectors or raw value rows.

    Entries are interpolated linearly in t (clamped at the ends) so the
    half-step samples of the integrator see a continuous signal.
    """
    t_tab = np.array(times, dtype=float)
    rows = np.array([s.values if isinstance(s, StateVector) else s for s in states],
                    dtype=float)
    if t_tab.ndim != 1 or len(t_tab) != len(rows) or len(t_tab) < 1:
        raise ParameterError("table needs matching, nonempty times and states")
    if np.any(np.diff(t_tab) <= 0):
        raise ParameterError("table times must be strictly increasing")
    rows.setflags(write=False)

    def interpolate(t):
        if t <= t_tab[0]:
            return rows[0]
        if t >= t_tab[-1]:
            return rows[-1]
        i = int(np.searchsorted(t_tab, t, side="right")) - 1
        w = (t - t_tab[i]) / (t_tab[i + 1] - t_tab[i])
        return (1.0 - w) * rows[i] + w * rows[i + 1]
    return DisturbanceSignal(func=interpolate)


def custom_disturbance(func) -> DisturbanceSignal:
    return DisturbanceSignal(func=func)


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

    def feedback_values(self, values: np.ndarray, t: float) -> np.ndarray:
        """sigma(B* z + d(t)); the applied input is the negative of this."""
        return _feedback(self.sigma, values + self.d.values_at(t, self.A.grid),
                         self.A.grid.spacing_h)

    def rhs_values(self, values: np.ndarray, t: float) -> np.ndarray:
        return self.A.matrix @ values - self.feedback_values(values, t)


def _feedback(sigma: SaturationMap, arg: np.ndarray, h: float) -> np.ndarray:
    """sigma(arg) for a state or a block; sigma = None is the identity."""
    return arg if sigma is None else _sat_values(sigma.kind, arg, sigma.level, h)


def assemble_closed_loop(A: LinearOperator, sigma: SaturationMap,
                         d: DisturbanceSignal = None) -> SaturatedSystem:
    if d is None:
        d = zero_disturbance()
    return SaturatedSystem(A=A, sigma=sigma, d=d)


def with_disturbance(sys: SaturatedSystem, d: DisturbanceSignal) -> SaturatedSystem:
    return replace(sys, d=d)


class _ImexStepper:
    """One-step map: Crank-Nicolson on A, explicit midpoint on the feedback.

    (I - dt/2 A) z+ = (I + dt/2 A) z - dt sigma(B* zhat + d(t + dt/2)),
    zhat = z + dt/2 (A z - sigma(B* z + d(t))).

    It advances an (n, m) block of members, one column each, that share A
    and sigma and differ in d.  Blocks are column-major, so every member's
    column is contiguous and its reductions (``np.vecdot`` over axis 0) are
    the BLAS dot that ``np.dot`` applies to a single state; a batch of one
    reproduces the single-state arithmetic bit for bit.  The half-step
    system matrix is LU-factored once per (A, dt) and one solve covers all
    m columns.
    """

    def __init__(self, systems, dt: float):
        sys0 = systems[0]
        if not dt > 0:
            raise ParameterError("dt must be positive")
        if dt * sys0.feedback_lipschitz >= 1.0:
            raise ParameterError(
                "dt * k = %g >= 1: explicit feedback term needs a smaller step"
                % (dt * sys0.feedback_lipschitz))
        self.dt = dt
        self.grid = sys0.A.grid
        self._a_transposed = sys0.A.matrix.T
        self._sigma = sys0.sigma
        # cosine members as (m,) amplitude/frequency vectors; members with
        # a func are filled per column
        ds = [s.d for s in systems]
        self._amplitude = np.array([d.amplitude for d in ds])
        self._frequency = np.array([d.frequency for d in ds])
        self._tabulated = [(j, d) for j, d in enumerate(ds) if d.func is not None]
        n = self.grid.n_interior
        m = sparse.identity(n, format="csc") - (dt / 2.0) * sys0.A.csc
        try:
            self._solve = splu(m).solve
        except RuntimeError as exc:
            raise ParameterError("half-step system is singular: %s" % exc)

    def disturbance(self, t: float) -> np.ndarray:
        """d(t) of every member as an (n, m) block."""
        out = np.empty((self.grid.n_interior, len(self._amplitude)), order="F")
        out[:] = self._amplitude * np.cos(self._frequency * t)
        for j, d in self._tabulated:
            out[:, j] = d.values_at(t, self.grid)
        return out

    def products(self, z: np.ndarray, t: float):
        """(A z, sigma(B* z + d(t)), d(t)) for a block z at time t."""
        d = self.disturbance(t)
        # (z^T A^T)^T keeps the block column-major; for m = 1 it is the
        # same BLAS gemv as A @ z
        az = (z.T @ self._a_transposed).T
        return az, _feedback(self._sigma, z + d, self.grid.spacing_h), d

    def advance(self, z: np.ndarray, t: float, az: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The block at t + dt, from z and its products az = A z and
        u = sigma(B* z + d(t))."""
        dt = self.dt
        zhat = z + 0.5 * dt * (az - u)
        um = _feedback(self._sigma, zhat + self.disturbance(t + 0.5 * dt),
                       self.grid.spacing_h)
        return self._solve(z + 0.5 * dt * az - dt * um)


def step(sys: SaturatedSystem, z: StateVector, t: float, dt: float) -> StateVector:
    """Advance one IMEX step from (z, t) to t + dt."""
    if z.grid != sys.A.grid:
        raise GridMismatchError("state and system live on different grids")
    stepper = _ImexStepper([sys], dt)
    block = z.values[:, None]
    az, u, _ = stepper.products(block, t)
    return StateVector(z.grid, stepper.advance(block, t, az, u)[:, 0])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time series of states with per-step norm and Lyapunov observables."""

    grid: Grid
    times: np.ndarray
    states: np.ndarray  # row i is the state at times[i]; None when not kept
    observables: dict

    OBSERVABLE_COLUMNS = ("norm_l2", "norm_linf", "norm_graph",
                          "V", "V1", "V2", "norm_u", "norm_d")

    def __len__(self):
        return len(self.times)

    def write_observables_csv(self, path):
        cols = self.OBSERVABLE_COLUMNS
        _write_csv(path, ("t",) + cols,
                   [self.times] + [self.observables[c] for c in cols])

    def write_states_csv(self, path):
        n = self.grid.n_interior
        _write_csv(path, ["t"] + ["z%d" % j for j in range(1, n + 1)],
                   [self.times, self.states])


#: Rows formatted per batch by ``_write_csv``.  A batch's Python floats and
#: strings stay near 0.4 MB at 128 columns; batches of 512 rows raised the
#: peak RSS of ``satiss figure1`` from 82 to 89 MB.
_CSV_BATCH = 64


def _write_csv(path, header, columns):
    """Write equal-length columns (1-D, or 2-D for several) under a header,
    every value as %.17g, which reads back bit for bit."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_BATCH):
            block = np.column_stack([c[start:start + _CSV_BATCH] for c in columns])
            fh.write("".join(row % tuple(r) for r in block.tolist()))


@np.errstate(over="ignore", invalid="ignore")
def _sums_of_squares(blocks, out):
    """out[k] = the column sums of squares of blocks[k].  A sum that
    overflows stays non-finite, without a warning: ``simulate`` checks the
    recorded sums after its loop and reports them as a divergence."""
    for k, block in enumerate(blocks):
        np.vecdot(block, block, axis=0, out=out[k])


def simulate(sys, z0, T: float, dt: float, observers: dict = None,
             keep_states: bool = True):
    """Integrate the closed loop over [0, T] and record observables per step.

    ``sys`` and ``z0`` are one system and one initial state, giving one
    Trajectory, or equal-length lists of them, giving one Trajectory per
    member; the listed systems must share ``A`` and ``sigma`` and may differ
    in ``d``.  All members advance together as one block.  ``observers`` may
    supply callables ``{"V": f, "V1": g, "V2": h}`` mapping a StateVector to
    a float, applied to every member; without them V defaults to ||z||^2
    (identity weight) and V1, V2 are recorded as NaN.  With
    ``keep_states=False`` the state history is not stored and
    ``Trajectory.states`` is None.  A non-finite recorded state or norm
    raises SimulationDiverged.
    """
    batch = isinstance(sys, (list, tuple))
    systems = list(sys) if batch else [sys]
    z0s = list(z0) if batch else [z0]
    if not systems or len(systems) != len(z0s):
        raise ParameterError("systems and initial states must be nonempty lists "
                             "of equal length")
    if not T > 0:
        raise ParameterError("horizon T must be positive")
    if not 0 < dt <= T:
        raise ParameterError("dt must lie in (0, T]")
    sys0 = systems[0]
    if any(s.A is not sys0.A or s.sigma != sys0.sigma for s in systems):
        raise ParameterError("batched systems must share A and sigma")
    grid = sys0.A.grid
    if any(z0_j.grid != grid for z0_j in z0s):
        raise GridMismatchError("initial state and system live on different grids")
    h = grid.spacing_h
    observers = observers or {}
    custom = [(c, observers[c]) for c in ("V", "V1", "V2") if c in observers]

    n_steps = max(1, int(math.ceil(T / dt - 1e-9)))
    last_dt = T - (n_steps - 1) * dt
    stepper = _ImexStepper(systems, dt)
    same_last = abs(last_dt - dt) <= 1e-12 * dt
    stepper_last = stepper if same_last else _ImexStepper(systems, last_dt)

    m = len(systems)
    times = np.empty(n_steps + 1)
    states = np.empty((m, n_steps + 1, grid.n_interior)) if keep_states else None
    # per member and step: max |z| and the sums of squares of z, A z,
    # u = sigma(B* z + d) and d, all read from the step's own products
    linf = np.empty((m, n_steps + 1))
    squares = np.empty((4, m, n_steps + 1))
    custom_obs = {c: np.empty((m, n_steps + 1)) for c, _ in custom}

    z = np.array([z0_j.values for z0_j in z0s]).T  # column-major (n, m) block
    t = 0.0
    for i in range(n_steps + 1):
        az, u, d = stepper.products(z, t)
        np.abs(z).max(axis=0, out=linf[:, i])
        if not math.isfinite(linf[:, i].max()):
            raise SimulationDiverged(i, int(np.argmin(np.isfinite(linf[:, i]))))
        times[i] = t
        if keep_states:
            states[:, i] = z.T
        _sums_of_squares((z, az, u, d), squares[:, :, i])
        if custom:
            for j in range(m):
                zj = StateVector(grid, z[:, j])
                for c, f in custom:
                    custom_obs[c][j, i] = f(zj)
        if i < n_steps - 1:
            z = stepper.advance(z, t, az, u)
            t = (i + 1) * dt
        elif i == n_steps - 1:
            z = stepper_last.advance(z, t, az, u)
            t = T
    times.setflags(write=False)
    if keep_states:
        states.setflags(write=False)
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
           "V": nrm2, "V1": np.full((m, n_steps + 1), math.nan),
           "V2": np.full((m, n_steps + 1), math.nan),
           "norm_u": norm_u, "norm_d": norm_d}
    obs.update(custom_obs)
    trajectories = [
        Trajectory(grid=grid, times=times,
                   states=states[j] if keep_states else None,
                   observables={c: obs[c][j] for c in Trajectory.OBSERVABLE_COLUMNS})
        for j in range(m)]
    return trajectories if batch else trajectories[0]
