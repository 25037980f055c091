"""Lyapunov functions for the saturated loop and per-trajectory decrease reports.

The weight is the identity and the feedback is B = I, so ||P|| = ||B*|| = 1
and three functions are closed forms of the norms ``simulate`` records:

* V(z)  = ||z||^2, certifying the unsaturated loop;
* V1(z) = V(z) + (2 M / 3) ||z||^3, used when the saturation acts in the
  state space itself (its constants absorb the saturation defect there);
* V2(z) = V(z) + M~ r ||z||^2, used when the saturation is bounded only in
  an embedded sup-norm space, for initial data of graph norm at most r.

``simulate`` records V; the functions of ``trajectory_observers`` give the
V1 and V2 series of a recorded trajectory.  ``case1_params`` and
``case2_params`` choose the constants of V1 and V2, and the coefficients of
their decrease inequalities (alpha and rho of V1, the rate mu of V2) are
read-only properties of the ``LyapunovParams`` they return.

The decrease constant C is always measured from the assembled loop
generator, never assumed: C = -2 * lambda_max(sym(A - B B*)).  Every
downstream inequality then refers to the operator actually integrated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .errors import InfeasibleParameters, ParameterError
from .spaces import Grid, StateVector, norm_graph, norm_linf, random_smooth_values
from .system import LinearOperator, Trajectory, build_kdv_operator


@dataclass(frozen=True, eq=False)
class LyapunovParams:
    """Constants entering V1, V2 and their decrease inequalities.

    ``case1_params`` fills the V1 constants and ``case2_params`` the V2
    ones; unused constants stay None, and ``trajectory_observers`` gives
    only the series whose constants are set.  The coefficients derived from
    them are read-only properties.
    """

    C: float = None
    k: float = None
    C0: float = None
    M: float = None
    eps1: float = None
    eps2: float = None
    M_tilde: float = None
    r: float = None
    c_S: float = None

    @property
    def alpha(self) -> float:
        """Case-1 decrease coefficient of V1:
        C - 2 M C0 / eps2 - ||B*||^2 ||P||^2 / eps1 = C - 2 M C0 / eps2 - 1 / eps1."""
        return self.C - 2.0 * self.M * self.C0 / self.eps2 - 1.0 / self.eps1

    @property
    def rho(self) -> float:
        """Case-1 disturbance gain C0 * 2 M * eps2 + k^2 * eps1 paired with
        ``alpha``."""
        return self.C0 * 2.0 * self.M * self.eps2 + self.k**2 * self.eps1

    @property
    def mu(self) -> float:
        """Case-2 certified rate C / (||P|| + M~ r) = C / (1 + M~ r) of V2."""
        return self.C / (1.0 + self.M_tilde * self.r)


def measure_decay_constant(loop_operator: LinearOperator) -> float:
    """Sharp decrease constant of the quadratic form along the linear loop:
    2 <A~ z, z> <= -C ||z||^2 with C = -2 lambda_max(sym A~)."""
    return -2.0 * loop_operator.max_symmetric_eigenvalue


def estimate_embedding_constant(grid: Grid, n_samples: int = 400,
                                rng_seed: int = 0) -> float:
    """Empirical sup of ||z||_sup / (||z|| + ||A z||) over smooth random states.

    Alternating samples carry the wall-flattening envelope; enveloped
    profiles keep the discrete graph norm consistent under refinement, so
    the sup is grid-stable, while the raw profiles guard the estimate
    against a single-family bias.
    """
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    A = build_kdv_operator(grid)
    best = 0.0
    for i in range(n_samples):
        rng = np.random.default_rng((rng_seed, i))
        v = random_smooth_values(grid, rng, envelope=(i % 2 == 0))
        if not np.any(v):
            continue
        z = StateVector(grid, v)
        g = norm_graph(z, A)
        if g > 0:
            best = max(best, norm_linf(z) / g)
    return best


#: share of C that the case-1 constraint terms spend; the rest is alpha
CASE1_SHARE = 0.5


def case1_params(C: float, sigma) -> LyapunovParams:
    """Case-1 constants from the measured C and a saturation map's C0 and k.

    M is the minimal admissible value 2 ||B*|| ||P|| = 2; eps1 and eps2
    split the decrease budget evenly so that

        2 M C0 / eps2 + ||B*||^2 ||P||^2 / eps1 = CASE1_SHARE * C,

    leaving a decrease coefficient ``alpha`` of (1 - CASE1_SHARE) * C.
    Raises ``InfeasibleParameters`` when C is not positive, and
    ``ParameterError`` naming the first of M, eps1, eps2, alpha and rho that
    is not a finite double: a huge saturation level can overflow them, and
    a report built on them would certify nothing.
    """
    if not C > 0:
        raise InfeasibleParameters("measured decrease constant C = %g is not positive" % C)
    C0, k = sigma.item5_C0, sigma.lipschitz_k
    M = 2.0
    params = LyapunovParams(C=C, k=k, C0=C0, M=M, eps1=2.0 / (CASE1_SHARE * C),
                            eps2=4.0 * M * C0 / (CASE1_SHARE * C))
    for name in ("M", "eps1", "eps2", "alpha", "rho"):
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ParameterError("case-1 constant %s = %r is not finite (saturation "
                                 "C0 = %g, k = %g)" % (name, value, C0, k))
    return params


#: M~ = CASE2_MARGIN * 2 c_S ||P||; a margin above 1 keeps the case-2
#: inequality M~ > 2 c_S ||P|| strict
CASE2_MARGIN = 1.1


def case2_params(C: float, c_S: float, r: float) -> LyapunovParams:
    """Case-2 constants for initial data of graph norm at most r, with
    M~ = CASE2_MARGIN * 2 * c_S from the embedding constant c_S."""
    if not (C > 0 and c_S > 0 and r > 0):
        raise ParameterError("C, c_S and r must be positive")
    return LyapunovParams(C=C, M_tilde=CASE2_MARGIN * 2.0 * c_S, r=r, c_S=c_S)


def _augmented_series(traj: Trajectory, coeff: float, power: int) -> np.ndarray:
    """V + coeff ||z||^power at every recorded step.  Each power is a Python
    float power: numpy's vector power differs from it in the last bit on
    some values."""
    V, norms = traj.observables["V"].tolist(), traj.observables["norm_l2"].tolist()
    return np.array([v + coeff * x ** power for v, x in zip(V, norms)])


def trajectory_observers(params: LyapunovParams) -> dict:
    """``{"V1": f, "V2": g}``, each a function of a recorded Trajectory giving
    that whole series; a series whose constants are unset is left out.  The
    caller stores the series in ``Trajectory.observables``."""
    obs = {}
    if params.M is not None:
        obs["V1"] = lambda traj: _augmented_series(traj, 2.0 * params.M / 3.0, 3)
    if params.M_tilde is not None and params.r is not None:
        obs["V2"] = lambda traj: _augmented_series(traj, params.M_tilde * params.r, 2)
    return obs


@dataclass(frozen=True, eq=False)
class DissipationReport:
    """Numeric d/dt of a Lyapunov series against -alpha ||z||^2 + rho ||d||^2."""

    times: np.ndarray
    V: np.ndarray
    dVdt: np.ndarray
    bound: np.ndarray
    margin: np.ndarray
    violation_count: int
    worst_margin: float

    def write_csv(self, path):
        write_csv(path, ("t", "V", "dVdt", "bound", "margin"),
                  [self.times, self.V, self.dVdt, self.bound, self.margin])


def dissipation_report(traj: Trajectory, which: str, alpha_coeff: float,
                       rho_gain: float) -> DissipationReport:
    """Check dV/dt <= -alpha ||z||^2 + rho ||d||^2 along a recorded trajectory.

    The series ``which`` ('V', 'V1' or 'V2') is read from the trajectory:
    V as ``simulate`` recorded it, V1 and V2 as the functions of
    ``trajectory_observers`` filled them in; dV/dt comes
    from centered differences (one-sided at the ends).  A step counts as a
    violation when it exceeds the bound by more than 1e-6 * (1 + |V|) / dt,
    the scale of the differencing error.
    """
    if len(traj) < 3:
        raise ParameterError("dissipation report needs at least 3 recorded steps")
    if which not in ("V", "V1", "V2"):
        raise ParameterError("which must be one of 'V', 'V1', 'V2'")
    V = traj.observables.get(which)
    if V is None:
        raise ParameterError("the %s series was not recorded: store the series "
                             "of trajectory_observers in the trajectory's "
                             "observables" % which)
    dVdt = np.gradient(V, traj.times)
    norms = traj.observables["norm_l2"]
    dnorms = traj.observables["norm_d"]
    bound = -alpha_coeff * norms**2 + rho_gain * dnorms**2
    margin = bound - dVdt
    steps = np.gradient(traj.times)
    tol = 1e-6 * (1.0 + np.abs(V)) / steps
    violations = int(np.sum(dVdt > bound + tol))
    return DissipationReport(times=traj.times, V=V, dVdt=dVdt, bound=bound,
                             margin=margin, violation_count=violations,
                             worst_margin=float(np.min(margin)))
