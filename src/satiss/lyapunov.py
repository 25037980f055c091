"""Lyapunov functions for the saturated loop and per-trajectory decrease reports.

The weight is the identity and the feedback is B = I, so ||P|| = ||B*|| = 1
and three functions are closed forms of the norms ``simulate`` records:

* V(z)  = ||z||^2, certifying the unsaturated loop;
* V1(z) = V(z) + (2 M / 3) ||z||^3, used when the saturation acts in the
  state space itself (its constants absorb the saturation defect there);
* V2(z) = V(z) + M~ r ||z||^2, used when the saturation is bounded only in
  an embedded sup-norm space, for initial data of graph norm at most r.

``simulate`` records V; the functions of ``trajectory_observers`` give the
V1 and V2 series of a recorded trajectory.

The decrease constant C is always measured from the assembled loop
generator, never assumed: C = -2 * lambda_max(sym(A - B B*)).  Every
downstream inequality then refers to the operator actually integrated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleParameters, ParameterError
from .spaces import Grid, StateVector, norm_graph, norm_linf, random_smooth_values
from .system import LinearOperator, Trajectory, _write_csv, build_kdv_operator


@dataclass(frozen=True, eq=False)
class LyapunovParams:
    """Constants entering V1, V2 and their decrease inequalities.

    Unused constants may stay None; ``trajectory_observers`` gives only the
    series whose constants are set.
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


def measure_decay_constant(loop_operator: LinearOperator) -> float:
    """Sharp decrease constant of the quadratic form along the linear loop:
    2 <A~ z, z> <= -C ||z||^2 with C = -2 lambda_max(sym A~)."""
    return -2.0 * loop_operator.max_symmetric_eigenvalue


def select_params_case1(C: float, C0: float, k: float, safety: float = 0.5):
    """Constants (M, eps1, eps2) for the cubic-augmented function.

    M is the minimal admissible value 2 ||B*|| ||P|| = 2; eps1 and eps2
    split the decrease budget evenly so that

        2 M C0 / eps2 + ||B*||^2 ||P||^2 / eps1 = safety * C,

    leaving a decrease coefficient of at least (1 - safety) * C.
    """
    if not C > 0:
        raise InfeasibleParameters("measured decrease constant C = %g is not positive" % C)
    if not (C0 > 0 and k > 0):
        raise ParameterError("C0 and k must be positive")
    if not 0.0 < safety < 1.0:
        raise ParameterError("safety must lie in (0, 1)")
    M = 2.0
    eps2 = 4.0 * M * C0 / (safety * C)
    eps1 = 2.0 / (safety * C)
    # re-check the budget inequality on the way out
    budget = 2.0 * M * C0 / eps2 + 1.0 / eps1
    if budget > C * (1.0 + 1e-12):
        raise InfeasibleParameters("constraint budget %g exceeds C = %g" % (budget, C))
    return M, eps1, eps2


def case1_decrease_coeff(C: float, M: float, eps1: float, eps2: float, C0: float,
                         keep_C0: bool = True) -> float:
    """Decrease coefficient C - 2 M C0 / eps2 - ||B*||^2 ||P||^2 / eps1, that
    is C - 2 M C0 / eps2 - 1 / eps1.

    ``keep_C0=False`` drops the C0 factor from the eps2 term; both variants
    are reported by the drivers and only the conservative one (the smaller
    coefficient for C0 >= 1) is ever asserted.
    """
    shift = 2.0 * M * C0 / eps2 if keep_C0 else 2.0 * M / eps2
    return C - shift - 1.0 / eps1


def case1_iss_gain(M: float, eps1: float, eps2: float, C0: float, k: float) -> float:
    """Disturbance gain C0 * 2 M * eps2 + k^2 * eps1 paired with the decrease."""
    return C0 * 2.0 * M * eps2 + k**2 * eps1


def select_param_case2(c_S: float, margin: float) -> float:
    """Constant M~ = margin * 2 * c_S * ||P|| = margin * 2 * c_S for the
    quadratic-augmented function; ``margin`` must exceed 1 to keep the
    inequality strict."""
    if not c_S > 0:
        raise ParameterError("c_S must be positive")
    if not margin > 1.0:
        raise ParameterError("margin must be > 1 to satisfy the strict bound")
    return margin * 2.0 * c_S


def case2_decay_rate(C: float, M_tilde: float, r: float) -> float:
    """Certified rate mu = C / (||P|| + M~ r) = C / (1 + M~ r) of the
    quadratic-augmented function."""
    if not (C > 0 and M_tilde > 0 and r > 0):
        raise ParameterError("all constants must be positive")
    return C / (1.0 + M_tilde * r)


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


def case1_params(C: float, sigma, safety: float = 0.5) -> LyapunovParams:
    """Bundle measured C with a saturation map's constants into filled params.

    Raises ``ParameterError`` naming the first of M, eps1, eps2, the decrease
    coefficient alpha and the gain rho that is not a finite double: a huge
    saturation level can overflow them, and a report built on them would
    certify nothing.
    """
    C0, k = sigma.item5_C0, sigma.lipschitz_k
    M, eps1, eps2 = select_params_case1(C, C0, k, safety)
    constants = (("M", M), ("eps1", eps1), ("eps2", eps2),
                 ("alpha", case1_decrease_coeff(C, M, eps1, eps2, C0)),
                 ("rho", case1_iss_gain(M, eps1, eps2, C0, k)))
    for name, value in constants:
        if not math.isfinite(value):
            raise ParameterError("case-1 constant %s = %r is not finite (saturation "
                                 "C0 = %g, k = %g)" % (name, value, C0, k))
    return LyapunovParams(C=C, k=k, C0=C0, M=M, eps1=eps1, eps2=eps2)


def case2_params(C: float, c_S: float, r: float, margin: float = 1.1) -> LyapunovParams:
    M_tilde = select_param_case2(c_S, margin)
    return LyapunovParams(C=C, M_tilde=M_tilde, r=r, c_S=c_S)


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
        _write_csv(path, ("t", "V", "dVdt", "bound", "margin"),
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
    V = traj.observables[which]
    if np.isnan(V).any():
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
