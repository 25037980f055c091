"""Lyapunov functions for the saturated loop and per-trajectory decrease reports.

Three functions are evaluated along trajectories:

* V(z)  = <P z, z>, the quadratic form certifying the unsaturated loop;
* V1(z) = V(z) + (2 M / 3) ||z||^3, used when the saturation acts in the
  state space itself (its constants absorb the saturation defect there);
* V2(z) = V(z) + M~ r ||z||^2, used when the saturation is bounded only in
  an embedded sup-norm space, for initial data of graph norm at most r.

The decrease constant C is always measured from the assembled loop
generator, never assumed: C = -2 * lambda_max(sym(A - B B*)).  Every
downstream inequality then refers to the operator actually integrated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleParameters, ParameterError
from .spaces import Grid, StateVector, inner_l2, norm_graph, norm_l2, norm_linf, \
    random_smooth_values
from .system import LinearOperator, Trajectory, _write_csv, build_kdv_operator


@dataclass(frozen=True, eq=False)
class LyapunovParams:
    """Constants entering V, V1, V2 and their decrease inequalities.

    ``P`` may be None for the identity weight.  Unused constants may stay
    None; evaluating a function whose constants are unset raises.
    """

    P: LinearOperator = None
    C: float = None
    norm_B: float = 1.0
    k: float = None
    C0: float = None
    M: float = None
    eps1: float = None
    eps2: float = None
    M_tilde: float = None
    r: float = None
    c_S: float = None

    def __post_init__(self):
        if self.P is not None:
            m = self.P.matrix
            scale = max(float(np.max(np.abs(m))), 1.0)
            if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
                raise ParameterError("weight operator P must be symmetric")
            if self.P.symmetric_eigenvalue(0) <= 0.0:
                raise ParameterError("weight operator P must be positive definite")


def v_quadratic(P: LinearOperator, z: StateVector) -> float:
    """<P z, z>; P = None means the identity weight."""
    if P is None:
        return inner_l2(z, z)
    return inner_l2(P.apply(z), z)


def v1(params: LyapunovParams, z: StateVector) -> float:
    """Cubic-augmented function <P z, z> + (2 M / 3) ||z||^3."""
    if params.M is None:
        raise ParameterError("v1 needs the constant M")
    return v_quadratic(params.P, z) + (2.0 * params.M / 3.0) * norm_l2(z) ** 3


def v2(params: LyapunovParams, z: StateVector) -> float:
    """Quadratic-augmented function <P z, z> + M~ r ||z||^2."""
    if params.M_tilde is None or params.r is None:
        raise ParameterError("v2 needs the constants M_tilde and r")
    return v_quadratic(params.P, z) + params.M_tilde * params.r * norm_l2(z) ** 2


def measure_decay_constant(loop_operator: LinearOperator) -> float:
    """Sharp decrease constant of the quadratic form along the linear loop:
    2 <A~ z, z> <= -C ||z||^2 with C = -2 lambda_max(sym A~)."""
    return -2.0 * loop_operator.max_symmetric_eigenvalue


def select_params_case1(C: float, norm_B: float, norm_P: float, C0: float,
                        k: float, safety: float = 0.5):
    """Constants (M, eps1, eps2) for the cubic-augmented function.

    M is the minimal admissible value 2 ||B*|| ||P||; eps1 and eps2 split the
    decrease budget evenly so that

        2 M C0 / eps2 + ||B*||^2 ||P||^2 / eps1 = safety * C,

    leaving a decrease coefficient of at least (1 - safety) * C.
    """
    if not C > 0:
        raise InfeasibleParameters("measured decrease constant C = %g is not positive" % C)
    if not (norm_B > 0 and norm_P > 0 and C0 > 0 and k > 0):
        raise ParameterError("norm_B, norm_P, C0 and k must be positive")
    if not 0.0 < safety < 1.0:
        raise ParameterError("safety must lie in (0, 1)")
    M = 2.0 * norm_B * norm_P
    eps2 = 4.0 * M * C0 / (safety * C)
    eps1 = 2.0 * (norm_B * norm_P) ** 2 / (safety * C)
    # re-check the two admissibility inequalities on the way out
    if M < 2.0 * norm_B * norm_P * (1.0 - 1e-12):
        raise InfeasibleParameters("M fell below its admissible floor")
    budget = 2.0 * M * C0 / eps2 + (norm_B * norm_P) ** 2 / eps1
    if budget > C * (1.0 + 1e-12):
        raise InfeasibleParameters("constraint budget %g exceeds C = %g" % (budget, C))
    return M, eps1, eps2


def case1_decrease_coeff(C: float, M: float, eps1: float, eps2: float,
                         norm_B: float, norm_P: float, C0: float,
                         keep_C0: bool = True) -> float:
    """Decrease coefficient C - 2 M C0 / eps2 - ||B*||^2 ||P||^2 / eps1.

    ``keep_C0=False`` drops the C0 factor from the eps2 term; both variants
    are reported by the drivers and only the conservative one (the smaller
    coefficient for C0 >= 1) is ever asserted.
    """
    shift = 2.0 * M * C0 / eps2 if keep_C0 else 2.0 * M / eps2
    return C - shift - (norm_B * norm_P) ** 2 / eps1


def case1_iss_gain(M: float, eps1: float, eps2: float, C0: float, k: float) -> float:
    """Disturbance gain C0 * 2 M * eps2 + k^2 * eps1 paired with the decrease."""
    return C0 * 2.0 * M * eps2 + k**2 * eps1


def select_param_case2(c_S: float, norm_P: float, margin: float) -> float:
    """Constant M~ = margin * 2 * c_S * ||P|| for the quadratic-augmented
    function; ``margin`` must exceed 1 to keep the inequality strict."""
    if not (c_S > 0 and norm_P > 0):
        raise ParameterError("c_S and norm_P must be positive")
    if not margin > 1.0:
        raise ParameterError("margin must be > 1 to satisfy the strict bound")
    return margin * 2.0 * c_S * norm_P


def case2_decay_rate(C: float, norm_P: float, M_tilde: float, r: float) -> float:
    """Certified rate mu = C / (||P|| + M~ r) of the quadratic-augmented function."""
    if not (C > 0 and norm_P > 0 and M_tilde > 0 and r > 0):
        raise ParameterError("all constants must be positive")
    return C / (norm_P + M_tilde * r)


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


def case1_params(C: float, sigma, norm_B: float = 1.0, norm_P: float = 1.0,
                 safety: float = 0.5, P: LinearOperator = None) -> LyapunovParams:
    """Bundle measured C with a saturation map's constants into filled params."""
    M, eps1, eps2 = select_params_case1(C, norm_B, norm_P, sigma.item5_C0,
                                        sigma.lipschitz_k, safety)
    return LyapunovParams(P=P, C=C, norm_B=norm_B, k=sigma.lipschitz_k,
                          C0=sigma.item5_C0, M=M, eps1=eps1, eps2=eps2)


def case2_params(C: float, c_S: float, r: float, margin: float = 1.1,
                 norm_P: float = 1.0, P: LinearOperator = None) -> LyapunovParams:
    M_tilde = select_param_case2(c_S, norm_P, margin)
    return LyapunovParams(P=P, C=C, M_tilde=M_tilde, r=r, c_S=c_S)


def trajectory_observers(params: LyapunovParams) -> dict:
    """Observable callables for ``simulate`` recording V, V1, V2 per step."""
    obs = {"V": lambda z: v_quadratic(params.P, z)}
    if params.M is not None:
        obs["V1"] = lambda z: v1(params, z)
    if params.M_tilde is not None and params.r is not None:
        obs["V2"] = lambda z: v2(params, z)
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

    The series ``which`` ('V', 'V1' or 'V2') is the one ``simulate``
    recorded, through ``trajectory_observers`` for V1 and V2; dV/dt comes
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
        raise ParameterError("the %s series was not recorded: pass "
                             "trajectory_observers to simulate" % which)
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
