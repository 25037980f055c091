"""Trajectory-level input-to-state stability analysis.

Four instruments:

* ``gronwall_gap`` bounds the gap between a disturbed run and its
  undisturbed twin.  Two bounds are evaluated: the integral bound
  sqrt(k/2 * int ||d||^2) with the exponential factor dropped, and the
  conservative one that keeps exp(3/2 k ||B*||^2 (t - s)) inside the
  convolution.  Only the conservative bound is expected to hold;
  violations of the other are counted and reported.
* ``fit_semiglobal`` fits radius-dependent decay envelopes K(r) e^{-mu(r) t}
  over ensembles of smooth initial data with graph norm at most r.
* ``globalize`` composes a radius-r envelope with the unit-radius one at
  the hand-off time T_r = ln(r K_r) / mu_r.
* ``iss_certificate`` fits (K, mu, rho) so that
  ||z(t)|| <= K e^{-mu t} ||z0|| + rho ||d|| holds on a whole ensemble.

All envelope fits are majorizing: log-domain least squares followed by a
multiplicative lift, so the fitted bound dominates every sample at every
recorded time.  Stability bounds are inequalities, not regressions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ParameterError
from .spaces import Grid, StateVector, norm_graph, norm_l2, random_smooth_values
from .system import SaturatedSystem, Trajectory, _write_csv, simulate, \
    with_disturbance, zero_disturbance


def smooth_initial_data(grid: Grid, A, target_graph_norm: float, rng) -> StateVector:
    """Random smooth profile rescaled to the requested graph norm.

    Profiles are truncated sine series (amplitudes decaying like j^-3)
    tapered by the wall-flattening envelope, so their discrete graph norms
    are grid-stable and the rescaling is meaningful.
    """
    if not target_graph_norm > 0:
        raise ParameterError("target graph norm must be positive")
    v = random_smooth_values(grid, rng, envelope=True)
    z = StateVector(grid, v)
    g = norm_graph(z, A)
    if g == 0.0:
        raise ParameterError("degenerate zero sample")
    return StateVector(grid, v * (target_graph_norm / g))


@dataclass(frozen=True, eq=False)
class GapReport:
    """Per-step gap between disturbed and undisturbed runs with both bounds."""

    times: np.ndarray
    gap: np.ndarray
    plain_bound: np.ndarray           # sqrt(k/2 * int_0^t ||d||^2), no exponential
    conservative_bound: np.ndarray    # exponential kept inside the convolution
    plain_bound_violations: int
    conservative_violations: int

    def write_csv(self, path):
        _write_csv(path, ("t", "gap", "paper_bound", "conservative_bound"),
                   [self.times, self.gap, self.plain_bound, self.conservative_bound])


def _bound_violations(values, bounds):
    tol = 1e-8 + 1e-6 * np.abs(bounds)
    return int(np.sum(values > bounds + tol))


def gronwall_gap(sys: SaturatedSystem, z0: StateVector, d, T: float, dt: float) -> GapReport:
    """Simulate the disturbed loop and its undisturbed twin from the same z0
    and bound the gap z~ = z^d - z per step."""
    k = sys.feedback_lipschitz
    norm_B = 1.0
    disturbed, free = simulate([with_disturbance(sys, d),
                                with_disturbance(sys, zero_disturbance())],
                               [z0, z0], T, dt)
    h = sys.A.grid.spacing_h
    diff = disturbed.states - free.states
    gap = np.sqrt(h * np.sum(diff * diff, axis=1))
    dsq = disturbed.observables["norm_d"] ** 2
    times = disturbed.times
    n = len(times)
    plain = np.zeros(n)
    convolved = np.zeros(n)
    a = 1.5 * k * norm_B**2
    for i in range(1, n):
        step = times[i] - times[i - 1]
        plain[i] = plain[i - 1] + 0.5 * step * (dsq[i - 1] + dsq[i])
        grow = math.exp(a * step)
        convolved[i] = grow * convolved[i - 1] + 0.5 * step * (grow * dsq[i - 1] + dsq[i])
    plain_bound = np.sqrt(0.5 * k * plain)
    conservative = np.sqrt(0.5 * k * convolved)
    return GapReport(
        times=times, gap=gap, plain_bound=plain_bound,
        conservative_bound=conservative,
        plain_bound_violations=_bound_violations(gap, plain_bound),
        conservative_violations=_bound_violations(gap, conservative),
    )


def _majorizing_exponential_fit(samples):
    """Fit ||z(t)|| <= K e^{-mu t} ||z0|| over (times, norms, norm0) samples.

    Log-domain least squares gives (K, mu); K is then lifted so the bound
    majorizes every sample at every recorded time.  Returns (K, mu, lift);
    (nan, nan, nan) when the pooled data does not decay.
    """
    ts, ys = [], []
    for times, norms, norm0 in samples:
        if norm0 <= 0:
            continue
        mask = norms > 1e-300
        ts.append(times[mask])
        ys.append(np.log(norms[mask] / norm0))
    if not ts:
        return math.nan, math.nan, math.nan
    t = np.concatenate(ts)
    y = np.concatenate(ys)
    design = np.column_stack([t, np.ones_like(t)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    mu = -float(slope)
    if not mu > 0:
        return math.nan, math.nan, math.nan
    log_k = max(float(intercept), float(np.max(y + mu * t)), 0.0)
    return math.exp(log_k), mu, log_k - float(intercept)


@dataclass(frozen=True, eq=False)
class SemiGlobalFit:
    """Radius-indexed decay envelopes with the raw ensembles retained."""

    r_values: np.ndarray
    K_of_r: np.ndarray
    mu_of_r: np.ndarray
    fit_residuals: np.ndarray  # log-domain lift applied to restore majorization
    ensembles: dict            # r -> list of (times, norms, norm0)

    def at(self, r: float):
        idx = np.nonzero(np.isclose(self.r_values, r))[0]
        if len(idx) == 0:
            raise ParameterError("no fit data at radius r = %g" % r)
        i = int(idx[0])
        return float(self.K_of_r[i]), float(self.mu_of_r[i])


def fit_semiglobal(sys: SaturatedSystem, r_values, samples_per_r: int,
                   T: float, dt: float, rng_seed: int) -> SemiGlobalFit:
    """Per-radius majorizing decay fits over smooth random initial data.

    The loop must be undisturbed.  For each radius the first sample is
    normalized to graph norm exactly r, the rest to random fractions of r.
    A radius whose ensemble does not decay is reported with NaN entries
    rather than raised.
    """
    r_values = list(r_values)
    if not r_values:
        raise ParameterError("r_values must be nonempty")
    if not (sys.d.func is None and sys.d.amplitude == 0.0):
        raise ParameterError("semi-global fitting needs an undisturbed loop")
    grid = sys.A.grid
    z0s = []
    for ir, r in enumerate(r_values):
        for j in range(samples_per_r):
            rng = np.random.default_rng((rng_seed, ir, j))
            frac = 1.0 if j == 0 else rng.uniform(0.4, 1.0)
            z0s.append(smooth_initial_data(grid, sys.A, r * frac, rng))
    trajs = simulate([sys] * len(z0s), z0s, T, dt, keep_states=False) if z0s else []
    ks, mus, lifts = [], [], []
    ensembles = {}
    for ir, r in enumerate(r_values):
        runs = [(traj.times, traj.observables["norm_l2"], traj.observables["norm_l2"][0])
                for traj in trajs[ir * samples_per_r:(ir + 1) * samples_per_r]]
        K, mu, lift = _majorizing_exponential_fit(runs)
        ks.append(K)
        mus.append(mu)
        lifts.append(lift)
        ensembles[float(r)] = runs
    return SemiGlobalFit(r_values=np.array(r_values, dtype=float),
                         K_of_r=np.array(ks), mu_of_r=np.array(mus),
                         fit_residuals=np.array(lifts), ensembles=ensembles)


def globalize(fit: SemiGlobalFit, r: float):
    """Compose the radius-r envelope with the unit-radius one.

    Returns (T_r, K_global, mu_global) with T_r = ln(r K_r) / mu_r (clamped
    to 0 when r K_r <= 1) and K_global = K_1 e^{mu_1 T_r}, mu_global = mu_1.
    The hand-off is verified on the stored radius-r ensemble:
    ||z(T_r)|| <= 1 within 1e-3 relative.
    """
    K_r, mu_r = fit.at(r)
    K_1, mu_1 = fit.at(1.0)
    if any(map(math.isnan, (K_r, mu_r, K_1, mu_1))):
        raise CertificationError("globalization needs decaying fits at r and at 1")
    T_r = math.log(r * K_r) / mu_r if r * K_r > 1.0 else 0.0
    K_global = K_1 * math.exp(mu_1 * T_r)
    for times, norms, _ in fit.ensembles[float(r)]:
        if T_r > times[-1]:
            raise CertificationError(
                "hand-off time T_r = %g exceeds the recorded horizon %g"
                % (T_r, times[-1]))
        idx = int(np.searchsorted(times, T_r, side="left"))
        if norms[idx] > 1.0 + 1e-3:
            raise CertificationError(
                "trajectory norm %g at the hand-off time exceeds 1" % norms[idx])
    return T_r, K_global, mu_1


@dataclass(frozen=True, eq=False)
class IssCertificate:
    """Fitted exponential envelope plus linear disturbance gain."""

    K: float
    mu: float
    rho_gain: float
    ensemble_size: int
    max_violation: float

    def valid(self, tolerance: float = 1e-6) -> bool:
        return self.max_violation <= tolerance

    def as_kv_text(self) -> str:
        lines = [
            "K=%.17g" % self.K,
            "mu=%.17g" % self.mu,
            "rho_gain=%.17g" % self.rho_gain,
            "ensemble_size=%d" % self.ensemble_size,
            "max_violation=%.17g" % self.max_violation,
            "valid=%s" % ("true" if self.valid() else "false"),
        ]
        return "\n".join(lines) + "\n"


def _disturbance_energy(traj: Trajectory) -> float:
    """L2-in-time norm of the recorded disturbance over the horizon."""
    dsq = traj.observables["norm_d"] ** 2
    return math.sqrt(float(np.trapezoid(dsq, traj.times)))


def iss_certificate(sys: SaturatedSystem, z0_ensemble, d_ensemble,
                    T: float, dt: float, rho_cap: float = None) -> IssCertificate:
    """Fit (K, mu, rho) with ||z(t)|| <= K e^{-mu t} ||z0|| + rho ||d||
    holding at every recorded time of every ensemble member.

    The exponential part is fitted (majorizing) on the undisturbed members;
    rho is then the smallest gain covering the disturbed ones.  With a
    ``rho_cap`` given, a larger required gain fails the certification and
    names the worst offender.
    """
    z0_ensemble = list(z0_ensemble)
    d_ensemble = list(d_ensemble)
    if not z0_ensemble or len(z0_ensemble) != len(d_ensemble):
        raise ParameterError("ensembles must be nonempty and of equal length")
    trajs = simulate([with_disturbance(sys, d) for d in d_ensemble], z0_ensemble,
                     T, dt, keep_states=False)
    runs = [(traj.times, traj.observables["norm_l2"], norm_l2(z0),
             _disturbance_energy(traj)) for z0, traj in zip(z0_ensemble, trajs)]
    free = [(t, n, n0) for t, n, n0, dnorm in runs if dnorm == 0.0 and n0 > 0]
    fit_base = free if free else [(t, n, n0) for t, n, n0, _ in runs if n0 > 0]
    if fit_base:
        K, mu, _ = _majorizing_exponential_fit(fit_base)
    else:
        # every member starts at the origin; the envelope term is void
        K, mu = 1.0, 1.0
    if math.isnan(mu):
        if free:
            raise CertificationError("undisturbed members do not decay; "
                                     "no exponential envelope exists")
        # no undisturbed members and the pooled data does not decay on its
        # own; keep a unit envelope and let the gain cover the rest
        K, mu = 1.0, 1.0
    rho = 0.0
    worst_member = -1
    for i, (times, norms, n0, dnorm) in enumerate(runs):
        if dnorm == 0.0:
            continue
        excess = float(np.max(norms - K * np.exp(-mu * times) * n0))
        if excess > 0 and excess / dnorm > rho:
            rho = excess / dnorm
            worst_member = i
    if rho_cap is not None and rho > rho_cap:
        raise CertificationError(
            "required gain %g exceeds the cap %g (worst member index %d)"
            % (rho, rho_cap, worst_member))
    max_violation = -math.inf
    for times, norms, n0, dnorm in runs:
        bound = K * np.exp(-mu * times) * n0 + rho * dnorm
        max_violation = max(max_violation, float(np.max(norms - bound)))
    return IssCertificate(K=K, mu=mu, rho_gain=rho,
                          ensemble_size=len(runs), max_violation=max_violation)


def brs_check(traj: Trajectory, C0: float):
    """Check ||z(t)||^2 <= ||z0||^2 + C0 ||d|| at every step.

    ||d|| is the L2-in-time disturbance norm over the horizon.  Returns
    (ok, worst_margin) with margin = bound - ||z(t)||^2; tolerance
    1e-8 * (1 + ||z0||^2).
    """
    norms = traj.observables["norm_l2"]
    n0sq = float(norms[0]) ** 2
    bound = n0sq + C0 * _disturbance_energy(traj)
    margins = bound - norms**2
    tol = 1e-8 * (1.0 + n0sq)
    return bool(np.all(margins >= -tol)), float(np.min(margins))
