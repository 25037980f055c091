"""Trajectory-level input-to-state stability analysis.

Four instruments; those that integrate run their members as one batch
and read its (members, steps + 1) series whole, as array expressions:

* ``gronwall_gap`` bounds the gap between a disturbed run and its
  undisturbed twin; ``GapSums`` bounds it on a batch integrated elsewhere,
  which ``satiss run`` uses to take its main run and the gap from one
  integration.  Two bounds are evaluated: the integral bound
  sqrt(k/2 * int ||d||^2) with the exponential factor dropped, and the
  conservative one that keeps exp(3/2 k ||B*||^2 (t - s)) inside the
  convolution.  Only the conservative bound is expected to hold, and its
  violations are counted.
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
from dataclasses import dataclass, replace

import numpy as np

from .csvio import kv_text, write_csv
from .errors import CertificationError, ParameterError
from .spaces import Grid, StateVector, norm_graph, random_smooth_values
from .system import DisturbanceSignal, SaturatedSystem, Trajectory, simulate


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
    conservative_violations: int

    def write_csv(self, path):
        write_csv(path, ("t", "gap", "paper_bound", "conservative_bound"),
                  [self.times, self.gap, self.plain_bound, self.conservative_bound])


def _bound_violations(values, bounds):
    tol = 1e-8 + 1e-6 * np.abs(bounds)
    return int(np.sum(values > bounds + tol))


class GapSums:
    """The ``on_rows`` of a batch whose members 0 and 1, a disturbed run and
    its undisturbed twin, start from one z0: it sums the squares of the gap
    z~ = z^d - z per step, block by block, and hands member 0's rows on to
    ``on_rows``, if given.  ``report`` bounds the gap once the batch is
    integrated."""

    def __init__(self, on_rows=None):
        self._sums, self._on_rows = [], on_rows

    def __call__(self, times, rows):
        diff = rows[0] - rows[1]
        diff *= diff  # in place: no second (k, n) temporary
        self._sums.append(np.sum(diff, axis=1))
        if self._on_rows is not None:
            self._on_rows(times, rows[0])

    def report(self, pair: Trajectory, k: float) -> GapReport:
        """Both bounds of the gap on the batch's trajectory ``pair``, for
        feedback of Lipschitz constant k."""
        gap = np.sqrt(pair.grid.spacing_h * np.concatenate(self._sums))
        dsq = pair.observables["norm_d"][0] ** 2
        times = pair.times
        n = len(times)
        # int_0^t ||d||^2 by the trapezoid rule; cumsum adds in order, as a loop
        plain = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(times)
                                                 * (dsq[:-1] + dsq[1:]))))
        convolved = np.zeros(n)
        a = 1.5 * k  # 1.5 k ||B||^2 with B the identity
        for i in range(1, n):
            step = times[i] - times[i - 1]
            grow = math.exp(a * step)
            convolved[i] = grow * convolved[i - 1] + 0.5 * step * (grow * dsq[i - 1] + dsq[i])
        plain_bound = np.sqrt(0.5 * k * plain)
        conservative = np.sqrt(0.5 * k * convolved)
        return GapReport(
            times=times, gap=gap, plain_bound=plain_bound,
            conservative_bound=conservative,
            conservative_violations=_bound_violations(gap, conservative),
        )


def gronwall_gap(sys: SaturatedSystem, z0: StateVector, d, T: float, dt: float) -> GapReport:
    """Simulate the loop disturbed by ``d`` and its undisturbed twin from
    the same z0, as one batch, and bound the gap z~ = z^d - z per step."""
    sums = GapSums()
    pair = simulate([replace(sys, d=d), replace(sys, d=DisturbanceSignal())],
                    [z0, z0], T, dt, on_rows=sums)
    return sums.report(pair, sys.feedback_lipschitz)


def _majorizing_exponential_fit(times, norms, norm0):
    """Fit ||z(t)|| <= K e^{-mu t} ||z0|| over the rows ``norms`` (m, k) of
    members started at ``norm0`` (m,), recorded at ``times`` (k,).

    Log-domain least squares gives (K, mu); K is then lifted so the bound
    majorizes every sample at every recorded time.  Returns (K, mu, lift);
    (nan, nan, nan) when the pooled data does not decay.
    """
    started = norm0 > 0
    if not started.any():
        return math.nan, math.nan, math.nan
    norms, norm0 = norms[started], norm0[started]
    mask = norms > 1e-300
    t = np.broadcast_to(times, norms.shape)[mask]
    y = np.log((norms / norm0[:, None])[mask])
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
        """(r_i, K, mu) of the fitted radius r_i within 1e-5 of r, relative
        to r: radii are matched by their ratio alone, whatever their scale."""
        idx = np.nonzero(np.isclose(self.r_values, r, atol=0.0))[0]
        if len(idx) == 0:
            raise ParameterError("no fit data at radius r = %g" % r)
        i = int(idx[0])
        return float(self.r_values[i]), float(self.K_of_r[i]), float(self.mu_of_r[i])


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
    if samples_per_r < 1:
        raise ParameterError("samples_per_r must be >= 1, got %d" % samples_per_r)
    if sys.d.amplitude != 0.0:
        raise ParameterError("semi-global fitting needs an undisturbed loop")
    grid = sys.A.grid
    z0s = []
    for ir, r in enumerate(r_values):
        for j in range(samples_per_r):
            rng = np.random.default_rng((rng_seed, ir, j))
            frac = 1.0 if j == 0 else rng.uniform(0.4, 1.0)
            z0s.append(smooth_initial_data(grid, sys.A, r * frac, rng))
    traj = simulate([sys] * len(z0s), z0s, T, dt)
    per_r = traj.observables["norm_l2"].reshape(len(r_values), samples_per_r, -1)
    K, mu, lift = np.array([_majorizing_exponential_fit(traj.times, rows, rows[:, 0])
                            for rows in per_r]).T
    return SemiGlobalFit(r_values=np.array(r_values, dtype=float), K_of_r=K, mu_of_r=mu,
                         fit_residuals=lift, ensembles={
                             float(r): [(traj.times, norms, norms[0]) for norms in rows]
                             for r, rows in zip(r_values, per_r)})


def globalize(fit: SemiGlobalFit, r: float):
    """Compose the radius-r envelope with the unit-radius one; r and 1 name
    the fitted radii that ``SemiGlobalFit.at`` matches to them.

    Returns (T_r, K_global, mu_global) with T_r = ln(r K_r) / mu_r (clamped
    to 0 when r K_r <= 1) and K_global = K_1 e^{mu_1 T_r}, mu_global = mu_1.
    The hand-off is verified on the stored radius-r ensemble:
    ||z(T_r)|| <= 1 within 1e-3 relative.
    """
    r, K_r, mu_r = fit.at(r)
    _, K_1, mu_1 = fit.at(1.0)
    if any(map(math.isnan, (K_r, mu_r, K_1, mu_1))):
        raise CertificationError("globalization needs decaying fits at r and at 1")
    T_r = math.log(r * K_r) / mu_r if r * K_r > 1.0 else 0.0
    K_global = K_1 * math.exp(mu_1 * T_r)
    for times, norms, _ in fit.ensembles[r]:
        if T_r > times[-1]:
            raise CertificationError(
                "hand-off time T_r = %g exceeds the recorded horizon %g"
                % (T_r, times[-1]))
        idx = int(np.searchsorted(times, T_r, side="left"))
        if norms[idx] > 1.0 + 1e-3:
            raise CertificationError(
                "trajectory norm %g at the hand-off time exceeds 1" % norms[idx])
    return T_r, K_global, mu_1


#: largest ``max_violation`` of a valid certificate
CERTIFICATE_TOLERANCE = 1e-6


@dataclass(frozen=True, eq=False)
class IssCertificate:
    """Fitted exponential envelope plus linear disturbance gain."""

    K: float
    mu: float
    rho_gain: float
    ensemble_size: int
    max_violation: float

    def valid(self) -> bool:
        return self.max_violation <= CERTIFICATE_TOLERANCE

    def as_kv_text(self) -> str:
        return kv_text([*vars(self).items(), ("valid", self.valid())])


def _disturbance_energy(traj: Trajectory):
    """L2-in-time norm of the recorded disturbance over the horizon, per member."""
    return np.sqrt(np.trapezoid(traj.observables["norm_d"] ** 2, traj.times, axis=-1))


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
    traj = simulate([replace(sys, d=d) for d in d_ensemble], z0_ensemble, T, dt)
    times, norms = traj.times, traj.observables["norm_l2"]
    n0, dnorm = norms[:, 0], _disturbance_energy(traj)
    free = (dnorm == 0.0) & (n0 > 0)
    base = free if free.any() else slice(None)  # the fit leaves out n0 = 0
    K, mu, _ = _majorizing_exponential_fit(times, norms[base], n0[base])
    if math.isnan(mu):
        if free.any():
            raise CertificationError("undisturbed members do not decay; "
                                     "no exponential envelope exists")
        # no undisturbed members, and the others start at the origin or do
        # not decay together; keep a unit envelope and let the gain cover the rest
        K, mu = 1.0, 1.0
    envelope = K * np.exp(-mu * times) * n0[:, None]
    excess = np.max(norms - envelope, axis=1)
    # the gain each disturbed member needs; 0 for the others
    gains = np.divide(excess, dnorm, out=np.zeros(len(n0)),
                      where=(dnorm != 0.0) & (excess > 0))
    worst_member = int(np.argmax(gains)) if gains.any() else -1
    rho = float(gains.max())
    if rho_cap is not None and rho > rho_cap:
        raise CertificationError(
            "required gain %g exceeds the cap %g (worst member index %d)"
            % (rho, rho_cap, worst_member))
    max_violation = float(np.max(norms - (envelope + rho * dnorm[:, None])))
    return IssCertificate(K=K, mu=mu, rho_gain=rho,
                          ensemble_size=len(n0), max_violation=max_violation)


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
