"""Saturation maps and randomized falsification of their admissibility axioms.

Two actuator-limit models are implemented:

* pointwise sup-norm saturation: each node value is clamped to
  [-level, +level];
* Hilbert-norm saturation: states outside the L2 ball of radius ``level``
  are radially retracted onto it.

A map sigma is admissible when, for all states s, s~ (U = discrete L2;
S = sup norm for the pointwise kind, S = U for the Hilbert kind; the
S'-norm is realized as L1 for the pointwise kind and as L2 otherwise):

1. bounded range              ||sigma(s)||_S <= level
2. monotonicity               <sigma(s) - sigma(s~), s - s~>_U >= 0
3. global Lipschitz bound     ||sigma(s) - sigma(s~)||_U <= k ||s - s~||_U
4. defect pairing bound       level * ||sigma(s) - s||_S' <= <sigma(s), s>_U
5. shift pairing bound        <s, sigma(s + s~) - sigma(s)>_U <= C0 ||s~||_U

Axioms 4 and 5 are stated here in level-scaled form; at level 1 they reduce
to the unscaled inequalities.  ``check_axioms`` estimates every quantity on
randomized samples and reports violations instead of raising.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .spaces import Grid, StateVector, random_smooth_values


class SaturationKind(enum.Enum):
    POINTWISE_LINF = "pointwise_linf"
    HILBERT_NORM = "hilbert_norm"


@dataclass(frozen=True)
class SaturationMap:
    """A tagged saturation operator with its declared axiom constants.

    ``lipschitz_k`` is the declared axiom-3 constant and ``item5_C0`` the
    declared axiom-5 constant; both are up-front claims that
    ``check_axioms`` cross-examines empirically.
    """

    kind: SaturationKind
    level: float = 1.0
    lipschitz_k: float = 1.0
    item5_C0: float = 1.0

    def __post_init__(self):
        if not self.level > 0:
            raise ParameterError("saturation level must be positive")
        if self.lipschitz_k < 1:
            raise ParameterError("Lipschitz constant must be >= 1")
        if not self.item5_C0 > 0:
            raise ParameterError("shift-bound constant C0 must be positive")


def pointwise_linf_map(level: float = 1.0, length_L: float = 2 * math.pi) -> SaturationMap:
    """Pointwise clamp; k = 1, C0 = level * sqrt(L).

    C0 derivation: node values with |s| > level on the same side as s + s~
    contribute non-positively, so <s, sigma(s+s~)-sigma(s)> <= level *
    ||s~||_L1 <= level * sqrt(L) * ||s~||_L2.
    """
    return SaturationMap(SaturationKind.POINTWISE_LINF, level=level,
                         lipschitz_k=1.0, item5_C0=level * math.sqrt(length_L))


def hilbert_norm_map(level: float = 1.0) -> SaturationMap:
    """Radial retraction onto the L2 ball; declared k = 3 and C0 = 3 * level."""
    return SaturationMap(SaturationKind.HILBERT_NORM, level=level,
                         lipschitz_k=3.0, item5_C0=3.0 * level)


def sat_scalar(x: float, level: float) -> float:
    """Clamp a real number to [-level, +level]."""
    if not level > 0:
        raise ParameterError("saturation level must be positive")
    return min(max(x, -level), level)


def _sat_pointwise_values(values: np.ndarray, level: float) -> np.ndarray:
    return np.clip(values, -level, level)


def _sat_hilbert_values(values: np.ndarray, level: float, h: float) -> np.ndarray:
    if values.ndim == 2:
        # one retraction per member column, each through the same np.dot
        # norm that check_axioms applies to a single state
        out = np.empty_like(values)
        for j in range(values.shape[1]):
            out[:, j] = _sat_hilbert_values(values[:, j], level, h)
        return out
    nrm = math.sqrt(h * float(np.dot(values, values)))
    if nrm <= level:
        return np.array(values, dtype=float)
    out = values * (level / nrm)
    # guard against round-up past the ball so that a second application
    # is exactly the identity
    nrm2 = math.sqrt(h * float(np.dot(out, out)))
    if nrm2 > level:
        out = out * (level / nrm2) * (1.0 - 2.0**-50)
    return out


def _sat_values(kind: SaturationKind, values: np.ndarray, level: float, h: float) -> np.ndarray:
    """sigma of one state (n,), or of each column of an (n, m) block."""
    if kind is SaturationKind.POINTWISE_LINF:
        return _sat_pointwise_values(values, level)
    return _sat_hilbert_values(values, level, h)


def sat_pointwise(z: StateVector, level: float) -> StateVector:
    """Apply the scalar clamp at every node."""
    if not level > 0:
        raise ParameterError("saturation level must be positive")
    return StateVector(z.grid, _sat_pointwise_values(z.values, level))


def sat_hilbert(z: StateVector, level: float) -> StateVector:
    """Return z unchanged inside the L2 ball, else z * (level / ||z||)."""
    if not level > 0:
        raise ParameterError("saturation level must be positive")
    return StateVector(z.grid, _sat_hilbert_values(z.values, level, z.grid.spacing_h))


def apply_saturation(sigma: SaturationMap, z: StateVector) -> StateVector:
    if sigma.kind is SaturationKind.POINTWISE_LINF:
        return sat_pointwise(z, sigma.level)
    return sat_hilbert(z, sigma.level)


@dataclass
class AxiomReport:
    """Aggregated evidence from a randomized axiom sweep."""

    bound_violations: int
    monotonicity_violations: int
    lipschitz_estimate: float
    item4_max_residual: float
    item5_C0_estimate: float
    samples_used: int

    def as_kv_text(self) -> str:
        lines = [
            "bound_violations=%d" % self.bound_violations,
            "monotonicity_violations=%d" % self.monotonicity_violations,
            "lipschitz_estimate=%.17g" % self.lipschitz_estimate,
            "item4_max_residual=%.17g" % self.item4_max_residual,
            "item5_C0_estimate=%.17g" % self.item5_C0_estimate,
            "samples_used=%d" % self.samples_used,
        ]
        return "\n".join(lines) + "\n"


def _sample_values(grid: Grid, rng, amplitude: float) -> np.ndarray:
    """One random state: rough node-wise uniform or a smooth sine mixture.

    Both families are needed: axioms must hold on all of U, and a single
    generator would bias the sweep.
    """
    if rng.random() < 0.5:
        return rng.uniform(-amplitude, amplitude, grid.n_interior)
    v = random_smooth_values(grid, rng, n_modes=8, mode_decay=1.5)
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return np.zeros(grid.n_interior)
    return v * (amplitude * rng.uniform(0.2, 1.0) / peak)


def _s_norm(kind: SaturationKind, values: np.ndarray, h: float) -> float:
    if kind is SaturationKind.POINTWISE_LINF:
        return float(np.max(np.abs(values)))
    return math.sqrt(h * float(np.dot(values, values)))


def _sprime_norm(kind: SaturationKind, values: np.ndarray, h: float) -> float:
    if kind is SaturationKind.POINTWISE_LINF:
        return float(h * np.sum(np.abs(values)))
    return math.sqrt(h * float(np.dot(values, values)))


def check_axioms(sigma: SaturationMap, grid: Grid, n_samples: int,
                 amplitude: float, rng_seed: int) -> AxiomReport:
    """Sweep randomized state pairs through all five axioms.

    Samples should straddle the saturation level (amplitude > level),
    otherwise the map is exercised only on its identity branch.  Per-sample
    RNG streams are derived from (rng_seed, counter), so the result does
    not depend on evaluation order.
    """
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    if not amplitude > 0:
        raise ParameterError("amplitude must be positive")
    h = grid.spacing_h
    level = sigma.level
    bound_violations = 0
    monotonicity_violations = 0
    lipschitz_estimate = 0.0
    item4_max_residual = -math.inf
    item5_estimate = 0.0
    for i in range(n_samples):
        rng = np.random.default_rng((rng_seed, i))
        s = _sample_values(grid, rng, amplitude)
        t = _sample_values(grid, rng, amplitude)
        pert = _sample_values(grid, rng, amplitude) * rng.uniform(0.0, 1.0)
        sig_s = _sat_values(sigma.kind, s, level, h)
        sig_t = _sat_values(sigma.kind, t, level, h)

        if _s_norm(sigma.kind, sig_s, h) > level:
            bound_violations += 1
        if h * float(np.dot(sig_s - sig_t, s - t)) < -1e-12:
            monotonicity_violations += 1
        dst = math.sqrt(h * float(np.dot(s - t, s - t)))
        if dst > 0:
            dsig = math.sqrt(h * float(np.dot(sig_s - sig_t, sig_s - sig_t)))
            lipschitz_estimate = max(lipschitz_estimate, dsig / dst)
        residual = _sprime_norm(sigma.kind, sig_s - s, h) \
            - h * float(np.dot(sig_s, s)) / level
        item4_max_residual = max(item4_max_residual, residual)
        pert_norm = math.sqrt(h * float(np.dot(pert, pert)))
        if pert_norm > 0:
            sig_sp = _sat_values(sigma.kind, s + pert, level, h)
            item5_estimate = max(
                item5_estimate, h * float(np.dot(s, sig_sp - sig_s)) / pert_norm)
    return AxiomReport(
        bound_violations=bound_violations,
        monotonicity_violations=monotonicity_violations,
        lipschitz_estimate=lipschitz_estimate,
        item4_max_residual=item4_max_residual,
        item5_C0_estimate=item5_estimate,
        samples_used=n_samples,
    )


def estimate_item5_C0(sigma: SaturationMap, grid: Grid, n_samples: int,
                      amplitude: float, rng_seed: int,
                      perturbation_scale: float = None) -> float:
    """Empirical sup of <s, sigma(s + s~) - sigma(s)> / ||s~|| over samples.

    ``perturbation_scale`` overrides the random perturbation size; passing 0
    makes every s~ vanish and the estimate is 0 by convention.
    """
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    h = grid.spacing_h
    level = sigma.level
    best = 0.0
    for i in range(n_samples):
        rng = np.random.default_rng((rng_seed, i))
        s = _sample_values(grid, rng, amplitude)
        pert = _sample_values(grid, rng, amplitude)
        scale = rng.uniform(0.0, 1.0) if perturbation_scale is None else perturbation_scale
        pert = pert * scale
        pert_norm = math.sqrt(h * float(np.dot(pert, pert)))
        if pert_norm == 0.0:
            continue
        sig_s = _sat_values(sigma.kind, s, level, h)
        sig_sp = _sat_values(sigma.kind, s + pert, level, h)
        best = max(best, h * float(np.dot(s, sig_sp - sig_s)) / pert_norm)
    return best
