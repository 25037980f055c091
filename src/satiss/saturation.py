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
        if not 0 < self.level < math.inf:
            raise ParameterError("saturation level must be positive and finite, "
                                 "got %r" % (self.level,))
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


def _column_norms(values: np.ndarray, h: float) -> np.ndarray:
    """L2 norm of a state (n,), or of each column of an (n, m) block.

    The columns must be contiguous: a strided reduction sums in another
    order than ``np.dot`` on a single state and differs in the last bits.
    """
    return np.sqrt(h * np.vecdot(values, values, axis=0))


def _sat_hilbert_values(values: np.ndarray, level: float, h: float) -> np.ndarray:
    nrm = _column_norms(values, h)
    if not np.count_nonzero(nrm > level):
        return np.array(values, dtype=float)
    # level / max(nrm, level) is level / nrm on the columns outside the
    # ball and exactly 1 on the others
    out = values * (level / np.maximum(nrm, level))
    # guard against round-up past the ball so that a second application
    # is exactly the identity
    nrm2 = _column_norms(out, h)
    over = nrm2 > level
    if np.count_nonzero(over):
        out *= level / np.maximum(nrm2, level)
        np.multiply(out, 1.0 - 2.0**-50, out=out, where=over)
    return out


def _sat_values(kind: SaturationKind, values: np.ndarray, level: float, h: float) -> np.ndarray:
    """sigma of one state (n,), or of each column of an (n, m) block whose
    columns are contiguous (see ``_column_norms``)."""
    if kind is SaturationKind.POINTWISE_LINF:
        return np.clip(values, -level, level)
    return _sat_hilbert_values(values, level, h)


def apply_saturation(sigma: SaturationMap, z: StateVector) -> StateVector:
    """sigma(z): the node-wise clamp, or the radial retraction onto the L2 ball."""
    return StateVector(z.grid, _sat_values(sigma.kind, z.values, sigma.level,
                                           z.grid.spacing_h))


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
    peak = np.abs(v).max()
    if peak == 0.0:
        return np.zeros(grid.n_interior)
    return v * (amplitude * rng.uniform(0.2, 1.0) / peak)


#: Samples per block of the axiom sweep: a few hundred kB per block array,
#: whatever the sample count.
_CHUNK = 256


def _sample_blocks(grid: Grid, n_samples: int, rng_seed: int, n_blocks: int, draw):
    """Yield ``n_blocks`` (n, m) blocks of at most ``_CHUNK`` samples each time.

    Sample i fills one column of each block with the states ``draw(rng)``
    returns for its own stream ``default_rng((rng_seed, i))``, so a block
    holds the states a per-sample evaluation would see.  The columns are the
    contiguous rows of a C-order array; the yielded views are overwritten
    by the next block.
    """
    arrays = [np.empty((_CHUNK, grid.n_interior)) for _ in range(n_blocks)]
    for start in range(0, n_samples, _CHUNK):
        m = min(_CHUNK, n_samples - start)
        for i in range(m):
            sample = draw(np.random.default_rng((rng_seed, start + i)))
            for array, state in zip(arrays, sample):
                array[i] = state
        yield [array[:m].T for array in arrays]


def _s_norm(kind: SaturationKind, values: np.ndarray, h: float) -> np.ndarray:
    if kind is SaturationKind.POINTWISE_LINF:
        return np.max(np.abs(values), axis=0)
    return _column_norms(values, h)


def _sprime_norm(kind: SaturationKind, values: np.ndarray, h: float) -> np.ndarray:
    if kind is SaturationKind.POINTWISE_LINF:
        return h * np.sum(np.abs(values), axis=0)
    return _column_norms(values, h)


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0."""
    keep = den > 0
    return np.divide(num, den, out=np.zeros_like(den), where=keep)[keep]


def _running_max(current: float, values: np.ndarray) -> float:
    """max(current, v) folded over ``values`` in order: the first maximal
    entry wins ties, as in a per-sample loop."""
    if values.size:
        best = values[np.argmax(values)]
        if best > current:
            return float(best)
    return current


def _shift_ratios(kind: SaturationKind, s: np.ndarray, pert: np.ndarray,
                  sig_s: np.ndarray, level: float, h: float) -> np.ndarray:
    """<s, sigma(s + s~) - sigma(s)> / ||s~|| for each column with s~ != 0."""
    sig_sp = _sat_values(kind, s + pert, level, h)
    return _ratios(h * np.vecdot(s, sig_sp - sig_s, axis=0), _column_norms(pert, h))


def _check_sweep(grid: Grid, n_samples: int, amplitude: float):
    """Reject sweep arguments whose sums would not be finite doubles.

    A difference of two samples is at most 2 * amplitude per node, so
    n * (2 * amplitude)^2 is the largest raw sum of squares the sweep forms.
    """
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    if not amplitude > 0:
        raise ParameterError("amplitude must be positive")
    width = 2.0 * amplitude
    if not math.isfinite(grid.n_interior * width * width):
        raise ParameterError("sample amplitude %g overflows the sums of the sweep "
                             "on %d nodes" % (amplitude, grid.n_interior))


def check_axioms(sigma: SaturationMap, grid: Grid, n_samples: int,
                 amplitude: float, rng_seed: int) -> AxiomReport:
    """Sweep randomized state pairs through all five axioms.

    Samples should straddle the saturation level (amplitude > level),
    otherwise the map is exercised only on its identity branch.  Per-sample
    RNG streams are derived from (rng_seed, counter), so the result does
    not depend on evaluation order.  Samples are evaluated in blocks of
    ``_CHUNK``, one per column; every axiom quantity is a column reduction,
    so the report is the one a sample-by-sample loop gives.
    """
    _check_sweep(grid, n_samples, amplitude)
    h = grid.spacing_h
    level = sigma.level
    kind = sigma.kind

    def draw(rng):
        s = _sample_values(grid, rng, amplitude)
        t = _sample_values(grid, rng, amplitude)
        pert = _sample_values(grid, rng, amplitude) * rng.uniform(0.0, 1.0)
        return s, t, pert

    bound_violations = 0
    monotonicity_violations = 0
    lipschitz_estimate = 0.0
    item4_max_residual = -math.inf
    item5_estimate = 0.0
    for s, t, pert in _sample_blocks(grid, n_samples, rng_seed, 3, draw):
        sig_s = _sat_values(kind, s, level, h)
        sig_t = _sat_values(kind, t, level, h)
        d_sig = sig_s - sig_t
        d = s - t

        bound_violations += int(np.count_nonzero(_s_norm(kind, sig_s, h) > level))
        monotonicity_violations += int(np.count_nonzero(
            h * np.vecdot(d_sig, d, axis=0) < -1e-12))
        lipschitz_estimate = _running_max(
            lipschitz_estimate, _ratios(_column_norms(d_sig, h), _column_norms(d, h)))
        residual = _sprime_norm(kind, sig_s - s, h) \
            - h * np.vecdot(sig_s, s, axis=0) / level
        item4_max_residual = _running_max(item4_max_residual, residual)
        item5_estimate = _running_max(
            item5_estimate, _shift_ratios(kind, s, pert, sig_s, level, h))
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
    _check_sweep(grid, n_samples, amplitude)
    h = grid.spacing_h
    level = sigma.level

    def draw(rng):
        s = _sample_values(grid, rng, amplitude)
        pert = _sample_values(grid, rng, amplitude)
        scale = rng.uniform(0.0, 1.0) if perturbation_scale is None else perturbation_scale
        return s, pert * scale

    best = 0.0
    for s, pert in _sample_blocks(grid, n_samples, rng_seed, 2, draw):
        sig_s = _sat_values(sigma.kind, s, level, h)
        best = _running_max(best, _shift_ratios(sigma.kind, s, pert, sig_s, level, h))
    return best
