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
# the clip ufunc itself: np.clip reaches it through Python wrappers
from numpy._core.umath import clip as _clip

from .csvio import kv_text
from .errors import ParameterError
from .spaces import Grid, random_smooth_values


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
        if not 1 <= self.lipschitz_k < math.inf:
            raise ParameterError("Lipschitz constant must be >= 1 and finite, "
                                 "got %r" % (self.lipschitz_k,))
        if not 0 < self.item5_C0 < math.inf:
            raise ParameterError("shift-bound constant C0 must be positive and finite, "
                                 "got %r" % (self.item5_C0,))


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


def _ball_scales(values: np.ndarray, level, h: float) -> list:
    """level / max(norm, level) for each column of ``values``, as floats;
    ``level`` is one float or an array of one per column.

    The sums of squares are one reduction over the block, as in
    ``_column_norms``; the rest is the same IEEE double arithmetic done one
    float at a time, so each scale is bit for bit the array expression's
    without a numpy call per operation.  A column inside the ball gets
    exactly 1.0, a column outside it a scale below 1.0 (level / norm rounds
    below 1 whenever norm > level), and a column with a NaN norm NaN.
    """
    sums = np.vecdot(values, values, axis=0).reshape(-1).tolist()
    levels = level.tolist() if isinstance(level, np.ndarray) else [level] * len(sums)
    return [1.0 if nrm <= lv else lv / nrm
            for nrm, lv in zip([math.sqrt(h * s) for s in sums], levels)]


def _sat_values(kind: SaturationKind, values: np.ndarray, level, h: float,
                out: np.ndarray = None) -> np.ndarray:
    """sigma of one state (n,), or of each column of an (n, m) block whose
    columns are contiguous (see ``_column_norms``); written into ``out``
    when given, which may be ``values`` itself.  ``level`` is one float, or
    for a block an (m,) array of one per column, where +inf leaves its
    column as it is, bit for bit."""
    if kind is SaturationKind.POINTWISE_LINF:
        return _clip(values, -level, level, out=out)
    if out is None:
        out = np.empty_like(values, dtype=float)
    # a scale below 1 marks a column outside the ball
    scale = _ball_scales(values, level, h)
    if not any(map((1.0).__gt__, scale)):
        np.copyto(out, values)
        return out
    np.multiply(values, scale, out=out)
    # guard against round-up past the ball so that a second application
    # is exactly the identity
    scale = _ball_scales(out, level, h)
    if any(map((1.0).__gt__, scale)):
        out *= scale
        out *= [1.0 - 2.0**-50 if c < 1.0 else 1.0 for c in scale]
    return out


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
        return kv_text(vars(self).items())

    def refuted(self, sigma: SaturationMap) -> list:
        """Names of the entries that refute an axiom of ``sigma`` or one of
        its declared constants k and C0; empty when none does."""
        return [name for name, failed in (
            ("bound_violations", self.bound_violations > 0),
            ("monotonicity_violations", self.monotonicity_violations > 0),
            ("lipschitz_estimate", self.lipschitz_estimate > sigma.lipschitz_k + 1e-12),
            ("item4_max_residual", self.item4_max_residual > 1e-10),
            ("item5_C0_estimate", self.item5_C0_estimate > sigma.item5_C0 + 1e-10))
            if failed]


#: Samples per block of the axiom sweep: a few hundred kB per block array,
#: whatever the sample count.  Part of the stream contract: block b draws
#: from its own generator, so another block size draws other samples.
_CHUNK = 256


def _draw_states(grid: Grid, rng, amplitude: float, out: np.ndarray):
    """Fill the m rows of ``out`` with random states drawn from ``rng``.

    A state is rough (node-wise uniform) or a smooth sine mixture scaled to a
    random fraction of ``amplitude``, with equal odds; both families are
    needed, since the axioms must hold on all of U.  The draws are four
    whole-block calls, in this order: the family choices ``random(m) < 0.5``
    (True is rough), the k rough rows ``uniform(-a, a, (k, n))``, the
    ``(m - k, 8)`` series coefficients and the scale fractions
    ``uniform(0.2, 1, m - k)``, handed out to the rough and the smooth rows
    in row order.  A smooth row whose series has a zero peak is the zero
    state.  Each row is what the single-state formulas give on its draws.
    """
    m, n = out.shape
    rough = rng.random(m) < 0.5
    k = int(np.count_nonzero(rough))
    out[rough] = rng.uniform(-amplitude, amplitude, (k, n))
    v = random_smooth_values(grid, rng, n_modes=8, mode_decay=1.5, size=m - k)
    fraction = rng.uniform(0.2, 1.0, m - k)
    peak = np.abs(v).max(axis=1)
    scale = np.divide(amplitude * fraction, peak, out=np.zeros(m - k), where=peak != 0.0)
    out[~rough] = v * scale[:, None]


def _sample_blocks(grid: Grid, n_samples: int, rng_seed: int, amplitude: float):
    """Yield (s, t, s~) triples of (n, m) blocks of at most ``_CHUNK`` samples.

    Block b holds samples ``_CHUNK * b`` onwards and draws everything from
    one generator ``default_rng((rng_seed, b))``: the states s, t and s~,
    each as ``_draw_states`` draws them, then the factors ``uniform(0, 1,
    m)`` that scale the s~.  So the samples depend on ``_CHUNK``, and not
    on the order in which the blocks are evaluated.  The columns are the
    contiguous rows of a C-order array; the yielded views are overwritten
    by the next block.
    """
    arrays = [np.empty((_CHUNK, grid.n_interior)) for _ in range(3)]
    for block, start in enumerate(range(0, n_samples, _CHUNK)):
        m = min(_CHUNK, n_samples - start)
        rng = np.random.default_rng((rng_seed, block))
        for array in arrays:
            _draw_states(grid, rng, amplitude, array[:m])
        arrays[-1][:m] *= rng.uniform(0.0, 1.0, m)[:, None]
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


def _shift_ratios(kind: SaturationKind, s: np.ndarray, pert: np.ndarray,
                  sig_s: np.ndarray, level: float, h: float) -> np.ndarray:
    """<s, sigma(s + s~) - sigma(s)> / ||s~|| for each column with s~ != 0."""
    sig_sp = _sat_values(kind, s + pert, level, h)
    return _ratios(h * np.vecdot(s, sig_sp - sig_s, axis=0), _column_norms(pert, h))


def _check_sweep(n_interior: int, n_samples: int, amplitude: float):
    """Reject sweep arguments whose sums would not be finite doubles.

    A difference of two samples is at most 2 * amplitude per node, so
    n * (2 * amplitude)^2 is the largest raw sum of squares the sweep forms.
    """
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    if not amplitude > 0:
        raise ParameterError("amplitude must be positive")
    width = 2.0 * amplitude
    if not math.isfinite(n_interior * width * width):
        raise ParameterError("sample amplitude %g overflows the sums of the sweep "
                             "on %d nodes" % (amplitude, n_interior))


def check_axioms(sigma: SaturationMap, grid: Grid, n_samples: int,
                 amplitude: float, rng_seed: int) -> AxiomReport:
    """Sweep randomized state pairs through all five axioms.

    Samples should straddle the saturation level (amplitude > level),
    otherwise the map is exercised only on its identity branch.  They come
    in blocks of ``_CHUNK``, each drawn from its own generator derived from
    (rng_seed, block index) in whole-block calls (``_sample_blocks``), so
    the report depends on ``_CHUNK`` but not on evaluation order.  Each
    sample is one column of its block; every axiom quantity is a column
    reduction, so the report is the one a sample-by-sample loop gives on
    the same states.
    """
    _check_sweep(grid.n_interior, n_samples, amplitude)
    h = grid.spacing_h
    level = sigma.level
    kind = sigma.kind
    bound_violations = 0
    monotonicity_violations = 0
    lipschitz_estimate = 0.0
    item4_max_residual = -math.inf
    item5_estimate = 0.0
    for s, t, pert in _sample_blocks(grid, n_samples, rng_seed, amplitude):
        sig_s = _sat_values(kind, s, level, h)
        sig_t = _sat_values(kind, t, level, h)
        d_sig = sig_s - sig_t
        d = s - t

        bound_violations += int(np.count_nonzero(_s_norm(kind, sig_s, h) > level))
        monotonicity_violations += int(np.count_nonzero(
            h * np.vecdot(d_sig, d, axis=0) < -1e-12))
        # max keeps the running value on a tie and on NaN
        lipschitz_estimate = max(lipschitz_estimate, _ratios(
            _column_norms(d_sig, h), _column_norms(d, h)).max(initial=-math.inf))
        residual = _sprime_norm(kind, sig_s - s, h) \
            - h * np.vecdot(sig_s, s, axis=0) / level
        item4_max_residual = max(item4_max_residual, residual.max(initial=-math.inf))
        item5_estimate = max(item5_estimate, _shift_ratios(
            kind, s, pert, sig_s, level, h).max(initial=-math.inf))
    return AxiomReport(
        bound_violations=bound_violations,
        monotonicity_violations=monotonicity_violations,
        lipschitz_estimate=lipschitz_estimate,
        item4_max_residual=item4_max_residual,
        item5_C0_estimate=item5_estimate,
        samples_used=n_samples,
    )
