import math

import numpy as np
import pytest

from satiss import Grid, ParameterError, StateVector, check_axioms, \
    hilbert_norm_map, norm_l2, norm_linf, pointwise_linf_map
from satiss.saturation import _CHUNK, AxiomReport, SaturationKind, SaturationMap, \
    _column_norms, _draw_states, _s_norm, _sample_blocks, _sat_values, \
    _shift_ratios, _sprime_norm

from conftest import L

POINTWISE, HILBERT = SaturationKind.POINTWISE_LINF, SaturationKind.HILBERT_NORM


def test_sat_pointwise_identity_inside_ball():
    g = Grid(L, 32)
    rng = np.random.default_rng(0)
    z = rng.uniform(-0.99, 0.99, 32)
    np.testing.assert_array_equal(_sat_values(POINTWISE, z, 1.0, g.spacing_h), z)


def test_sat_pointwise_clips_two_sine():
    g = Grid(L, 127)
    z = 2.0 * np.sin(g.interior_nodes())
    for level in (1.0, 0.3):
        out = _sat_values(POINTWISE, z, level, g.spacing_h)
        assert norm_linf(StateVector(g, out)) == level
        # node-wise clamp oracle
        expected = np.array([min(max(v, -level), level) for v in z])
        np.testing.assert_array_equal(out, expected)


def test_sat_pointwise_monotone_pairs():
    g = Grid(L, 63)
    rng = np.random.default_rng(42)
    a = rng.uniform(-3.0, 3.0, (10000, 63))
    b = rng.uniform(-3.0, 3.0, (10000, 63))
    pair = np.einsum("ij,ij->i", np.clip(a, -1, 1) - np.clip(b, -1, 1), a - b)
    assert np.min(pair) >= -1e-12


def test_sat_hilbert_branches():
    g = Grid(L, 64)
    h = g.spacing_h
    base = np.sin(2.0 * g.interior_nodes())
    small = base * (0.5 / norm_l2(StateVector(g, base)))
    np.testing.assert_array_equal(_sat_values(HILBERT, small, 1.0, h), small)

    big = base * (2.0 / norm_l2(StateVector(g, base)))
    out = StateVector(g, _sat_values(HILBERT, big, 1.0, h))
    np.testing.assert_allclose(out.values, big / 2.0, rtol=1e-12)
    assert norm_l2(out) == pytest.approx(1.0, rel=1e-12)
    assert norm_l2(out) <= 1.0

    zero = np.zeros(64)
    np.testing.assert_array_equal(_sat_values(HILBERT, zero, 1.0, h), zero)


def test_saturation_idempotent_on_fixed_level():
    g = Grid(L, 48)
    rng = np.random.default_rng(7)
    for kind in (POINTWISE, HILBERT):
        for _ in range(50):
            z = rng.uniform(-4.0, 4.0, 48)
            once = _sat_values(kind, z, 1.0, g.spacing_h)
            twice = _sat_values(kind, once, 1.0, g.spacing_h)
            np.testing.assert_array_equal(twice, once)


def test_saturation_map_validation():
    for level in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="positive and finite"):
            SaturationMap(SaturationKind.POINTWISE_LINF, level=level)
    with pytest.raises(ParameterError):
        hilbert_norm_map(math.inf)
    with pytest.raises(ParameterError):
        SaturationMap(SaturationKind.POINTWISE_LINF, lipschitz_k=0.5)
    for C0 in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="C0 must be positive and finite"):
            SaturationMap(SaturationKind.HILBERT_NORM, item5_C0=C0)
    with pytest.raises(ParameterError, match="C0"):
        hilbert_norm_map(1e308)  # C0 = 3 level overflows


@pytest.mark.parametrize("k", [math.nan, math.inf])
def test_saturation_map_rejects_non_finite_lipschitz(k):
    # nan < 1 is False, so a lower bound alone lets a NaN through, and the
    # gap's conservative bound would read all NaN with no violation counted
    with pytest.raises(ParameterError, match="Lipschitz constant .* got %r" % k):
        SaturationMap(SaturationKind.POINTWISE_LINF, lipschitz_k=k)


def test_check_axioms_rejects_bad_arguments():
    g = Grid(L, 16)
    sigma = hilbert_norm_map(1.0)
    with pytest.raises(ParameterError):
        check_axioms(sigma, g, 0, 1.0, 0)
    with pytest.raises(ParameterError):
        check_axioms(sigma, g, 10, 0.0, 0)


@pytest.mark.parametrize("amplitude", [1e154, 3e300, math.inf])
def test_sweeps_reject_overflowing_amplitude(amplitude):
    # n (2 amplitude)^2 is not a finite double: a sum of squares of the
    # sweep would overflow
    g = Grid(L, 127)
    assert not math.isfinite(127 * (2.0 * amplitude) * (2.0 * amplitude))
    sigma = pointwise_linf_map(1.0, L)
    with pytest.raises(ParameterError, match="overflows"):
        check_axioms(sigma, g, 10, amplitude, 0)


def test_sweep_accepts_large_finite_amplitude():
    # an amplitude far above the level whose n (2 amplitude)^2 stays finite
    g = Grid(L, 31)
    amplitude = 1e152
    assert math.isfinite(31 * (2.0 * amplitude) ** 2)
    report = check_axioms(pointwise_linf_map(amplitude / 3.0, L), g, 20, amplitude, 0)
    assert report.bound_violations == 0 and report.monotonicity_violations == 0
    assert math.isfinite(report.item4_max_residual)


def test_check_axioms_hilbert_quick():
    g = Grid(L, 127)
    sigma = hilbert_norm_map(1.0)
    report = check_axioms(sigma, g, 500, 3.0, rng_seed=0)
    assert report.samples_used == 500
    assert report.bound_violations == 0
    assert report.monotonicity_violations == 0
    assert report.lipschitz_estimate <= 3.0
    assert report.item4_max_residual <= 1e-10
    assert report.item5_C0_estimate <= sigma.item5_C0 + 1e-10


def test_check_axioms_pointwise_quick():
    g = Grid(L, 127)
    sigma = pointwise_linf_map(1.0, L)
    report = check_axioms(sigma, g, 500, 3.0, rng_seed=0)
    assert report.bound_violations == 0
    assert report.monotonicity_violations == 0
    assert report.lipschitz_estimate <= 1.0 + 1e-12
    assert report.item4_max_residual <= 1e-10
    assert report.item5_C0_estimate <= sigma.item5_C0 + 1e-10


def test_check_axioms_unsaturated_regime():
    # amplitude far below the level: sigma acts as the identity and the
    # defect residual stays non-positive
    g = Grid(L, 63)
    for sigma in (pointwise_linf_map(1.0, L), hilbert_norm_map(1.0)):
        report = check_axioms(sigma, g, 300, 0.1, rng_seed=3)
        assert report.item4_max_residual <= 0.0
        assert report.bound_violations == 0


def test_check_axioms_deterministic():
    g = Grid(L, 31)
    sigma = pointwise_linf_map(1.0, L)
    a = check_axioms(sigma, g, 200, 2.0, rng_seed=9)
    b = check_axioms(sigma, g, 200, 2.0, rng_seed=9)
    assert a == b


def test_estimate_item5_zero_perturbation():
    # a vanishing s~ gives no ratio, so the sweep's estimate keeps its start 0
    g = Grid(L, 31)
    s = np.random.default_rng(0).uniform(-2.0, 2.0, (31, 5))
    sig_s = _sat_values(HILBERT, s, 1.0, g.spacing_h)
    assert _shift_ratios(HILBERT, s, np.zeros_like(s), sig_s, 1.0, g.spacing_h).size == 0


def test_estimate_item5_hilbert_bound():
    # the sweep's shift-constant estimate is within the declared C0 = 3 level
    # and, the samples scaling with the level, proportional to it
    g = Grid(L, 127)
    est = {level: check_axioms(hilbert_norm_map(level), g, 2000, 3.0 * level,
                               1).item5_C0_estimate for level in (1.0, 2.0)}
    for level in (1.0, 2.0):
        assert 0.0 < est[level] <= 3.0 * level
    assert est[1.0] == 0.25876405119170925
    assert est[2.0] == 2.0 * est[1.0]


def test_estimate_item5_pointwise_bound():
    g = Grid(L, 127)
    est = check_axioms(pointwise_linf_map(1.0, L), g, 2000, 3.0, 1).item5_C0_estimate
    assert 0.0 < est <= math.sqrt(L) * 1.0 + 1e-10
    assert est == 1.278555020167227


def test_level_scaling_of_declared_constants():
    sigma = pointwise_linf_map(0.25, L)
    assert sigma.item5_C0 == pytest.approx(0.25 * math.sqrt(L), rel=1e-12)
    sigma = hilbert_norm_map(0.25)
    assert sigma.item5_C0 == pytest.approx(0.75, rel=1e-12)


def test_axiom_report_kv_text():
    g = Grid(L, 31)
    report = check_axioms(pointwise_linf_map(1.0, L), g, 50, 2.0, rng_seed=5)
    text = report.as_kv_text()
    lines = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert set(lines) == {"bound_violations", "monotonicity_violations",
                          "lipschitz_estimate", "item4_max_residual",
                          "item5_C0_estimate", "samples_used"}
    assert lines["samples_used"] == "50"


def test_sat_values_block_matches_columns_bit_for_bit():
    # the integrator saturates a column-major (n, m) block of members and the
    # axiom sweep the transpose of a C-order (m, n) block of samples; each
    # column must equal the single-state map exactly, round-up guard included
    g = Grid(L, 127)
    h = g.spacing_h
    rng = np.random.default_rng(4)
    members = np.asfortranarray(rng.uniform(-3.0, 3.0, (127, 64)))
    members[:, :8] *= 0.05  # inside the unit ball
    rows = rng.uniform(-3.0, 3.0, (64, 127))
    rows[:8] *= 0.05
    for block in (members, rows.T):
        assert block.flags.f_contiguous
        norms = np.sqrt(h * np.array([np.dot(c, c) for c in block.T]))
        for kind in SaturationKind:
            out = _sat_values(kind, block, 1.0, h)
            assert out.shape == block.shape
            for j in range(64):
                np.testing.assert_array_equal(
                    out[:, j], _sat_values(kind, block[:, j].copy(), 1.0, h))
        out = _sat_values(SaturationKind.HILBERT_NORM, block, 1.0, h)
        guarded = [j for j in range(8, 64)
                   if np.any(out[:, j] != block[:, j] * (1.0 / norms[j]))]
        assert guarded  # the round-up guard fired on some columns
        np.testing.assert_array_equal(out[:, :8], block[:, :8])


def test_column_reductions_match_single_states_bit_for_bit():
    # the sweep reduces the columns of the transpose of a C-order sample
    # block; each must give what the per-state formula gives on that state
    g = Grid(L, 127)
    h = g.spacing_h
    rng = np.random.default_rng(11)
    rows = rng.uniform(-3.0, 3.0, (_CHUNK, 127))[:_CHUNK - 5]
    other = rng.uniform(-3.0, 3.0, rows.shape)
    pointwise, hilbert = SaturationKind.POINTWISE_LINF, SaturationKind.HILBERT_NORM
    l2 = _column_norms(rows.T, h)
    sup = _s_norm(pointwise, rows.T, h)
    l1 = _sprime_norm(pointwise, rows.T, h)
    dots = h * np.vecdot(rows.T, other.T, axis=0)
    np.testing.assert_array_equal(_s_norm(hilbert, rows.T, h), l2)
    np.testing.assert_array_equal(_sprime_norm(hilbert, rows.T, h), l2)
    for i in range(len(rows)):
        single = rows[i].copy()
        assert l2[i] == math.sqrt(h * float(np.dot(single, single)))
        assert sup[i] == float(np.max(np.abs(single)))
        assert l1[i] == float(h * np.sum(np.abs(single)))
        assert dots[i] == h * float(np.dot(single, other[i].copy()))


# Reports pinned bit for bit to ``_oracle_report`` on ``_oracle_samples``
# (below), which draws as the stream contract says and evaluates one sample
# at a time: (n, n_samples, amplitude, seed, level) -> (bound, monotonicity,
# Lipschitz, item 4, item 5) of as_kv_text() per kind.
_GOLDEN_REPORTS = {
    "one_sample": ((127, 1, 3.0, 0, 1.0), {
        "pointwise_linf": (0, 0, "0.6759731520982043", "-4.226414707747896", "0"),
        "hilbert_norm": (0, 0, "0.31827186266829699", "-0.99999999999999867", "0"),
    }),
    # three full blocks and a partial one
    "partial_block": ((127, 785, 3.0, 0, 1.0), {
        "pointwise_linf": (0, 0, "1", "-0.51736946784014393", "1.0147348366042797"),
        "hilbert_norm": (0, 0, "0.86589764268937308", "-0.51736946784014393",
                         "0.08432499713614576"),
    }),
    # amplitude below the level
    "unsaturated": ((63, 300, 0.1, 3, 1.0), {
        "pointwise_linf": (0, 0, "1", "-0.000520699891819504", "0.13630385778811396"),
        "hilbert_norm": (0, 0, "1", "-0.000520699891819504", "0.13630385778811396"),
    }),
    "level_half": ((31, 300, 1.5, 2, 0.5), {
        "pointwise_linf": (0, 0, "1", "-0.32625039655921767", "0.57459921067138442"),
        "hilbert_norm": (0, 0, "0.91834586882531333", "-0.32625039655921767", "0"),
    }),
    # the CLI's `satiss axioms <kind> 1.0` sweep, 39 full blocks and a partial one
    "cli_sweep": ((127, 10000, 3.0, 0, 1.0), {
        "pointwise_linf": (0, 0, "1", "-0.40833892497342422", "1.5677587863509379"),
        "hilbert_norm": (0, 0, "1", "-0.40833892497342422", "0.66684003732050634"),
    }),
    "ten_thousand_level_half": ((63, 10000, 1.5, 7, 0.5), {
        "pointwise_linf": (0, 0, "1", "-0.18742543888575072", "0.80883152184605034"),
        "hilbert_norm": (0, 0, "1", "-0.18742543888575072", "0.37044702490966447"),
    }),
}


def test_golden_sample_counts_span_blocks():
    for n_samples in (785, 10000):
        assert n_samples > _CHUNK and n_samples % _CHUNK != 0


@pytest.mark.parametrize("name", sorted(_GOLDEN_REPORTS))
def test_check_axioms_golden_reports(name):
    (n, n_samples, amplitude, seed, level), expected = _GOLDEN_REPORTS[name]
    g = Grid(L, n)
    for sigma in (pointwise_linf_map(level, L), hilbert_norm_map(level)):
        bound, mono, lip, item4, item5 = expected[sigma.kind.value]
        text = ("bound_violations=%d\nmonotonicity_violations=%d\n"
                "lipschitz_estimate=%s\nitem4_max_residual=%s\n"
                "item5_C0_estimate=%s\nsamples_used=%d\n"
                % (bound, mono, lip, item4, item5, n_samples))
        assert check_axioms(sigma, g, n_samples, amplitude, seed).as_kv_text() == text


@pytest.mark.parametrize("name", ["one_sample", "partial_block", "unsaturated",
                                  "level_half"])
def test_golden_reports_are_oracle_reports(name):
    # the 10^4-sample rows were pinned from the same oracle, which takes
    # seconds at that size
    (n, n_samples, amplitude, seed, level), _ = _GOLDEN_REPORTS[name]
    g = Grid(L, n)
    samples = _oracle_samples(g, n_samples, seed, amplitude)
    for sigma in (pointwise_linf_map(level, L), hilbert_norm_map(level)):
        assert check_axioms(sigma, g, n_samples, amplitude, seed).as_kv_text() \
            == _oracle_report(sigma, g, samples)


def test_estimate_item5_golden_values():
    # pinned to what the oracle below gives; the first is the Hilbert
    # estimate the axioms demo prints last
    g = Grid(L, 127)

    def item5(sigma, n_samples, seed):
        return check_axioms(sigma, g, n_samples, 3.0, seed).item5_C0_estimate
    assert item5(hilbert_norm_map(1.0), 5000, 1) == 0.3524158255870098
    assert item5(pointwise_linf_map(1.0, L), 785, 4) == 0.9942719674486751
    assert item5(hilbert_norm_map(1.0), 785, 4) == 0.0026249829195692043


def _oracle_states(grid, rng, m, amplitude):
    """m states from the block calls of the stream contract, each built on
    its own draws with the single-state formulas: a rough row as drawn, or
    the 8-mode series summed term by term and scaled to its fraction."""
    n, x = grid.n_interior, grid.interior_nodes()
    rough = rng.random(m) < 0.5
    k = int(np.count_nonzero(rough))
    rows = iter(rng.uniform(-amplitude, amplitude, (k, n)))
    coeffs = iter(rng.standard_normal((m - k, 8)))
    fractions = iter(rng.uniform(0.2, 1.0, m - k))
    states = []
    for is_rough in rough:
        if is_rough:
            states.append(next(rows))
            continue
        c, fraction = next(coeffs), next(fractions)
        v = np.zeros(n)
        for j in range(1, 9):
            v += c[j - 1] * j ** (-1.5) * np.sin(j * np.pi * x / grid.length_L)
        peak = np.abs(v).max()
        states.append(np.zeros(n) if peak == 0.0 else v * (amplitude * fraction / peak))
    return states


def _oracle_samples(grid, n_samples, seed, amplitude):
    """(s, t, s~) of every sample: block b of 256 samples draws from
    default_rng((seed, b)) the states s, t and s~, then the factors of s~."""
    samples = []
    for block, start in enumerate(range(0, n_samples, 256)):
        m = min(256, n_samples - start)
        rng = np.random.default_rng((seed, block))
        s, t, pert = [_oracle_states(grid, rng, m, amplitude) for _ in range(3)]
        factors = rng.uniform(0.0, 1.0, m)
        samples += [(s[i], t[i], pert[i] * factors[i]) for i in range(m)]
    return samples


def _oracle_report(sigma, grid, samples):
    """as_kv_text() of the five axioms evaluated one sample at a time."""
    kind, level, h = sigma.kind, sigma.level, grid.spacing_h

    def norm(v):
        return math.sqrt(h * float(np.dot(v, v)))

    bound = mono = 0
    lip, item4, item5 = 0.0, -math.inf, 0.0
    for s, t, pert in samples:
        sig_s, sig_t = _sat_values(kind, s, level, h), _sat_values(kind, t, level, h)
        defect = sig_s - s
        if kind is POINTWISE:
            bound += float(np.max(np.abs(sig_s))) > level
            s_prime = float(h * np.sum(np.abs(defect)))
        else:
            bound += norm(sig_s) > level
            s_prime = norm(defect)
        mono += h * float(np.dot(sig_s - sig_t, s - t)) < -1e-12
        if norm(s - t) > 0:
            lip = max(lip, norm(sig_s - sig_t) / norm(s - t))
        item4 = max(item4, s_prime - h * float(np.dot(sig_s, s)) / level)
        if norm(pert) > 0:
            shift = _sat_values(kind, s + pert, level, h) - sig_s
            item5 = max(item5, h * float(np.dot(s, shift)) / norm(pert))
    return AxiomReport(bound, mono, lip, item4, item5, len(samples)).as_kv_text()


@pytest.mark.parametrize("amplitude", [3.0, 0.1])
def test_block_sampler_matches_block_oracle(amplitude):
    g = Grid(L, 127)
    n_samples, seed = 785, 6
    columns = [[], [], []]
    for blocks in _sample_blocks(g, n_samples, seed, amplitude):
        for column, block in zip(columns, blocks):
            assert block.shape[0] == 127 and block.shape[1] <= _CHUNK
            column.extend(block.T.copy())
    samples = _oracle_samples(g, n_samples, seed, amplitude)
    assert len(samples) == n_samples
    for i, expected in enumerate(samples):
        for column, state in zip(columns, expected):
            np.testing.assert_array_equal(column[i], state)
            assert np.array_equal(np.signbit(column[i]), np.signbit(state))
    first_family = np.random.default_rng((seed, 0)).random(_CHUNK) < 0.5
    assert 0 < np.count_nonzero(first_family) < _CHUNK  # both families were drawn


class _ZeroSeries:
    """A generator whose series coefficients are all zero, so that every
    smooth state has peak 0; it consumes the inner generator's draws as
    usual."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)

    def random(self, size):
        return self.inner.random(size)

    def uniform(self, low, high, size):
        return self.inner.uniform(low, high, size)

    def standard_normal(self, size):
        self.inner.standard_normal(size)
        return np.zeros(size)


def test_zero_peak_rows_are_zero_states():
    # a smooth row whose series has a zero peak is the zero state, and
    # still draws its scale fraction, so the rows after it keep their draws
    g = Grid(L, 63)
    rng, oracle = _ZeroSeries((1, 0)), _ZeroSeries((1, 0))
    for m in (40, 40, 1):
        out = np.full((m, 63), np.nan)
        _draw_states(g, rng, 3.0, out)
        expected = _oracle_states(g, oracle, m, 3.0)
        for row, state in zip(out, expected):
            np.testing.assert_array_equal(row, state)
            assert np.array_equal(np.signbit(row), np.signbit(state))
        assert rng.inner.bit_generator.state == oracle.inner.bit_generator.state
        if m > 1:
            assert 0 < np.count_nonzero(np.all(out == 0.0, axis=1)) < m
