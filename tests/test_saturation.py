import math

import numpy as np
import pytest

from satiss import Grid, ParameterError, StateVector, check_axioms, \
    estimate_item5_C0, hilbert_norm_map, norm_l2, norm_linf, \
    pointwise_linf_map
from satiss.saturation import _CHUNK, SaturationKind, SaturationMap, \
    _column_norms, _s_norm, _sat_values, _sprime_norm, apply_saturation

from conftest import L


def test_sat_pointwise_identity_inside_ball():
    g = Grid(L, 32)
    rng = np.random.default_rng(0)
    z = StateVector(g, rng.uniform(-0.99, 0.99, 32))
    out = apply_saturation(pointwise_linf_map(1.0, L), z)
    np.testing.assert_array_equal(out.values, z.values)


def test_sat_pointwise_clips_two_sine():
    g = Grid(L, 127)
    z = StateVector(g, 2.0 * np.sin(g.interior_nodes()))
    for level in (1.0, 0.3):
        out = apply_saturation(pointwise_linf_map(level, L), z)
        assert norm_linf(out) == level
        # node-wise clamp oracle
        expected = np.array([min(max(v, -level), level) for v in z.values])
        np.testing.assert_array_equal(out.values, expected)


def test_sat_pointwise_monotone_pairs():
    g = Grid(L, 63)
    rng = np.random.default_rng(42)
    a = rng.uniform(-3.0, 3.0, (10000, 63))
    b = rng.uniform(-3.0, 3.0, (10000, 63))
    pair = np.einsum("ij,ij->i", np.clip(a, -1, 1) - np.clip(b, -1, 1), a - b)
    assert np.min(pair) >= -1e-12


def test_sat_hilbert_branches():
    g = Grid(L, 64)
    base = np.sin(2.0 * g.interior_nodes())
    small = StateVector(g, base * (0.5 / norm_l2(StateVector(g, base))))
    sigma = hilbert_norm_map(1.0)
    out = apply_saturation(sigma, small)
    np.testing.assert_array_equal(out.values, small.values)

    big = StateVector(g, base * (2.0 / norm_l2(StateVector(g, base))))
    out = apply_saturation(sigma, big)
    np.testing.assert_allclose(out.values, big.values / 2.0, rtol=1e-12)
    assert norm_l2(out) == pytest.approx(1.0, rel=1e-12)
    assert norm_l2(out) <= 1.0

    zero = StateVector(g, np.zeros(64))
    np.testing.assert_array_equal(apply_saturation(sigma, zero).values, zero.values)


def test_saturation_idempotent_on_fixed_level():
    g = Grid(L, 48)
    rng = np.random.default_rng(7)
    for kind_map in (pointwise_linf_map(1.0, L), hilbert_norm_map(1.0)):
        for _ in range(50):
            z = StateVector(g, rng.uniform(-4.0, 4.0, 48))
            once = apply_saturation(kind_map, z)
            twice = apply_saturation(kind_map, once)
            np.testing.assert_array_equal(twice.values, once.values)


def test_saturation_map_validation():
    for level in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="positive and finite"):
            SaturationMap(SaturationKind.POINTWISE_LINF, level=level)
    with pytest.raises(ParameterError):
        hilbert_norm_map(math.inf)
    with pytest.raises(ParameterError):
        SaturationMap(SaturationKind.POINTWISE_LINF, lipschitz_k=0.5)
    with pytest.raises(ParameterError):
        SaturationMap(SaturationKind.HILBERT_NORM, item5_C0=0.0)


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
    with pytest.raises(ParameterError, match="overflows"):
        estimate_item5_C0(sigma, g, 10, amplitude, 0)


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
    g = Grid(L, 31)
    sigma = hilbert_norm_map(1.0)
    assert estimate_item5_C0(sigma, g, 200, 2.0, 0, perturbation_scale=0.0) == 0.0


def test_estimate_item5_hilbert_bound():
    g = Grid(L, 127)
    expected = {1.0: 0.16558898262922328, 2.0: 0.33117796525844656}
    for level in (1.0, 2.0):
        sigma = hilbert_norm_map(level)
        est = estimate_item5_C0(sigma, g, 2000, 3.0 * level, 1)
        assert 0.0 < est <= 3.0 * level
        assert est == expected[level]


def test_estimate_item5_pointwise_bound():
    g = Grid(L, 127)
    sigma = pointwise_linf_map(1.0, L)
    est = estimate_item5_C0(sigma, g, 2000, 3.0, 1)
    assert 0.0 < est <= math.sqrt(L) * 1.0 + 1e-10
    assert est == 0.9579237079364368


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


# Reports pinned to what a sample-by-sample evaluation gives, bit for bit:
# (n, n_samples, amplitude, seed, level) -> (bound, monotonicity,
# Lipschitz, item 4, item 5) of as_kv_text() per kind.
_GOLDEN_REPORTS = {
    "one_sample": ((127, 1, 3.0, 0, 1.0), {
        "pointwise_linf": (0, 0, "0.6759731520982043", "-4.226414707747896", "0"),
        "hilbert_norm": (0, 0, "0.31827186266829699", "-0.99999999999999867", "0"),
    }),
    # three full blocks and a partial one
    "partial_block": ((127, 785, 3.0, 0, 1.0), {
        "pointwise_linf": (0, 0, "1", "-0.61203632394174456", "1.190394001443386"),
        "hilbert_norm": (0, 0, "0.91449378126291103", "-0.61203632394174456",
                         "0.047274428756149865"),
    }),
    # amplitude below the level
    "unsaturated": ((63, 300, 0.1, 3, 1.0), {
        "pointwise_linf": (0, 0, "1", "-0.0006866536248521859", "0.15563474914198983"),
        "hilbert_norm": (0, 0, "1", "-0.0006866536248521859", "0.15563474914198983"),
    }),
    "level_half": ((31, 300, 1.5, 2, 0.5), {
        "pointwise_linf": (0, 0, "1", "-0.24963252647863696", "0.55194554956561548"),
        "hilbert_norm": (0, 0, "0.92232748490252214", "-0.24963252647863696",
                         "0.088301295014240097"),
    }),
}


def test_golden_sample_counts_span_blocks():
    assert 785 > _CHUNK and 785 % _CHUNK != 0


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


def test_estimate_item5_golden_values():
    # pinned to what a sample-by-sample evaluation gives; the first is the
    # demo's unit-scale Hilbert estimate
    g = Grid(L, 127)
    assert estimate_item5_C0(hilbert_norm_map(1.0), g, 5000, 3.0, 1,
                             perturbation_scale=1.0) == 0.07039303189194941
    assert estimate_item5_C0(pointwise_linf_map(1.0, L), g, 785, 3.0, 4,
                             perturbation_scale=0.5) == 0.7930809082114515
    assert estimate_item5_C0(hilbert_norm_map(1.0), g, 785, 3.0, 4) \
        == 0.10926100354394463
