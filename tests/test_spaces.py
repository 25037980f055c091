import math

import numpy as np
import pytest
import sympy

from satiss import Grid, GridMismatchError, StateVector, build_kdv_operator, \
    inner_l2, norm_graph, norm_l2, norm_linf, random_smooth_values
from satiss.saturation import SaturationKind, _sprime_norm
from satiss.spaces import _sine_basis, boundary_envelope

from conftest import L, dense_operator, random_states


def _l1_norm(z):
    """h sum |z_j|: the S'-norm the pointwise clamp's axioms read."""
    return float(_sprime_norm(SaturationKind.POINTWISE_LINF, z.values, z.grid.spacing_h))


def test_grid_spacing_invariant():
    for n in (3, 64, 127, 1000):
        g = Grid(L, n)
        assert abs(g.spacing_h * (n + 1) - L) <= 1e-12 * L
        x = g.interior_nodes()
        assert len(x) == n
        assert x[0] == pytest.approx(g.spacing_h)
        assert x[-1] == pytest.approx(L - g.spacing_h)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Grid(0.0, 10)
    with pytest.raises(ValueError):
        Grid(-1.0, 10)
    with pytest.raises(ValueError):
        Grid(1.0, 2)


def test_state_validation():
    g = Grid(L, 8)
    with pytest.raises(GridMismatchError):
        StateVector(g, np.zeros(7))
    with pytest.raises(ValueError):
        StateVector(g, [math.nan] * 8)
    z = StateVector(g, np.arange(8.0))
    with pytest.raises(ValueError):
        z.values[0] = 1.0  # stored values are read-only


def test_inner_l2_zero_vector():
    g = Grid(L, 16)
    zero = StateVector(g, np.zeros(16))
    other = StateVector(g, np.ones(16))
    assert inner_l2(zero, other) == 0.0


def test_inner_l2_constant_closed_form():
    n = 127
    g = Grid(L, n)
    ones = StateVector(g, np.ones(n))
    # h * sum(1) = h * n = L * n / (n + 1)
    expected = L * n / (n + 1)
    assert inner_l2(ones, ones) == pytest.approx(expected, rel=1e-12)


def test_inner_l2_sine_quadrature():
    g = Grid(L, 255)
    z = StateVector(g, np.sin(g.interior_nodes()))
    # int_0^{2 pi} sin^2 = pi
    assert inner_l2(z, z) == pytest.approx(math.pi, abs=1e-2)


def test_inner_l2_symmetric_bilinear_positive():
    g = Grid(L, 32)
    states = random_states(g, 30, seed=1)
    for a, b in zip(states[::2], states[1::2]):
        assert inner_l2(a, b) == pytest.approx(inner_l2(b, a), rel=1e-12)
        assert inner_l2(a, a) >= 0.0
    a, b, c = states[0], states[1], states[2]
    lhs = inner_l2(StateVector(g, 2.0 * a.values + b.values), c)
    assert lhs == pytest.approx(2.0 * inner_l2(a, c) + inner_l2(b, c), rel=1e-10)


def test_inner_l2_grid_mismatch():
    a = StateVector(Grid(L, 8), np.zeros(8))
    b = StateVector(Grid(L, 9), np.zeros(9))
    with pytest.raises(GridMismatchError):
        inner_l2(a, b)


def test_norms_zero_state():
    g = Grid(L, 12)
    z = StateVector(g, np.zeros(12))
    assert norm_l2(z) == 0.0
    assert _l1_norm(z) == 0.0
    assert norm_linf(z) == 0.0


def test_norms_constant_closed_forms():
    n, c = 200, -1.75
    g = Grid(L, n)
    z = StateVector(g, np.full(n, c))
    assert norm_linf(z) == abs(c)
    assert _l1_norm(z) == pytest.approx(abs(c) * g.spacing_h * n, rel=1e-12)
    assert _l1_norm(z) == pytest.approx(abs(c) * L, rel=1e-2)
    assert norm_l2(z) == pytest.approx(abs(c) * math.sqrt(L), rel=1e-2)


def test_norm_l2_consistent_with_inner():
    g = Grid(L, 64)
    for z in random_states(g, 50, seed=2):
        assert norm_l2(z) ** 2 == pytest.approx(inner_l2(z, z), rel=1e-12)


def test_cauchy_schwarz_sampled():
    g = Grid(L, 48)
    states = random_states(g, 400, seed=3)
    for a, b in zip(states[::2], states[1::2]):
        assert abs(inner_l2(a, b)) <= norm_l2(a) * norm_l2(b) * (1.0 + 1e-12)


def test_hoelder_chain_sampled():
    g = Grid(L, 48)
    root_l = math.sqrt(L)
    for z in random_states(g, 1000, seed=4, amplitude=5.0):
        assert _l1_norm(z) <= root_l * norm_l2(z) * (1.0 + 1e-12)
        assert root_l * norm_l2(z) <= L * norm_linf(z) * (1.0 + 1e-12)


def test_norms_homogeneous_and_triangle():
    g = Grid(L, 40)
    states = random_states(g, 60, seed=5)
    for nrm in (_l1_norm, norm_l2, norm_linf):
        for a, b in zip(states[::2], states[1::2]):
            scaled = StateVector(g, -3.5 * a.values)
            assert nrm(scaled) == pytest.approx(3.5 * nrm(a), rel=1e-12)
            total = StateVector(g, a.values + b.values)
            assert nrm(total) <= nrm(a) + nrm(b) + 1e-12


def test_norm_graph_zero_state(kdv127, grid127):
    z = StateVector(grid127, np.zeros(grid127.n_interior))
    assert norm_graph(z, kdv127) == 0.0


def test_norm_graph_zero_operator():
    g = Grid(L, 16)
    zero_op = dense_operator(g, np.zeros((16, 16)))
    for z in random_states(g, 20, seed=6):
        assert norm_graph(z, zero_op) == pytest.approx(norm_l2(z), rel=1e-12)


def test_norm_graph_grid_mismatch(kdv127):
    z = StateVector(Grid(L, 64), np.zeros(64))
    with pytest.raises(GridMismatchError):
        norm_graph(z, kdv127)


def test_norm_graph_matches_symbolic_quadrature():
    # profile with flat jets at both walls so the ghost closures stay
    # pointwise consistent; oracle = symbolic derivatives + fine quadrature
    n = 128
    g = Grid(L, n)
    A = build_kdv_operator(g)
    xs = sympy.symbols("x")
    f = xs**4 * (L - xs) ** 4 * sympy.sin(xs)
    image = -sympy.diff(f, xs) - sympy.diff(f, xs, 3)
    f_np = sympy.lambdify(xs, f, "numpy")
    image_np = sympy.lambdify(xs, image, "numpy")
    fine = np.linspace(0.0, L, 200001)
    cont = (math.sqrt(np.trapezoid(f_np(fine) ** 2, fine))
            + math.sqrt(np.trapezoid(image_np(fine) ** 2, fine)))
    z = StateVector(g, f_np(g.interior_nodes()))
    assert norm_graph(z, A) == pytest.approx(cont, rel=0.05)


@pytest.mark.parametrize("n", [31, 127, 2047])
def test_random_smooth_values_cached_basis_bit_for_bit(n):
    # the cached sine table must reproduce the series evaluated term by term
    g = Grid(L, n)
    x = g.interior_nodes()
    for n_modes, mode_decay in ((8, 1.5), (12, 3.0)):
        for envelope in (False, True):
            for seed in range(5):
                coeffs = np.random.default_rng(seed).standard_normal(n_modes)
                expected = np.zeros(n)
                for j in range(1, n_modes + 1):
                    expected += coeffs[j - 1] * j ** (-mode_decay) \
                        * np.sin(j * np.pi * x / L)
                if envelope:
                    expected = expected * boundary_envelope(g)
                got = random_smooth_values(g, np.random.default_rng(seed), n_modes,
                                           mode_decay, envelope)
                np.testing.assert_array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))
    basis = _sine_basis(g, 8)
    assert basis is _sine_basis(Grid(L, n), 8)
    assert not basis.flags.writeable


class _Coefficients:
    """Stands in for a generator, handing out one fixed coefficient row."""

    def __init__(self, row):
        self.row = row

    def standard_normal(self, size):
        assert size == len(self.row)
        return self.row.copy()


def test_random_smooth_values_size_rows_match_single_states():
    # size=k draws one (k, n_modes) coefficient block; row i is bit for bit
    # the single state of coefficient row i
    g = Grid(L, 127)
    for n_modes, mode_decay, envelope in ((8, 1.5, False), (12, 3.0, True)):
        rng = np.random.default_rng((3, 1))
        block = random_smooth_values(g, rng, n_modes, mode_decay, envelope, size=7)
        assert block.shape == (7, 127)
        alone = np.random.default_rng((3, 1))
        coeffs = alone.standard_normal((7, n_modes))
        assert rng.bit_generator.state == alone.bit_generator.state
        for i in range(7):
            single = random_smooth_values(g, _Coefficients(coeffs[i]), n_modes,
                                          mode_decay, envelope)
            assert single.shape == (127,)
            np.testing.assert_array_equal(block[i], single)
            assert np.array_equal(np.signbit(block[i]), np.signbit(single))
    assert random_smooth_values(g, np.random.default_rng(0), size=0).shape == (0, 127)
