import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest
import sympy
from numpy.lib.array_utils import byte_bounds

from scipy import sparse

from satiss import DissipativityGateFailed, DisturbanceSignal, Grid, \
    GridMismatchError, ParameterError, SaturatedSystem, SimulationDiverged, \
    StateVector, build_kdv_operator, linear_loop_operator, measure_decay_constant, \
    norm_l2, simulate, smooth_initial_data
from satiss import iss
from satiss.cli import main
from satiss.iss import gronwall_gap
from satiss.saturation import hilbert_norm_map, pointwise_linf_map
from satiss.system import _BLOCK_ROWS, LinearOperator, Trajectory, _ImexStepper, \
    dissipativity_gate

from conftest import L, dense_operator, simulate_states


def test_kdv_matrix_matches_hand_assembly():
    g = Grid(L, 5)
    A = build_kdv_operator(g)
    h = g.spacing_h
    c1, c3 = 1.0 / h, 1.0 / (2.0 * h**3)
    hand = np.array([
        [-c1,        2 * c3,     -c3,        0.0,        0.0],
        [c1 - 2*c3,  -c1,         2 * c3,    -c3,        0.0],
        [c3,         c1 - 2*c3,  -c1,         2 * c3,    -c3],
        [0.0,        c3,          c1 - 2*c3, -c1,         2 * c3],
        [0.0,        0.0,         c3,         c1 - 2*c3, -c1 - c3],
    ])
    np.testing.assert_array_equal(A.matrix, hand)


def test_kdv_needs_five_nodes():
    with pytest.raises(ParameterError):
        build_kdv_operator(Grid(L, 4))


def test_kdv_operator_consistency_first_order():
    # apply the stencil to a profile with flat jets at the walls and
    # compare against symbolic derivatives: sup error halves per doubling
    xs = sympy.symbols("x")
    f = xs**4 * (L - xs) ** 4 * sympy.sin(xs)
    image = -sympy.diff(f, xs) - sympy.diff(f, xs, 3)
    f_np = sympy.lambdify(xs, f, "numpy")
    image_np = sympy.lambdify(xs, image, "numpy")
    errors = []
    for n in (128, 256, 512):
        g = Grid(L, n)
        A = build_kdv_operator(g)
        x = g.interior_nodes()
        errors.append(float(np.max(np.abs(A @ f_np(x) - image_np(x)))))
    assert errors[0] / errors[1] >= 1.8
    assert errors[1] / errors[2] >= 1.8


def test_dissipativity_gate_passes(kdv127):
    assert dissipativity_gate(kdv127) is kdv127
    assert kdv127.max_symmetric_eigenvalue < 0.0


def test_max_symmetric_eigenvalue_examples(grid127, kdv127):
    n = grid127.n_interior
    minus_identity = dense_operator(grid127, -np.eye(n))
    assert minus_identity.max_symmetric_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    rng = np.random.default_rng(1)
    raw = rng.standard_normal((n, n))
    skew = dense_operator(grid127, raw - raw.T)
    assert skew.max_symmetric_eigenvalue <= 1e-12

    assert kdv127.max_symmetric_eigenvalue < 0.0


def _assert_spectra_match_dense(op):
    m = op.matrix
    sym = np.linalg.eigvalsh(0.5 * (m + m.T))
    assert op.max_symmetric_eigenvalue == pytest.approx(sym[-1], rel=1e-10)


@pytest.mark.parametrize("n", [5, 127, 1023])
def test_banded_spectra_match_dense(n):
    A = build_kdv_operator(Grid(L, n))
    assert A.bandwidth == 2
    _assert_spectra_match_dense(A)
    _assert_spectra_match_dense(linear_loop_operator(A))


def test_banded_spectra_of_full_band_operator(grid127):
    rng = np.random.default_rng(3)
    op = dense_operator(grid127, rng.standard_normal((127, 127)))
    assert op.bandwidth == 126
    _assert_spectra_match_dense(op)
    zero = LinearOperator(grid127, [np.zeros(127)])
    assert (zero.bandwidth, zero.max_symmetric_eigenvalue) == (0, 0.0)
    # conservative, not dissipative: -sym(A) = 0 has no Cholesky factor
    with pytest.raises(DissipativityGateFailed) as info:
        dissipativity_gate(zero)
    assert (info.value.lambda_max, info.value.order) == (0.0, 1)


def test_band_csc_equals_dense_conversion(kdv127):
    dense = sparse.csc_matrix(kdv127.matrix)
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(kdv127.csc, part), getattr(dense, part))


def test_gate_rejects_shifted_operator(grid127, kdv127):
    assert dissipativity_gate(kdv127) is kdv127
    shifted = dense_operator(grid127, kdv127.matrix + 0.1 * np.eye(127))
    with pytest.raises(DissipativityGateFailed) as info:
        dissipativity_gate(shifted)
    assert info.value.lambda_max == pytest.approx(
        kdv127.max_symmetric_eigenvalue + 0.1, rel=1e-10)
    assert info.value.lambda_max.hex() == "0x1.80127a377afbfp-4"
    # the order is that of the first leading minor of -sym(A) that dense
    # LAPACK cannot factor either
    m = shifted.matrix
    minus_sym, k = -0.5 * (m + m.T), info.value.order
    np.linalg.cholesky(minus_sym[:k - 1, :k - 1])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(minus_sym[:k, :k])


def _shifted_kdv(A, scale, eps):
    """The operator scale A + eps I, from A's band."""
    band = [scale * d for d in A.band]
    band[A.bandwidth] = band[A.bandwidth] + eps
    return LinearOperator(A.grid, band)


@pytest.mark.parametrize("n, top", [(127, None), (2047, None), (127, 1e306)],
                         ids=["n127", "n2047", "entries_1e306"])
def test_gate_is_sharp_at_lambda_max(n, top):
    # A + eps I is dissipative exactly for eps < |lambda_max(sym A)|: the
    # gate passes it 1 % below that shift and refuses it 1 % above, also
    # with entries near the top of the double range
    kdv = build_kdv_operator(Grid(L, n))
    scale = 1.0 if top is None else top / max(np.max(np.abs(d)) for d in kdv.band)
    A = _shifted_kdv(kdv, scale, 0.0)
    lam = A.max_symmetric_eigenvalue
    assert lam < 0.0 and dissipativity_gate(A) is A
    below = _shifted_kdv(kdv, scale, -0.99 * lam)
    assert dissipativity_gate(below) is below
    above = _shifted_kdv(kdv, scale, -1.01 * lam)
    with pytest.raises(DissipativityGateFailed) as info:
        dissipativity_gate(above)
    assert info.value.lambda_max == pytest.approx(0.01 * -lam, rel=1e-3)


def test_gate_refuses_a_band_with_nan(kdv127):
    band = list(kdv127.band)
    band[1] = np.where(np.arange(126) == 60, math.nan, band[1])
    with pytest.raises(DissipativityGateFailed) as info:
        dissipativity_gate(LinearOperator(kdv127.grid, band))
    assert math.isnan(info.value.lambda_max) and info.value.order == 62


@pytest.mark.parametrize("n, measured", [(127, -6.2324e-3), (2047, -3.8387e-4)])
def test_gate_margin_closed_form(n, measured):
    # sym(A) = (c1/2) tridiag(1, -2, 1) - c3 e_n e_n^T + E: its second
    # diagonal is 0.5 c3 + 0.5 (-c3) = 0 exactly, and E is the rounding of
    # its first, 0.5 (c1 - 2 c3) + c3 against c1 / 2.  By Weyl,
    # lambda_max(sym A) <= -2 c1 sin^2(pi / (2 (n + 1))) + ||E||_2, and
    # ||E||_2 <= 2 max |e| for the symmetric tridiagonal E of off-diagonal e
    A = build_kdv_operator(Grid(L, n))
    c1, p = 1.0 / A.grid.spacing_h, A.bandwidth
    assert not np.any(0.5 * A.band[p - 2] + 0.5 * A.band[p + 2])
    e = 0.5 * A.band[p - 1] + 0.5 * A.band[p + 1] - 0.5 * c1
    bound = -2.0 * c1 * math.sin(math.pi / (2 * (n + 1))) ** 2 + 2.0 * np.max(np.abs(e))
    lam = A.max_symmetric_eigenvalue
    assert lam <= bound < 0.0
    assert lam == pytest.approx(measured, rel=1e-4)


#: float.hex of (lambda_max(sym op), C = -2 lambda_max) for op = A and A - I,
#: the KdV operator on [0, 2 pi], as computed from the width-2 symmetric band
SPECTRAL_GOLDENS = {
    127: (("-0x1.9871f621ea401p-8", "0x1.9871f621ea401p-7"),
          ("-0x1.019871f621ea5p+0", "0x1.019871f621ea5p+1")),
    2047: (("-0x1.92841325bffffp-12", "0x1.92841325bffffp-11"),
           ("-0x1.00192841325bfp+0", "0x1.00192841325bfp+1")),
}


@pytest.mark.parametrize("n", sorted(SPECTRAL_GOLDENS))
def test_spectral_constants_golden(n):
    A = build_kdv_operator(Grid(L, n))
    for op, (lam, C) in zip((A, linear_loop_operator(A)), SPECTRAL_GOLDENS[n]):
        assert op.max_symmetric_eigenvalue.hex() == lam
        assert measure_decay_constant(op).hex() == C


def _dense_kdv_fill(grid):
    """The KdV matrix as a dense fill, zeros first: the oracle for the
    matrix the operator forms from its band."""
    n, h = grid.n_interior, grid.spacing_h
    c1, c3 = 1.0 / h, 1.0 / (2.0 * h**3)
    m = np.zeros((n, n))
    np.fill_diagonal(m, -c1)
    m[-1, -1] += -c3
    np.fill_diagonal(m[1:], c1 - 2.0 * c3)
    np.fill_diagonal(m[:, 1:], 2.0 * c3)
    np.fill_diagonal(m[2:], c3)
    np.fill_diagonal(m[:, 2:], -c3)
    return m


@pytest.mark.parametrize("n", [5, 127, 2047])
def test_dense_matrix_from_band_matches_dense_fill(n):
    grid = Grid(L, n)
    A = build_kdv_operator(grid)
    loop = linear_loop_operator(A)
    # neither operator has formed its dense matrix yet
    assert "matrix" not in vars(A) and "matrix" not in vars(loop)
    oracle = _dense_kdv_fill(grid)
    assert A.matrix.tobytes() == oracle.tobytes()
    assert loop.matrix.tobytes() == (oracle - np.eye(n)).tobytes()
    for op in (A, loop):
        assert op.matrix.flags.owndata and not op.matrix.flags.writeable
        assert op.matrix is op.matrix  # formed once


def test_decay_constant_reads_no_dense_matrix():
    # a dense copy of the n = 2047 loop generator would take 33.5 MB
    A = build_kdv_operator(Grid(L, 2047))
    tracemalloc.start()
    try:
        C = measure_decay_constant(linear_loop_operator(A))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert C > 0.0 and peak < 4 * 2**20
    assert "matrix" not in vars(A)


def test_simulation_reads_no_dense_matrix():
    # smooth_random data reach A @ z through the graph norm before the first
    # step; the tile stacks take 1.6 MB where the matrix would take 33.5 MB
    grid = Grid(L, 2047)
    A = build_kdv_operator(grid)
    tracemalloc.start()
    try:
        z0 = smooth_initial_data(grid, A, 1.0, np.random.default_rng(0))
        simulate(SaturatedSystem(A, pointwise_linf_map(1.0)), z0, 0.005, 0.001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20 and "matrix" not in vars(A)
    # head, body and tail: a step makes three BLAS calls
    assert len(A._groups) == 3


def test_band_operator_validation_and_immutability(grid127, kdv127):
    n = grid127.n_interior
    with pytest.raises(GridMismatchError):
        LinearOperator(grid127, [np.ones(n - 1), np.ones(n)])
    with pytest.raises(GridMismatchError):
        LinearOperator(grid127, [np.ones(n), np.ones(n), np.ones(n)])
    with pytest.raises(GridMismatchError):
        # p = n: every length fits, but the outer diagonals lie off the matrix
        LinearOperator(Grid(L, 5), [np.ones(5 - abs(k)) for k in range(-5, 6)])
    diagonals = [np.ones(n - 1), -np.ones(n), np.ones(n - 1)]
    op = LinearOperator(grid127, diagonals)
    diagonals[1][0] = 5.0  # the operator keeps its own copy
    assert op.band[1][0] == -1.0 and not op.band[1].flags.writeable
    with pytest.raises(AttributeError):
        kdv127.grid = Grid(L, 64)


@pytest.mark.parametrize("length", [1e300, 1e-110])
def test_kdv_rejects_unrepresentable_spacing(length):
    with pytest.raises(ParameterError, match="h = "):
        build_kdv_operator(Grid(length, 127))


@pytest.mark.parametrize("length", [1e-6, 1e-100])
def test_kdv_rejects_spacing_that_rounds_away_the_upwind_term(length):
    # h = 7.8e-9 at L = 1e-6: c1 - 2 c3 rounds to -2 c3 and the gate alone
    # would pass the operator
    grid = Grid(length, 127)
    h = grid.spacing_h
    c1, c3 = 1.0 / h, 1.0 / (2.0 * h**3)
    assert (c1 - 2.0 * c3) + 2.0 * c3 != c1
    with pytest.raises(ParameterError, match="h = %g is too fine" % h):
        build_kdv_operator(grid)


def test_kdv_rejects_spacing_whose_dispersion_weight_overflows():
    # h = 1.6e-103 at L = 2.05e-101: c3 = 1.2e308 is finite but 2 c3 is
    # not, so c1 - 2 c3 is -inf and the upwind check reads a NaN
    grid = Grid(2.05e-101, 127)
    h = grid.spacing_h
    c3 = 1.0 / (2.0 * h**3)
    assert math.isfinite(c3) and 2.0 * c3 == math.inf
    with pytest.raises(ParameterError, match="h = %g is too fine" % h):
        build_kdv_operator(grid)


def test_kdv_keeps_the_upwind_term_on_fine_grids():
    # n = 4095 on [0, 2 pi]: the sub-diagonal carries c1 up to the two
    # roundings at the scale of 2 c3, 9.5e-11 of c1 here
    A = build_kdv_operator(Grid(L, 4095))
    h = A.grid.spacing_h
    c1, c3 = 1.0 / h, 1.0 / (2.0 * h**3)
    assert abs((A.matrix[1, 0] + 2.0 * c3) - c1) <= np.finfo(float).eps * 2.0 * c3


def test_operator_shape_mismatch(grid127, kdv127):
    with pytest.raises(GridMismatchError):
        dense_operator(grid127, np.zeros((3, 3)))
    with pytest.raises(GridMismatchError):
        kdv127 @ np.zeros(126)
    with pytest.raises(ValueError):  # the last window would end past the buffer
        kdv127._views(np.zeros((1, 126)), np.zeros((1, 127)))


@pytest.mark.parametrize("n", [5, 63, 64, 65, 127, 128, 129, 193, 255, 257, 511,
                               2047, 4095])
def test_operator_product_is_the_dense_gemv(n):
    # A @ z is pinned bit for bit to the dense products over the matrix, so
    # that a change of its summation order, such as a banded product, shows.
    # At n = 4095 the dense gemv splits its sum at column 2048, which moves
    # rows 2046-2049: there the 4 eps (|A| |z|) bound holds
    A = build_kdv_operator(Grid(L, n))
    magnitude = LinearOperator(A.grid, [np.abs(d) for d in A.band])
    exact = np.ones(n, dtype=bool)
    if n == 4095:
        exact[2046:2050] = False

    def assert_is_gemv(product, v):
        expected = A.matrix @ v
        assert product[exact].tobytes() == expected[exact].tobytes()
        bound = 4.0 * np.finfo(float).eps * (magnitude @ np.abs(v))
        assert np.all(np.abs(product - expected) <= bound)
        return expected

    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)
    state = A @ v
    assert_is_gemv(state, v)
    if n == 4095:  # the state's product, pinned
        assert hashlib.sha256(state.tobytes()).hexdigest() \
            == "462ffc32bc7a0ab2ff2cb2aef3a0fd8066846fcf6af4d091093afbe27cfdcb54"
    for m in (1, 2, 20):
        # column j of a block is the state gemv of column j, bit for bit
        block = np.asfortranarray(rng.standard_normal((n, m)))
        out = A @ block
        assert out.flags.f_contiguous
        for j in range(m):
            assert out[:, j].tobytes() == (A @ block[:, j]).tobytes()
        assert_is_gemv(out[:, -1], block[:, -1])


def test_product_views_stay_in_their_buffers():
    # the stepper's z and A z are neighbouring blocks of one buffer: each
    # group's windows must read inside z and its rows write inside A z, for
    # every layout of KdV tiles up to n = 300, for a dense band, whose
    # windows do not move from tile to tile, and for a band of n / 8
    rng = np.random.default_rng(0)
    for n in range(5, 301):
        grid = Grid(L, n)
        operators = [build_kdv_operator(grid)]
        if n % 16 in (0, 1):
            dense = rng.standard_normal((n, n)) / n
            operators.append(dense_operator(grid, dense))
            operators.append(LinearOperator(grid, [np.diagonal(dense, k) for k in
                                                   range(-(n // 8), n // 8 + 1)]))
        for A in operators:
            for m in (1, 3):
                stepper = _ImexStepper([SaturatedSystem(A, None)] * m, 1e-3,
                                       np.array([0.0, 1e-3]))
                stepper.z[...] = rng.standard_normal((n, m))
                covered = 0
                for windows, _, rows in A._views(stepper.z.T, stepper.az.T):
                    for view, buffer in ((windows, stepper.blocks[0]),
                                         (rows, stepper.blocks[1])):
                        low, high = byte_bounds(view)
                        first, end = byte_bounds(buffer)
                        assert first <= low and high <= end
                    covered += rows.size // m
                assert covered == n
                stepper.evaluate(0)
                assert stepper.az.tobytes("F") == (A @ stepper.z).tobytes("F")


def test_disturbance_kinds(grid127, kdv127, z0_cosine):
    t = 0.7
    zero = DisturbanceSignal()
    cos = DisturbanceSignal(0.05, 2.0)
    assert (zero.amplitude, zero.frequency) == (0.0, 0.0)
    systems = [SaturatedSystem(kdv127, None, d) for d in (zero, cos)]
    stepper = _ImexStepper(systems, t, np.array([0.0, t]))
    stepper.evaluate(1)
    vals = stepper.d
    assert vals.shape == (127, 2)
    assert np.all(vals[:, 0] == 0.0)
    assert np.all(vals[:, 1] == 0.05 * math.cos(2.0 * t))
    # the recorded ||d(t)||: ||const||_L2 = |const| * sqrt(h n)
    runs = simulate(systems, [z0_cosine, z0_cosine], 0.01, 1e-3)
    assert np.all(runs.observables["norm_d"][0] == 0.0)
    expected = np.abs(0.05 * np.cos(2.0 * runs.times)) * math.sqrt(
        grid127.spacing_h * grid127.n_interior)
    np.testing.assert_allclose(runs.observables["norm_d"][1], expected, rtol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 20])
@pytest.mark.parametrize("T", [0.5, 0.0105, 1e-3], ids=["full", "partial_last", "one_step"])
def test_cosine_table_is_the_per_step_cosine(m, T):
    # the stepper's table, byte for byte, against amplitude * cos(frequency
    # * t) at the times a step loop forms one by one: t = (i + 1) dt, the
    # last t = T, and the half-step t + dt/2 with the last dt on the last step
    dt = 1e-3
    A = build_kdv_operator(Grid(L, 7))
    rng = np.random.default_rng(m)
    amplitude = rng.uniform(-1.0, 1.0, m)
    frequency = rng.uniform(-40.0, 40.0, m)
    amplitude[-1] = -abs(amplitude[-1])
    if m > 1:
        amplitude[0], frequency[0] = -0.05, 0.0  # a constant d
    if m > 2:
        amplitude[1] = -0.0  # d = -0.0 or 0.0 with the sign of the cosine
    systems = [SaturatedSystem(A, None, DisturbanceSignal(a, f))
               for a, f in zip(amplitude, frequency)]
    zero = StateVector(A.grid, np.zeros(7))
    times = simulate(systems, [zero] * m, T, dt).times
    n_steps = len(times) - 1
    last_dt = T - (n_steps - 1) * dt
    if abs(last_dt - dt) <= 1e-12 * dt:
        last_dt = dt
    expected, t = [], 0.0
    for i in range(n_steps + 1):
        assert times[i] == t
        expected.append(amplitude * np.cos(frequency * t))
        if i < n_steps:
            step = dt if i < n_steps - 1 else last_dt
            expected.append(amplitude * np.cos(frequency * (t + 0.5 * step)))
            t = (i + 1) * dt if i < n_steps - 1 else T
    cosines = _ImexStepper(systems, dt, times).cosines
    assert cosines.shape == (2 * n_steps + 1, m)
    assert cosines.tobytes() == np.array(expected).tobytes()


def _rhs(sys, z, t):
    """A z - sigma(z + d(t)) of a state (n,), or of each column of a
    column-major block (n, m), from the blocks the stepper fills at t."""
    block = z.reshape(len(z), -1)
    stepper = _ImexStepper([sys] * block.shape[1], 1e-3, np.array([t, t + 1e-3]))
    stepper.z[...] = block
    stepper.evaluate(0)
    return (stepper.az - stepper.u).reshape(z.shape)


def test_closed_loop_rhs_definitions(kdv127, grid127):
    z = StateVector(grid127, 0.4 * np.sin(grid127.interior_nodes()))

    linear = SaturatedSystem(kdv127, None, DisturbanceSignal())
    np.testing.assert_allclose(_rhs(linear, z.values, 0.0),
                               kdv127.matrix @ z.values - z.values)

    inside = SaturatedSystem(kdv127, hilbert_norm_map(1.0), DisturbanceSignal())
    assert norm_l2(z) <= 1.0
    np.testing.assert_allclose(_rhs(inside, z.values, 0.0),
                               kdv127.matrix @ z.values - z.values)

    disturbed = SaturatedSystem(kdv127, pointwise_linf_map(1.0, L),
                                DisturbanceSignal(0.05, 1.0))
    big = StateVector(grid127, 2.0 * np.sin(grid127.interior_nodes()))
    expected = kdv127.matrix @ big.values - np.clip(big.values + 0.05, -1.0, 1.0)
    np.testing.assert_allclose(_rhs(disturbed, big.values, 0.0), expected)


def test_step_equilibrium_and_contraction(kdv127, grid127):
    sys_lin = SaturatedSystem(kdv127, None, DisturbanceSignal())
    zero = StateVector(grid127, np.zeros(grid127.n_interior))
    assert np.all(simulate_states(sys_lin, zero, 1e-3, 1e-3)[1][-1] == 0.0)

    z = StateVector(grid127, 1.0 - np.cos(grid127.interior_nodes()))
    dt = 1e-3
    out = StateVector(grid127, simulate_states(sys_lin, z, dt, dt)[1][-1])
    # strict one-step decay ||z+|| <= ||z|| (1 - c dt) with c > 0
    assert norm_l2(out) <= norm_l2(z) * (1.0 - 0.5 * dt)


def test_step_rejects_large_dt(kdv127, grid127):
    sys_h = SaturatedSystem(kdv127, hilbert_norm_map(1.0), DisturbanceSignal())
    z = StateVector(grid127, np.zeros(grid127.n_interior))
    with pytest.raises(ParameterError):
        simulate(sys_h, z, 0.5, 0.5)  # dt * k = 1.5


def test_step_grid_mismatch(kdv127):
    sys_lin = SaturatedSystem(kdv127, None, DisturbanceSignal())
    with pytest.raises(GridMismatchError):
        simulate(sys_lin, StateVector(Grid(L, 64), np.zeros(64)), 1e-3, 1e-3)


def test_step_second_order_self_convergence(kdv127, grid127):
    # unsaturated loop, smooth data: halving dt quarters the error
    rng = np.random.default_rng(17)
    z0 = smooth_initial_data(grid127, kdv127, 2.0, rng)
    sys_lin = SaturatedSystem(kdv127, None, DisturbanceSignal())
    ref = simulate_states(sys_lin, z0, 1.0, 1e-4)[1][-1]
    h = grid127.spacing_h
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        zt = simulate_states(sys_lin, z0, 1.0, dt)[1][-1]
        errors.append(math.sqrt(h * float(np.dot(zt - ref, zt - ref))))
    assert 3.0 <= errors[0] / errors[1] <= 5.0
    assert 3.0 <= errors[1] / errors[2] <= 5.0


def test_simulate_zero_initial_state(kdv127, grid127):
    sys_sat = SaturatedSystem(kdv127, pointwise_linf_map(1.0, L),
                              DisturbanceSignal())
    zero = StateVector(grid127, np.zeros(grid127.n_interior))
    traj, states = simulate_states(sys_sat, zero, 0.05, 1e-3)
    assert states.shape == (51, 127) and np.all(states == 0.0)
    assert np.all(traj.observables["norm_l2"] == 0.0)


def test_zero_state_norm_linf_has_no_sign_bit(tmp_path, capsys):
    # max |z| is read as max(max z, -min z), which is -0.0 for a zero row
    # until abs drops the sign: the zero state's norm_linf must be +0.0 at
    # every step, over two blocks of rows, so that trajectory.csv reads 0
    out = tmp_path / "zero_out"
    config = tmp_path / "zero.cfg"
    config.write_text("domain.L = %r\ndomain.n_interior = 31\ntime.T = 0.05\n"
                      "time.dt = 0.001\ninitial.family = zero\n"
                      "saturation.kind = pointwise_linf\noutput_dir = %s\n" % (L, out))
    assert main(["run", str(config)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].split(",")[2] == "norm_linf"
    assert [line.split(",")[2] for line in lines[1:]] == ["0"] * 51
    grid = Grid(L, 31)
    loop = SaturatedSystem(build_kdv_operator(grid), pointwise_linf_map(1.0, L))
    zero = StateVector(grid, np.zeros(31))
    for traj in (simulate(loop, zero, 0.05, 1e-3),
                 simulate([loop] * 2, [zero] * 2, 0.05, 1e-3)):
        linf = traj.observables["norm_linf"]
        assert not linf.any() and not np.signbit(linf).any()


def test_simulate_record_count_and_partial_last_step(kdv127, grid127):
    sys_lin = SaturatedSystem(kdv127, None, DisturbanceSignal())
    z = StateVector(grid127, np.sin(grid127.interior_nodes()))
    traj = simulate(sys_lin, z, 0.0105, 1e-3)
    assert len(traj) == math.ceil(0.0105 / 1e-3) + 1
    assert traj.times[-1] == 0.0105
    traj = simulate(sys_lin, z, 0.01, 1e-3)
    assert len(traj) == 11
    assert traj.times[-1] == 0.01


def test_simulate_rejects_bad_horizon(kdv127, grid127):
    sys_lin = SaturatedSystem(kdv127, None, DisturbanceSignal())
    z = StateVector(grid127, np.zeros(grid127.n_interior))
    with pytest.raises(ParameterError):
        simulate(sys_lin, z, 0.0, 1e-3)
    with pytest.raises(ParameterError):
        simulate(sys_lin, z, 1.0, 2.0)
    with pytest.raises(ParameterError, match="positive and finite"):
        simulate(sys_lin, z, math.inf, 1e-3)


def test_contraction_per_step_both_saturations(kdv127, grid127, z0_cosine):
    for sigma in (pointwise_linf_map(1.0, L), hilbert_norm_map(1.0)):
        sys_sat = SaturatedSystem(kdv127, sigma, DisturbanceSignal())
        traj = simulate(sys_sat, z0_cosine, 2.0, 1e-3)
        norms = traj.observables["norm_l2"]
        assert np.max(np.diff(norms)) <= 1e-9 * norms[0]


def test_graph_seminorm_monotone_for_smooth_data(kdv127, grid127):
    # ||A_sigma z(t)|| nonincreasing along the undisturbed saturated flow
    rng = np.random.default_rng(5)
    z0 = smooth_initial_data(grid127, kdv127, 4.0, rng)
    sigma = pointwise_linf_map(1.0, L)
    sys_sat = SaturatedSystem(kdv127, sigma, DisturbanceSignal())
    _, states = simulate_states(sys_sat, z0, 2.0, 1e-3)
    w = _rhs(sys_sat, states.T, 0.0)  # one column per recorded state
    seminorms = np.sqrt(grid127.spacing_h * np.sum(w * w, axis=0))
    rel_increase = np.diff(seminorms) / np.maximum(seminorms[:-1], 1e-300)
    assert np.max(rel_increase) <= 1e-6


def test_linear_loop_exponential_decay(kdv127, z0_cosine):
    sys_lin = SaturatedSystem(kdv127, None, DisturbanceSignal())
    traj = simulate(sys_lin, z0_cosine, 9.0, 1e-3)
    norms = traj.observables["norm_l2"]
    bound = np.exp(-traj.times) * norms[0] ** 2
    assert np.all(norms**2 <= bound * (1.0 + 1e-6))


def test_simulate_default_series(kdv127, z0_cosine):
    sys_lin = SaturatedSystem(kdv127, None, DisturbanceSignal())
    traj = simulate(sys_lin, z0_cosine, 0.01, 1e-3)
    # V = ||z||^2; V1 and V2 are left to the caller, and read nan in the CSV
    np.testing.assert_allclose(traj.observables["V"],
                               traj.observables["norm_l2"] ** 2, rtol=1e-12)
    assert set(traj.observables) == set(Trajectory.OBSERVABLE_COLUMNS) - {"V1", "V2"}


def test_trajectory_csv_export(tmp_path, kdv127, grid127, z0_cosine):
    sys_sat = SaturatedSystem(kdv127, pointwise_linf_map(1.0, L),
                              DisturbanceSignal(0.05, 1.0))
    traj = simulate(sys_sat, z0_cosine, 0.01, 1e-3)
    obs_path = tmp_path / "trajectory.csv"
    traj.write_observables_csv(obs_path)
    lines = obs_path.read_text().splitlines()
    assert lines[0] == "t,norm_l2,norm_linf,norm_graph,V,V1,V2,norm_u,norm_d"
    assert len(lines) == len(traj) + 1
    assert {tuple(line.split(",")[5:7]) for line in lines[1:]} == {("nan", "nan")}

    states_path = tmp_path / "states.csv"
    with Trajectory.write_states_csv(states_path, grid127) as sink:
        simulate(sys_sat, z0_cosine, 0.01, 1e-3, on_rows=sink)
    lines = states_path.read_text().splitlines()
    assert lines[0].startswith("t,z1,") and lines[0].endswith(",z127")
    assert len(lines) == len(traj) + 1

    # determinism: identical bytes on re-export
    again = tmp_path / "again.csv"
    traj.write_observables_csv(again)
    assert again.read_bytes() == obs_path.read_bytes()


@pytest.mark.parametrize("sigma, n", [
    pytest.param(sigma, n, id=name + suffix)
    for n, suffix in ((127, ""), (255, "-255"))
    for sigma, name in ((pointwise_linf_map(1.0, L), "pointwise"),
                        (hilbert_norm_map(1.0), "hilbert"))])
def test_batched_simulate_matches_member_runs(sigma, n):
    # each member's product is its state's gemv and its reductions are the
    # single state's, so a member of any batch is its single run bit for bit
    grid = Grid(L, n)
    A = build_kdv_operator(grid)
    disturbances = [DisturbanceSignal(), DisturbanceSignal(0.1, 1.9),
                    DisturbanceSignal(-0.2, 37.0)]
    systems = [SaturatedSystem(A, sigma, d) for d in disturbances]
    profile = 1.0 - np.cos(grid.interior_nodes())
    z0s = [StateVector(grid, s * profile) for s in (0.2, 1.0, 2.0)]
    T, dt = 0.0505, 1e-3  # partial last step
    batch, batch_states = simulate_states(systems, z0s, T, dt)
    lean = simulate(systems, z0s, T, dt)
    assert set(batch.observables) == set(lean.observables)
    for c, series in batch.observables.items():
        assert series.shape == lean.observables[c].shape == (3, len(batch))
    assert batch_states.shape == (3, len(batch), n)
    for j, (sys_j, z0) in enumerate(zip(systems, z0s)):
        alone, states = simulate_states(sys_j, z0, T, dt)
        one = simulate([sys_j], [z0], T, dt)
        np.testing.assert_array_equal(batch.times, alone.times)
        assert batch_states[j].tobytes() == states.tobytes()
        assert set(alone.observables) == set(batch.observables)
        for c in alone.observables:
            assert batch.observables[c][j].tobytes() == alone.observables[c].tobytes()
            assert lean.observables[c][j].tobytes() == alone.observables[c].tobytes()
            assert one.observables[c][0].tobytes() == alone.observables[c].tobytes()
    assert not hasattr(lean, "states")


def test_batched_simulate_rejects_mixed_members(kdv127, z0_cosine):
    pointwise = SaturatedSystem(kdv127, pointwise_linf_map(1.0, L))
    hilbert = SaturatedSystem(kdv127, hilbert_norm_map(1.0))
    with pytest.raises(ParameterError, match="share"):
        simulate([pointwise, hilbert], [z0_cosine, z0_cosine], 0.01, 1e-3)
    with pytest.raises(ParameterError, match="share"):
        simulate([pointwise, SaturatedSystem(build_kdv_operator(kdv127.grid), None)],
                 [z0_cosine, z0_cosine], 0.01, 1e-3)
    with pytest.raises(ParameterError, match="equal length"):
        simulate([pointwise], [z0_cosine, z0_cosine], 0.01, 1e-3)
    with pytest.raises(ParameterError, match="equal length"):
        simulate([], [], 0.01, 1e-3)


@pytest.mark.parametrize("make", [lambda level: pointwise_linf_map(level, L),
                                  hilbert_norm_map], ids=["pointwise", "hilbert"])
def test_batched_linear_member_is_its_linear_run(kdv127, z0_cosine, make):
    # a system without saturation joins a batch of either kind at level
    # +inf, which returns its values bit for bit: the unsaturated member is
    # its linear single run, and each saturated one, at its own level, its
    # own single run
    z0 = StateVector(z0_cosine.grid, 2.0 * z0_cosine.values)  # outside the ball
    systems = [SaturatedSystem(kdv127, make(1.0), DisturbanceSignal(0.05, 1.0)),
               SaturatedSystem(kdv127, None, DisturbanceSignal(0.1, 1.9)),
               SaturatedSystem(kdv127, make(0.5))]
    T, dt = 0.0505, 1e-3
    batch, batch_states = simulate_states(systems, [z0] * 3, T, dt)
    for j, sys_j in enumerate(systems):
        alone, states = simulate_states(sys_j, z0, T, dt)
        assert batch_states[j].tobytes() == states.tobytes()
        for c, series in alone.observables.items():
            assert batch.observables[c][j].tobytes() == series.tobytes()
    # the saturated members decay more slowly, the lower level the slowest
    final = batch.observables["norm_l2"][:, -1]
    assert final[2] > final[0] > final[1]


def test_simulate_non_finite_state_raises_diverged(kdv127, z0_cosine):
    # d is NaN from t = 0: the recorded state at step 0 is still z0, and the
    # one at step 1 is the first non-finite one
    sigma = pointwise_linf_map(1.0, L)
    broken = SaturatedSystem(
        kdv127, sigma, DisturbanceSignal(amplitude=math.nan, frequency=1.0))
    with pytest.raises(SimulationDiverged) as info:
        simulate(broken, z0_cosine, 0.02, 1e-3)
    assert (info.value.step, info.value.member) == (1, 0)
    healthy = SaturatedSystem(kdv127, sigma, DisturbanceSignal())
    with pytest.raises(SimulationDiverged, match="member 1 is not finite at step 1"):
        simulate([healthy, broken], [z0_cosine, z0_cosine], 0.02, 1e-3)


def test_simulate_non_finite_norm_raises_diverged():
    # the state stays finite, but ||A z||^2 overflows at every step: the
    # KdV operator on 31 nodes scaled to entries near 1e304
    grid = Grid(L, 31)
    m = build_kdv_operator(grid).matrix
    A = dense_operator(grid, m * (1e304 / np.max(np.abs(m))))
    z0 = StateVector(grid, 1.0 - np.cos(2.0 * np.pi * grid.interior_nodes() / L))
    sys_sat = SaturatedSystem(A, pointwise_linf_map(1.0, L))
    with pytest.raises(SimulationDiverged,
                       match="norm_graph of member 0 is not finite at step 0") as info:
        simulate(sys_sat, z0, 2e-3, 1e-3)
    assert (info.value.step, info.value.member, info.value.quantity) \
        == (0, 0, "norm_graph")


def test_simulate_divergence_in_a_later_block_names_its_first_step():
    # A = 1000 I grows |z| about threefold per step: member 1, from 1e290,
    # overflows at step 34, inside the second block of rows
    grid = Grid(L, 7)
    loop = SaturatedSystem(dense_operator(grid, 1000.0 * np.eye(7)), None)
    z0s = [StateVector(grid, np.zeros(7)), StateVector(grid, np.full(7, 1e290))]
    with pytest.raises(SimulationDiverged, match="state of member 1") as info:
        simulate([loop, loop], z0s, 0.1, 1e-3)
    step = info.value.step
    assert step >= _BLOCK_ROWS
    # stopped one step earlier, every recorded state is finite; only the
    # squared norm, past 1e308 from step 0, is not
    with pytest.raises(SimulationDiverged) as info:
        simulate([loop, loop], z0s, (step - 1) * 1e-3, 1e-3)
    assert (info.value.step, info.value.member, info.value.quantity) == (0, 1, "norm_l2")


@pytest.mark.parametrize("T", [0.01, 0.063, 0.0705], ids=["short", "full_blocks", "partial"])
def test_simulate_hands_out_the_recorded_states_in_blocks(kdv127, z0_cosine, T):
    # blocks of _BLOCK_ROWS rows, the last one shorter, in order of time: the
    # states whose norms the trajectory records; a list of one system gets
    # the same rows with a leading member axis
    sys_sat = SaturatedSystem(kdv127, pointwise_linf_map(1.0, L),
                              DisturbanceSignal(0.05, 1.0))
    calls = {False: [], True: []}
    for batch in calls:
        def sink(times, rows, seen=calls[batch]):
            seen.append((times.copy(), rows.copy()))
        traj = simulate([sys_sat] if batch else sys_sat,
                        [z0_cosine] if batch else z0_cosine, T, 1e-3, on_rows=sink)
    sizes = [len(times) for times, _ in calls[False]]
    assert sizes[:-1] == [_BLOCK_ROWS] * (len(sizes) - 1) and 0 < sizes[-1] <= _BLOCK_ROWS
    np.testing.assert_array_equal(np.concatenate([t for t, _ in calls[False]]), traj.times)
    for (times, rows), (batch_times, batch_rows) in zip(calls[False], calls[True]):
        assert rows.shape == (len(times), 127) and batch_rows.shape == (1,) + rows.shape
        assert batch_times.tobytes() == times.tobytes()
        assert batch_rows.tobytes() == rows.tobytes()
    states = np.concatenate([rows for _, rows in calls[False]])
    np.testing.assert_array_equal(np.max(np.abs(states), axis=1),
                                  traj.observables["norm_linf"][0])
    np.testing.assert_allclose(np.sqrt(kdv127.grid.spacing_h * np.sum(states ** 2, axis=1)),
                               traj.observables["norm_l2"][0], rtol=1e-13)


# sha256 of the artifacts of four runs at n = 127, T = 0.5, as written when
# each step evaluated d, sigma and the sums of squares with freshly
# allocated arrays: the step loop's buffers and cosine table reproduce them
# byte for byte.  The two batch artifacts were re-pinned when a batch member
# became its single run bit for bit: gap.csv moved by at most 1.8e-14, and
# certificate.txt in the last two to four digits of K, mu and rho_gain
_INTEGRATOR_DIGESTS = {
    "pointwise_disturbed": (
        "23fe956a49241113078a1e4be62108aeeebdea6a21fccf7590def61df03e0a50",
        "7e131bd1d124fac4c934f84863941baf92eb3cbad5e1171c5cd4839d02edff74"),
    "linear_undisturbed": (
        "c87732722cd1b3c05fb376317b8a82a0deb5b30491fd4cb3057b31290b610c7a",
        "303caee11e421bd26c2b6e4cb56eeab2d2ca04eeef08c2a43d18efd5fb1afdc2"),
    "hilbert_gap": (
        "4e2e7afee1ae406d4ff87872222c5c42d786405f357272b6d33d4ddc8dcfba57",),
    "certify": (
        "eca52eea302084dca0c034bb9d0ca885f3166216fc5fe2a6d3c191477faa3df6",),
}


@pytest.mark.parametrize("case", sorted(_INTEGRATOR_DIGESTS))
def test_integrator_artifacts_golden(tmp_path, capsys, monkeypatch, kdv127, grid127,
                                     z0_cosine, case):
    T, dt = 0.5, 1e-3
    batches = []  # (systems, z0s, trajectory) of each batched integration

    def recording(sys, z0, *args, **kwargs):
        traj = simulate(sys, z0, *args, **kwargs)
        batches.append((sys, z0, traj))
        return traj
    monkeypatch.setattr(iss, "simulate", recording)
    if case == "certify":
        path = os.path.join(os.path.dirname(__file__), "..", "demos", "configs",
                            "certify.cfg")
        with open(path) as fh:
            text = fh.read().replace("time.T = 9.0", "time.T = 0.5")
        assert "time.T = 0.5" in text
        config = tmp_path / "certify.cfg"
        config.write_text(text.replace("out_certify", str(tmp_path / "certify")))
        assert main(["certify", str(config)]) == 0
        capsys.readouterr()
        names = [tmp_path / "certify" / "certificate.txt"]
    elif case == "hilbert_gap":
        loop = SaturatedSystem(kdv127, hilbert_norm_map(1.0))
        z0 = StateVector(grid127, 2.0 * z0_cosine.values)
        gronwall_gap(loop, z0, DisturbanceSignal(0.05, 1.0), T, dt).write_csv(
            tmp_path / "gap.csv")
        names = [tmp_path / "gap.csv"]
    else:
        if case == "linear_undisturbed":
            loop = SaturatedSystem(kdv127, None, DisturbanceSignal())
        else:
            loop = SaturatedSystem(kdv127, pointwise_linf_map(1.0, L),
                                   DisturbanceSignal(0.05, 1.0))
        names = [tmp_path / "states.csv", tmp_path / "observables.csv"]
        with Trajectory.write_states_csv(names[0], grid127) as sink:
            traj = simulate(loop, z0_cosine, T, dt, on_rows=sink)
        traj.write_observables_csv(names[1])
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in names)
    assert digests == _INTEGRATOR_DIGESTS[case]
    # each member of a pinned batch is its single run
    for systems, z0s, traj in batches:
        for j, (sys_j, z0) in enumerate(zip(systems, z0s)):
            alone = simulate(sys_j, z0, T, dt)
            for c, series in alone.observables.items():
                assert traj.observables[c][j].tobytes() == series.tobytes()
    assert len(batches) == (case in ("certify", "hilbert_gap"))
