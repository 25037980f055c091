import math
import tracemalloc

import numpy as np
import pytest
import sympy

from scipy import sparse

from satiss import DissipativityGateFailed, Grid, GridMismatchError, \
    ParameterError, SimulationDiverged, StateVector, assemble_closed_loop, \
    build_kdv_operator, cosine_disturbance, custom_disturbance, \
    linear_loop_operator, measure_decay_constant, norm_l2, simulate, \
    smooth_initial_data, step, table_disturbance, zero_disturbance
from satiss.saturation import hilbert_norm_map, pointwise_linf_map
from satiss.system import LinearOperator, Trajectory, dissipativity_gate, \
    dissipativity_tolerance

from conftest import L


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
        errors.append(float(np.max(np.abs(A.matrix @ f_np(x) - image_np(x)))))
    assert errors[0] / errors[1] >= 1.8
    assert errors[1] / errors[2] >= 1.8


def test_dissipativity_gate_passes(kdv127):
    assert kdv127.max_symmetric_eigenvalue <= dissipativity_tolerance(kdv127)
    assert kdv127.max_symmetric_eigenvalue < 0.0


def test_max_symmetric_eigenvalue_examples(grid127, kdv127):
    n = grid127.n_interior
    minus_identity = LinearOperator(grid127, -np.eye(n))
    assert minus_identity.max_symmetric_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    rng = np.random.default_rng(1)
    raw = rng.standard_normal((n, n))
    skew = LinearOperator(grid127, raw - raw.T)
    assert skew.max_symmetric_eigenvalue <= 1e-12

    assert kdv127.max_symmetric_eigenvalue <= dissipativity_tolerance(kdv127)


def _assert_spectra_match_dense(op):
    m = op.matrix
    sym = np.linalg.eigvalsh(0.5 * (m + m.T))
    assert op.max_symmetric_eigenvalue == pytest.approx(sym[-1], rel=1e-10)
    assert op.symmetric_eigenvalue(0) == pytest.approx(sym[0], rel=1e-10)
    assert op.spectral_norm == pytest.approx(np.linalg.norm(m, 2), rel=1e-10)


@pytest.mark.parametrize("n", [5, 127, 1023])
def test_banded_spectra_match_dense(n):
    A = build_kdv_operator(Grid(L, n))
    assert A.bandwidth == 2
    _assert_spectra_match_dense(A)
    _assert_spectra_match_dense(linear_loop_operator(A))


def test_banded_spectra_of_full_band_operator(grid127):
    rng = np.random.default_rng(3)
    op = LinearOperator(grid127, rng.standard_normal((127, 127)))
    assert op.bandwidth == 126
    _assert_spectra_match_dense(op)
    corner = np.zeros((127, 127))
    corner[126, 0] = 1.0
    assert LinearOperator(grid127, corner).bandwidth == 126
    zero = LinearOperator(grid127, np.zeros((127, 127)))
    assert (zero.bandwidth, zero.max_symmetric_eigenvalue, zero.spectral_norm) \
        == (0, 0.0, 0.0)


def test_band_csc_equals_dense_conversion(kdv127):
    dense = sparse.csc_matrix(kdv127.matrix)
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(kdv127.csc, part), getattr(dense, part))


def test_gate_rejects_shifted_operator(grid127, kdv127):
    assert dissipativity_gate(kdv127) is kdv127
    shifted = LinearOperator(grid127, kdv127.matrix + 0.1 * np.eye(127))
    with pytest.raises(DissipativityGateFailed) as info:
        dissipativity_gate(shifted)
    assert info.value.lambda_max == pytest.approx(
        kdv127.max_symmetric_eigenvalue + 0.1, rel=1e-10)
    # the failure carries the same lambda_max and tolerance as when the gate
    # computed ||A||_2 first
    assert (info.value.lambda_max.hex(), info.value.tolerance.hex()) \
        == ("0x1.80127a377afbfp-4", "0x1.cc02161ec4a0cp-13")


def test_gate_reads_spectral_norm_only_for_positive_lambda_max(grid127):
    # lambda_max <= 0 passes whatever the tolerance is: ||A||_2 is not computed
    A = build_kdv_operator(grid127)
    assert A.max_symmetric_eigenvalue < 0.0 and "spectral_norm" not in vars(A)
    minus_identity = LinearOperator(grid127, -np.eye(127))
    assert dissipativity_gate(minus_identity) is minus_identity
    assert "spectral_norm" not in vars(minus_identity)
    # 0 < lambda_max <= 1e-8 ||A||_2 passes, after computing the tolerance
    eps = 1e-4 - A.max_symmetric_eigenvalue
    barely = LinearOperator(grid127, A.matrix + eps * np.eye(127))
    assert 0.0 < barely.max_symmetric_eigenvalue <= dissipativity_tolerance(barely)
    assert dissipativity_gate(barely) is barely


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
        # the dense scan finds the band back
        dense = LinearOperator(grid, op.matrix)
        assert [d.tobytes() for d in dense.band] == [d.tobytes() for d in op.band]


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


def test_band_operator_validation_and_immutability(grid127, kdv127):
    n = grid127.n_interior
    with pytest.raises(GridMismatchError):
        LinearOperator.from_band(grid127, [np.ones(n - 1), np.ones(n)])
    with pytest.raises(GridMismatchError):
        LinearOperator.from_band(grid127, [np.ones(n), np.ones(n), np.ones(n)])
    with pytest.raises(GridMismatchError):
        # p = n: every length fits, but the outer diagonals lie off the matrix
        LinearOperator.from_band(Grid(L, 5), [np.ones(5 - abs(k)) for k in range(-5, 6)])
    diagonals = [np.ones(n - 1), -np.ones(n), np.ones(n - 1)]
    op = LinearOperator.from_band(grid127, diagonals)
    diagonals[1][0] = 5.0  # the operator keeps its own copy
    assert op.band[1][0] == -1.0 and not op.band[1].flags.writeable
    with pytest.raises(AttributeError):
        kdv127.grid = Grid(L, 64)


def test_gate_tolerance_finite_for_huge_entries(grid127, kdv127):
    # stencil entries near 1e306: an unscaled Gram matrix would overflow
    m = kdv127.matrix
    A = LinearOperator(grid127, m * (1e306 / np.max(np.abs(m))))
    expected = 1e-8 * np.linalg.norm(A.matrix, 2)
    assert math.isfinite(dissipativity_tolerance(A))
    assert dissipativity_tolerance(A) == pytest.approx(expected, rel=1e-12)


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


def test_kdv_keeps_the_upwind_term_on_fine_grids():
    # n = 4095 on [0, 2 pi]: the sub-diagonal carries c1 up to the two
    # roundings at the scale of 2 c3, 9.5e-11 of c1 here
    A = build_kdv_operator(Grid(L, 4095))
    h = A.grid.spacing_h
    c1, c3 = 1.0 / h, 1.0 / (2.0 * h**3)
    assert abs((A.matrix[1, 0] + 2.0 * c3) - c1) <= np.finfo(float).eps * 2.0 * c3


def test_operator_matrix_is_read_only_and_private(grid127):
    # a caller's writable array is copied: mutating it later leaves A as it was
    mine = np.eye(127)
    op = LinearOperator(grid127, mine)
    mine[0, 0] = 5.0
    assert op.matrix[0, 0] == 1.0 and op.matrix is not mine
    assert not op.matrix.flags.writeable
    # so is a read-only view of someone else's array
    view = np.eye(127)[:, :]
    view.setflags(write=False)
    assert LinearOperator(grid127, view).matrix is not view
    # a read-only float64 array that owns its data is taken as it is
    frozen = np.eye(127)
    frozen.setflags(write=False)
    assert LinearOperator(grid127, frozen).matrix is frozen
    A = build_kdv_operator(grid127)
    assert A.matrix.flags.owndata and not A.matrix.flags.writeable
    loop = linear_loop_operator(A)
    assert loop.matrix.flags.owndata and not loop.matrix.flags.writeable
    np.testing.assert_array_equal(loop.matrix, A.matrix - np.eye(127))


def test_operator_apply_and_mismatch(kdv127, grid127):
    z = StateVector(grid127, np.sin(grid127.interior_nodes()))
    np.testing.assert_allclose(kdv127.apply(z).values, kdv127.matrix @ z.values)
    with pytest.raises(GridMismatchError):
        kdv127.apply(StateVector(Grid(L, 64), np.zeros(64)))
    with pytest.raises(GridMismatchError):
        LinearOperator(grid127, np.zeros((3, 3)))


def test_disturbance_kinds(grid127, kdv127, z0_cosine):
    t = 0.7
    zero = zero_disturbance()
    assert (zero.amplitude, zero.frequency, zero.func) == (0.0, 0.0, None)
    vals = zero.values_at(t, grid127)
    assert vals.shape == (127,) and np.all(vals == 0.0)

    cos = cosine_disturbance(0.05, 2.0)
    vals = cos.values_at(t, grid127)
    assert vals.shape == (127,)
    assert np.all(vals == 0.05 * math.cos(2.0 * t))
    # the recorded ||d(t)||: ||const||_L2 = |const| * sqrt(h n)
    runs = simulate([assemble_closed_loop(kdv127, None, d) for d in (zero, cos)],
                    [z0_cosine, z0_cosine], 0.01, 1e-3, keep_states=False)
    assert np.all(runs[0].observables["norm_d"] == 0.0)
    expected = np.abs(0.05 * np.cos(2.0 * runs[1].times)) * math.sqrt(
        grid127.spacing_h * grid127.n_interior)
    np.testing.assert_allclose(runs[1].observables["norm_d"], expected, rtol=1e-12)

    rows = [np.zeros(grid127.n_interior), np.ones(grid127.n_interior)]
    table = table_disturbance([0.0, 1.0], rows)
    assert callable(table.func)
    np.testing.assert_allclose(table.values_at(0.25, grid127),
                               np.full(grid127.n_interior, 0.25))
    np.testing.assert_allclose(table.values_at(5.0, grid127), rows[1])
    np.testing.assert_allclose(table.values_at(-1.0, grid127), rows[0])

    custom = custom_disturbance(lambda s: 0.1 * s)
    assert np.all(custom.values_at(2.0, grid127) == 0.2)
    ramp = custom_disturbance(lambda s: s * grid127.interior_nodes())
    np.testing.assert_array_equal(ramp.values_at(2.0, grid127),
                                  2.0 * grid127.interior_nodes())


def test_disturbance_values_checked_against_grid(grid127):
    # a table row or a callable value of the wrong length is a grid mismatch,
    # at the clamped ends and in between
    short = table_disturbance([0.0, 1.0], [np.zeros(64), np.ones(64)])
    for t in (-1.0, 0.5, 2.0):
        with pytest.raises(GridMismatchError, match="shape"):
            short.values_at(t, grid127)
    with pytest.raises(GridMismatchError, match="shape"):
        custom_disturbance(lambda s: np.zeros(3)).values_at(0.0, grid127)


def test_table_disturbance_validation(grid127):
    with pytest.raises(ParameterError):
        table_disturbance([0.0, 0.0], [np.zeros(127), np.zeros(127)])
    with pytest.raises(ParameterError):
        table_disturbance([0.0], [np.zeros(127), np.zeros(127)])


def test_closed_loop_rhs_definitions(kdv127, grid127):
    z = StateVector(grid127, 0.4 * np.sin(grid127.interior_nodes()))

    linear = assemble_closed_loop(kdv127, None, zero_disturbance())
    np.testing.assert_allclose(linear.rhs_values(z.values, 0.0),
                               kdv127.matrix @ z.values - z.values)

    inside = assemble_closed_loop(kdv127, hilbert_norm_map(1.0), zero_disturbance())
    assert norm_l2(z) <= 1.0
    np.testing.assert_allclose(inside.rhs_values(z.values, 0.0),
                               kdv127.matrix @ z.values - z.values)

    disturbed = assemble_closed_loop(kdv127, pointwise_linf_map(1.0, L),
                                     cosine_disturbance(0.05, 1.0))
    big = StateVector(grid127, 2.0 * np.sin(grid127.interior_nodes()))
    expected = kdv127.matrix @ big.values - np.clip(big.values + 0.05, -1.0, 1.0)
    np.testing.assert_allclose(disturbed.rhs_values(big.values, 0.0), expected)


def test_step_equilibrium_and_contraction(kdv127, grid127):
    sys_lin = assemble_closed_loop(kdv127, None, zero_disturbance())
    zero = StateVector(grid127, np.zeros(grid127.n_interior))
    assert np.all(step(sys_lin, zero, 0.0, 1e-3).values == 0.0)

    z = StateVector(grid127, 1.0 - np.cos(grid127.interior_nodes()))
    dt = 1e-3
    out = step(sys_lin, z, 0.0, dt)
    # strict one-step decay ||z+|| <= ||z|| (1 - c dt) with c > 0
    assert norm_l2(out) <= norm_l2(z) * (1.0 - 0.5 * dt)


def test_step_rejects_large_dt(kdv127, grid127):
    sys_h = assemble_closed_loop(kdv127, hilbert_norm_map(1.0), zero_disturbance())
    z = StateVector(grid127, np.zeros(grid127.n_interior))
    with pytest.raises(ParameterError):
        step(sys_h, z, 0.0, 0.5)  # dt * k = 1.5


def test_step_grid_mismatch(kdv127):
    sys_lin = assemble_closed_loop(kdv127, None, zero_disturbance())
    with pytest.raises(GridMismatchError):
        step(sys_lin, StateVector(Grid(L, 64), np.zeros(64)), 0.0, 1e-3)


def test_step_second_order_self_convergence(kdv127, grid127):
    # unsaturated loop, smooth data: halving dt quarters the error
    rng = np.random.default_rng(17)
    z0 = smooth_initial_data(grid127, kdv127, 2.0, rng)
    sys_lin = assemble_closed_loop(kdv127, None, zero_disturbance())
    ref = simulate(sys_lin, z0, 1.0, 1e-4).states[-1]
    h = grid127.spacing_h
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        zt = simulate(sys_lin, z0, 1.0, dt).states[-1]
        errors.append(math.sqrt(h * float(np.dot(zt - ref, zt - ref))))
    assert 3.0 <= errors[0] / errors[1] <= 5.0
    assert 3.0 <= errors[1] / errors[2] <= 5.0


def test_simulate_zero_initial_state(kdv127, grid127):
    sys_sat = assemble_closed_loop(kdv127, pointwise_linf_map(1.0, L),
                                   zero_disturbance())
    zero = StateVector(grid127, np.zeros(grid127.n_interior))
    traj = simulate(sys_sat, zero, 0.05, 1e-3)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.observables["norm_l2"] == 0.0)


def test_simulate_record_count_and_partial_last_step(kdv127, grid127):
    sys_lin = assemble_closed_loop(kdv127, None, zero_disturbance())
    z = StateVector(grid127, np.sin(grid127.interior_nodes()))
    traj = simulate(sys_lin, z, 0.0105, 1e-3)
    assert len(traj) == math.ceil(0.0105 / 1e-3) + 1
    assert traj.times[-1] == 0.0105
    traj = simulate(sys_lin, z, 0.01, 1e-3)
    assert len(traj) == 11
    assert traj.times[-1] == 0.01


def test_simulate_rejects_bad_horizon(kdv127, grid127):
    sys_lin = assemble_closed_loop(kdv127, None, zero_disturbance())
    z = StateVector(grid127, np.zeros(grid127.n_interior))
    with pytest.raises(ParameterError):
        simulate(sys_lin, z, 0.0, 1e-3)
    with pytest.raises(ParameterError):
        simulate(sys_lin, z, 1.0, 2.0)


def test_contraction_per_step_both_saturations(kdv127, grid127, z0_cosine):
    for sigma in (pointwise_linf_map(1.0, L), hilbert_norm_map(1.0)):
        sys_sat = assemble_closed_loop(kdv127, sigma, zero_disturbance())
        traj = simulate(sys_sat, z0_cosine, 2.0, 1e-3)
        norms = traj.observables["norm_l2"]
        assert np.max(np.diff(norms)) <= 1e-9 * norms[0]


def test_graph_seminorm_monotone_for_smooth_data(kdv127, grid127):
    # ||A_sigma z(t)|| nonincreasing along the undisturbed saturated flow
    rng = np.random.default_rng(5)
    z0 = smooth_initial_data(grid127, kdv127, 4.0, rng)
    sigma = pointwise_linf_map(1.0, L)
    sys_sat = assemble_closed_loop(kdv127, sigma, zero_disturbance())
    traj = simulate(sys_sat, z0, 2.0, 1e-3)
    h = grid127.spacing_h
    seminorms = []
    for i in range(len(traj)):
        w = sys_sat.rhs_values(traj.states[i], 0.0)
        seminorms.append(math.sqrt(h * float(np.dot(w, w))))
    seminorms = np.array(seminorms)
    rel_increase = np.diff(seminorms) / np.maximum(seminorms[:-1], 1e-300)
    assert np.max(rel_increase) <= 1e-6


def test_linear_loop_exponential_decay(kdv127, z0_cosine):
    sys_lin = assemble_closed_loop(kdv127, None, zero_disturbance())
    traj = simulate(sys_lin, z0_cosine, 9.0, 1e-3)
    norms = traj.observables["norm_l2"]
    bound = np.exp(-traj.times) * norms[0] ** 2
    assert np.all(norms**2 <= bound * (1.0 + 1e-6))


def test_simulate_observers_recorded(kdv127, grid127, z0_cosine):
    sys_lin = assemble_closed_loop(kdv127, None, zero_disturbance())
    traj = simulate(sys_lin, z0_cosine, 0.01, 1e-3,
                    observers={"V1": lambda z: 2.0 * norm_l2(z)})
    np.testing.assert_allclose(traj.observables["V1"],
                               2.0 * traj.observables["norm_l2"], rtol=1e-12)
    # defaults: V = ||z||^2, V2 = NaN
    np.testing.assert_allclose(traj.observables["V"],
                               traj.observables["norm_l2"] ** 2, rtol=1e-12)
    assert np.all(np.isnan(traj.observables["V2"]))


def test_trajectory_csv_export(tmp_path, kdv127, grid127, z0_cosine):
    sys_sat = assemble_closed_loop(kdv127, pointwise_linf_map(1.0, L),
                                   cosine_disturbance(0.05, 1.0))
    traj = simulate(sys_sat, z0_cosine, 0.01, 1e-3)
    obs_path = tmp_path / "trajectory.csv"
    traj.write_observables_csv(obs_path)
    lines = obs_path.read_text().splitlines()
    assert lines[0] == "t,norm_l2,norm_linf,norm_graph,V,V1,V2,norm_u,norm_d"
    assert len(lines) == len(traj) + 1

    states_path = tmp_path / "states.csv"
    traj.write_states_csv(states_path)
    head = states_path.read_text().splitlines()[0]
    assert head.startswith("t,z1,") and head.endswith(",z127")

    # determinism: identical bytes on re-export
    again = tmp_path / "again.csv"
    traj.write_observables_csv(again)
    assert again.read_bytes() == obs_path.read_bytes()


@pytest.mark.parametrize("sigma", [pointwise_linf_map(1.0, L), hilbert_norm_map(1.0)],
                         ids=["pointwise", "hilbert"])
def test_batched_simulate_matches_member_runs(kdv127, grid127, z0_cosine, sigma):
    # the block differs from single runs only in how the dense product sums
    x = grid127.interior_nodes()
    table = table_disturbance([0.0, 0.02, 0.04],
                              [np.zeros(127), 0.3 * np.sin(x), -0.2 * np.ones(127)])
    disturbances = [zero_disturbance(), cosine_disturbance(0.1, 1.9), table]
    systems = [assemble_closed_loop(kdv127, sigma, d) for d in disturbances]
    z0s = [StateVector(grid127, s * z0_cosine.values) for s in (0.2, 1.0, 2.0)]
    T, dt = 0.0505, 1e-3  # partial last step
    batch = simulate(systems, z0s, T, dt)
    lean = simulate(systems, z0s, T, dt, keep_states=False)
    assert len(batch) == len(lean) == 3
    for member, lean_member, sys_j, z0 in zip(batch, lean, systems, z0s):
        alone = simulate(sys_j, z0, T, dt)
        np.testing.assert_array_equal(member.times, alone.times)
        scale = np.max(np.abs(alone.states))
        assert np.max(np.abs(member.states - alone.states)) <= 1e-12 * scale
        for c in Trajectory.OBSERVABLE_COLUMNS:
            np.testing.assert_allclose(member.observables[c], alone.observables[c],
                                       rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(lean_member.observables[c],
                                          member.observables[c])
        assert lean_member.states is None


def test_batched_simulate_rejects_mixed_members(kdv127, z0_cosine):
    pointwise = assemble_closed_loop(kdv127, pointwise_linf_map(1.0, L))
    hilbert = assemble_closed_loop(kdv127, hilbert_norm_map(1.0))
    with pytest.raises(ParameterError, match="share"):
        simulate([pointwise, hilbert], [z0_cosine, z0_cosine], 0.01, 1e-3)
    with pytest.raises(ParameterError, match="equal length"):
        simulate([pointwise], [z0_cosine, z0_cosine], 0.01, 1e-3)
    with pytest.raises(ParameterError, match="equal length"):
        simulate([], [], 0.01, 1e-3)


def test_simulate_non_finite_state_raises_diverged(kdv127, z0_cosine):
    # d turns NaN after t = 5e-3: the half step from t = 5e-3 is the first
    # to see it, so the state recorded at step 6 is the first non-finite one
    sigma = pointwise_linf_map(1.0, L)
    broken = assemble_closed_loop(
        kdv127, sigma, custom_disturbance(lambda t: math.nan if t > 5e-3 else 0.0))
    with pytest.raises(SimulationDiverged) as info:
        simulate(broken, z0_cosine, 0.02, 1e-3)
    assert (info.value.step, info.value.member) == (6, 0)
    healthy = assemble_closed_loop(kdv127, sigma, zero_disturbance())
    with pytest.raises(SimulationDiverged, match="member 1 is not finite at step 6"):
        simulate([healthy, broken], [z0_cosine, z0_cosine], 0.02, 1e-3)


def test_simulate_non_finite_norm_raises_diverged():
    # the state stays finite, but ||A z||^2 overflows at every step: the
    # KdV operator on 31 nodes scaled to entries near 1e304
    grid = Grid(L, 31)
    m = build_kdv_operator(grid).matrix
    A = LinearOperator(grid, m * (1e304 / np.max(np.abs(m))))
    z0 = StateVector(grid, 1.0 - np.cos(2.0 * np.pi * grid.interior_nodes() / L))
    sys_sat = assemble_closed_loop(A, pointwise_linf_map(1.0, L))
    with pytest.raises(SimulationDiverged,
                       match="norm_graph of member 0 is not finite at step 0") as info:
        simulate(sys_sat, z0, 2e-3, 1e-3)
    assert (info.value.step, info.value.member, info.value.quantity) \
        == (0, 0, "norm_graph")
