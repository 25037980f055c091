# Build the transport-dispersion generator, verify its dissipativity, and
# compare the decay of the unsaturated loop against both saturated loops.

import math

import numpy as np

from satiss import DisturbanceSignal, Grid, SaturatedSystem, StateVector, \
    build_kdv_operator, hilbert_norm_map, linear_loop_operator, \
    measure_decay_constant, pointwise_linf_map, simulate

L = 2 * math.pi
grid = Grid(L, 127)
A = build_kdv_operator(grid)

# build_kdv_operator returns A only once a Cholesky factor of -sym(A) exists
print("lambda_max(sym A) = %.3e (gate: -sym(A) has a Cholesky factor, so "
      "lambda_max < 0)" % A.max_symmetric_eigenvalue)
print("measured decrease constant of the linear loop: C = %.4f"
      % measure_decay_constant(linear_loop_operator(A)))

x = grid.interior_nodes()
z0 = StateVector(grid, 1.0 - np.cos(x))
T, dt = 9.0, 1e-3

loops = {
    "linear feedback": SaturatedSystem(A, None, DisturbanceSignal()),
    "pointwise clamp": SaturatedSystem(A, pointwise_linf_map(1.0, L),
                                       DisturbanceSignal()),
    "Hilbert-ball retraction": SaturatedSystem(A, hilbert_norm_map(1.0),
                                               DisturbanceSignal()),
}

print("\ndecay of ||z(t)|| from z0 = 1 - cos(x) (||z0|| = %.3f):"
      % np.sqrt(grid.spacing_h * np.dot(z0.values, z0.values)))
print("%-24s %10s %10s %10s" % ("loop", "t=1", "t=3", "t=9"))
for name, loop in loops.items():
    traj = simulate(loop, z0, T, dt)
    norms = traj.observables["norm_l2"]
    picks = [norms[np.searchsorted(traj.times, t)] for t in (1.0, 3.0, 9.0)]
    print("%-24s %10.2e %10.2e %10.2e" % (name, *picks))
    # the L2 norm never increases along any of these loops
    assert np.max(np.diff(norms)) <= 0.0
