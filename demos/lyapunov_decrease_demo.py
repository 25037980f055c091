# Select Lyapunov constants for both saturation regimes and check the
# decrease inequalities along simulated trajectories.
#
# Regime 1 (saturation bounded in the state space itself): cubic-augmented
# function V1 with constants (M, eps1, eps2) split from the measured
# decrease budget; its derivative must stay below
# -alpha ||z||^2 + rho ||d||^2 under disturbance.
#
# Regime 2 (saturation bounded only in the sup norm): quadratic-augmented
# function V2 for data of graph norm <= r; undisturbed, it must decay like
# exp(-mu t) with mu = C / (1 + M~ r).

import math

import numpy as np

from satiss import Grid, StateVector, assemble_closed_loop, build_kdv_operator, \
    case1_params, case2_params, cosine_disturbance, dissipation_report, \
    estimate_embedding_constant, hilbert_norm_map, linear_loop_operator, \
    measure_decay_constant, pointwise_linf_map, simulate, smooth_initial_data, \
    trajectory_observers, zero_disturbance

L = 2 * math.pi
grid = Grid(L, 127)
A = build_kdv_operator(grid)
C = measure_decay_constant(linear_loop_operator(A))
print("measured C = %.4f" % C)

# regime 1: Hilbert-ball saturation, cosine disturbance
sigma = hilbert_norm_map(1.0)
params = case1_params(C, sigma)
print("regime 1: M=%g eps1=%.4f eps2=%.4f -> alpha=%.4f rho=%.1f"
      % (params.M, params.eps1, params.eps2, params.alpha, params.rho))

x = grid.interior_nodes()
z0 = StateVector(grid, 1.0 - np.cos(x))
loop = assemble_closed_loop(A, sigma, cosine_disturbance(0.05, 1.0))
traj = simulate(loop, z0, 9.0, 1e-3)
traj.observables.update((name, series(traj)) for name, series
                        in trajectory_observers(params).items())
report = dissipation_report(traj, "V1", params.alpha, params.rho)
print("V1 decrease check: %d violations, worst margin %.4g"
      % (report.violation_count, report.worst_margin))
report.write_csv("demo_out_dissipation_v1.csv")
print("per-step record in demo_out_dissipation_v1.csv")

# regime 2: pointwise clamp, undisturbed, radius sweep
c_s = estimate_embedding_constant(grid, n_samples=300, rng_seed=11)
print("\nregime 2: sup-norm embedding constant estimate c_S = %.4f" % c_s)
loop = assemble_closed_loop(A, pointwise_linf_map(1.0, L), zero_disturbance())
rng = np.random.default_rng(4)
for r in (1.0, 4.0):
    p2 = case2_params(C, c_s, r)
    z0r = smooth_initial_data(grid, A, r, rng)
    traj = simulate(loop, z0r, 6.0, 1e-3)
    v2s = trajectory_observers(p2)["V2"](traj)
    ratio = np.max(v2s / (np.exp(-p2.mu * traj.times) * v2s[0]))
    print("r=%g: M~=%.4f mu=%.4f, worst V2 / envelope = %.6f (<= 1 + 1e-4)"
          % (r, p2.M_tilde, p2.mu, ratio))
