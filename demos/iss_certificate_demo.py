# End-to-end input-to-state stability evidence: disturbance-gap bounds,
# radius-dependent decay fits, their globalization, and an ensemble
# certificate ||z(t)|| <= K exp(-mu t) ||z0|| + rho ||d||.

import math

import numpy as np

from satiss import DisturbanceSignal, Grid, SaturatedSystem, brs_check, \
    build_kdv_operator, fit_semiglobal, globalize, gronwall_gap, \
    iss_certificate, pointwise_linf_map, simulate, smooth_initial_data

L = 2 * math.pi
grid = Grid(L, 127)
A = build_kdv_operator(grid)
sigma = pointwise_linf_map(1.0, L)
loop = SaturatedSystem(A, sigma, DisturbanceSignal())
rng = np.random.default_rng(0)

# 1. gap between a disturbed run and its undisturbed twin
z0 = smooth_initial_data(grid, A, 2.0, rng)
gap = gronwall_gap(loop, z0, DisturbanceSignal(0.05, 1.0), 6.0, 1e-3)
print("gap bound: %d violations of the convolution bound"
      % gap.conservative_violations)
gap.write_csv("demo_out_gap.csv")

# 2. semi-global decay envelopes K(r) exp(-mu(r) t) and their globalization
fit = fit_semiglobal(loop, [1.0, 2.0, 4.0], 4, 9.0, 1e-3, rng_seed=5)
for i, r in enumerate(fit.r_values):
    print("r=%g: K=%.3f mu=%.3f" % (r, fit.K_of_r[i], fit.mu_of_r[i]))
T_r, K_g, mu_g = globalize(fit, 4.0)
print("hand-off at T_4 = %.3f: global envelope %.3f exp(-%.3f t)"
      % (T_r, K_g, mu_g))

# 3. ensemble certificate with mixed amplitudes and disturbances
z0s, ds = [], []
for i, target in enumerate(np.linspace(0.5, 4.0, 12)):
    member_rng = np.random.default_rng((1234, i))
    z0s.append(smooth_initial_data(grid, A, target, member_rng))
    amp = [0.0, 0.03, 0.08][i % 3]
    ds.append(DisturbanceSignal() if amp == 0.0 else DisturbanceSignal(amp, 1.0))
cert = iss_certificate(loop, z0s, ds, 9.0, 1e-3)
print("certificate over %d members: K=%.3f mu=%.3f rho=%.3f "
      "max violation %.2e -> valid=%s"
      % (cert.ensemble_size, cert.K, cert.mu, cert.rho_gain,
         cert.max_violation, cert.valid()))

# 4. reachability bound carried by the saturation constants
traj = simulate(SaturatedSystem(A, sigma, DisturbanceSignal(0.05, 1.0)),
                z0, 9.0, 1e-3)
ok, worst = brs_check(traj, sigma.item5_C0)
print("reachability bound ||z||^2 <= ||z0||^2 + C0 ||d||: %s (margin %.3f)"
      % ("holds" if ok else "violated", worst))
