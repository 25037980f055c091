# Randomized sweep of the five saturation admissibility axioms for both
# actuator-limit models, at two authority levels.

import math

from satiss import Grid, check_axioms, hilbert_norm_map, pointwise_linf_map

L = 2 * math.pi
grid = Grid(L, 127)

for level in (1.0, 0.5):
    for sigma in (pointwise_linf_map(level, L), hilbert_norm_map(level)):
        report = check_axioms(sigma, grid, n_samples=5000,
                              amplitude=3.0 * level, rng_seed=0)
        print("kind=%s level=%g declared k=%g declared C0=%.4f"
              % (sigma.kind.value, level, sigma.lipschitz_k, sigma.item5_C0))
        print("  bound violations      :", report.bound_violations)
        print("  monotonicity failures :", report.monotonicity_violations)
        print("  Lipschitz estimate    : %.6f" % report.lipschitz_estimate)
        print("  defect residual (max) : %.3e" % report.item4_max_residual)
        print("  shift constant (est)  : %.4f" % report.item5_C0_estimate)

# the shift constant estimate of a sweep on other samples
report = check_axioms(hilbert_norm_map(1.0), grid, 5000, 3.0, rng_seed=1)
print("Hilbert-ball shift constant, sweep with seed 1: %.4f (<= 3)"
      % report.item5_C0_estimate)
