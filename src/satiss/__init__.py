"""Saturated-feedback simulation and numerical ISS certification for
dissipative PDE control systems, with the linearized Korteweg-de Vries
loop as the reference instance."""

from .errors import CertificationError, ConfigError, DissipativityGateFailed, \
    GridMismatchError, InfeasibleParameters, ParameterError, SimulationDiverged
from .spaces import Grid, StateVector, boundary_envelope, inner_l2, norm_graph, \
    norm_l2, norm_linf, random_smooth_values
from .saturation import AxiomReport, SaturationKind, SaturationMap, check_axioms, \
    hilbert_norm_map, pointwise_linf_map
from .system import DisturbanceSignal, LinearOperator, SaturatedSystem, \
    Trajectory, build_kdv_operator, linear_loop_operator, simulate
from .lyapunov import DissipationReport, LyapunovParams, case1_params, \
    case2_params, dissipation_report, estimate_embedding_constant, \
    measure_decay_constant, trajectory_observers
from .iss import GapReport, IssCertificate, SemiGlobalFit, brs_check, \
    fit_semiglobal, globalize, gronwall_gap, iss_certificate, \
    smooth_initial_data
