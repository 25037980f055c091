"""Saturated-feedback simulation and numerical ISS certification for
dissipative PDE control systems, with the linearized Korteweg-de Vries
loop as the reference instance."""

from .errors import CertificationError, ConfigError, DissipativityGateFailed, \
    GridMismatchError, InfeasibleParameters, ParameterError, SimulationDiverged
from .spaces import Grid, StateVector, boundary_envelope, inner_l2, norm_graph, \
    norm_l1, norm_l2, norm_linf, random_smooth_values
from .saturation import AxiomReport, SaturationKind, SaturationMap, \
    apply_saturation, check_axioms, estimate_item5_C0, hilbert_norm_map, \
    pointwise_linf_map
from .system import DisturbanceSignal, LinearOperator, SaturatedSystem, \
    Trajectory, assemble_closed_loop, build_kdv_operator, cosine_disturbance, \
    custom_disturbance, linear_loop_operator, simulate, step, table_disturbance, \
    with_disturbance, zero_disturbance
from .lyapunov import DissipationReport, LyapunovParams, case1_decrease_coeff, \
    case1_iss_gain, case1_params, case2_decay_rate, case2_params, \
    dissipation_report, estimate_embedding_constant, measure_decay_constant, \
    select_param_case2, select_params_case1, trajectory_observers, v1, v2, \
    v_quadratic
from .iss import GapReport, IssCertificate, SemiGlobalFit, brs_check, \
    fit_semiglobal, globalize, gronwall_gap, iss_certificate, \
    smooth_initial_data
