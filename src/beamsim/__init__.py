"""Monte-Carlo simulator for SVD-phase hybrid beamforming on large arrays."""

from .beamformers import HybridBeamformer, PhaseResolution, SelectionPolicy
from .channel import (
    GEOMETRIC,
    RAYLEIGH,
    ChannelModel,
    ChannelRealization,
    draw_channels,
    steering_vector,
)
from .closed_form import (
    PowerModelParams,
    alpha_from_beta,
    mixed_gap,
    mu_zf_gap,
    predicted_rate,
    quant_gap_bound,
    rf_power_consumption,
    selection_gap,
    svd_phase_gap,
    truncated_rayleigh_mean,
)
from .configio import CSV_COLUMNS, parse_config, serialize_config, write_csv
from .errors import (
    BeamsimError,
    ConfigError,
    ConvergenceError,
    DimensionError,
    SingularMatrixError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    Scheme,
    SummaryStats,
    SweepAxis,
    TrialRecord,
    expand_sweep,
    figure_preset,
    run_experiment,
    run_trial,
    run_trials,
)
from .linalg import (
    SeededRng,
    SvdResult,
    ks_statistic,
    rayleigh_cdf,
    sample_complex_gaussian,
    thin_svd,
)
from .rates import RateReport, capacity_p2p, waterfill

__version__ = "0.1.0"
