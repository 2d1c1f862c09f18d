"""Resilient state estimation for bounded-noise LTI systems under sensor
attacks: minimum-support decoding, attackability analysis with numeric
certificates, stealthy attack synthesis, and intermittent data-authentication
policy evaluation."""

from .model import (
    ConfigError,
    SensorSet,
    SystemModel,
    build_auth_O,
    build_overlap_stack,
    build_O,
    classical_obs_stack,
    max_sparse_observability,
    null_basis,
    rank_with_tol,
    suggest_delta_w,
    unstable_chain,
    unstable_eigenstructure,
    unstable_null_intersection,
)
from .decoder import (
    DecodeResult,
    NoiseFeasibleSet,
    WindowDecoder,
    decode,
    detector_threshold,
    innovation_bound,
)
from .detectors import AlarmVerdict, detector_name, id1, id2, innovation_check
from .attackability import (
    PaVerdict,
    PolicyVerdict,
    analyze,
    auth_blocks_single_step,
    pa_over_time_id1,
    pa_over_time_id2,
    pa_single_step,
    policy_prevents_pa,
)
from .sim import (
    AuthPolicy,
    NoiseBoundViolation,
    NoiseSpec,
    PrecisionLoss,
    SimTrace,
    apply_attack,
    run_closed_loop,
)
from .synth import (
    AttackPlan,
    NotPerfectlyAttackable,
    single_step_attack,
    stealth_slack,
    sustained_attack,
)
from .config import ScenarioConfig, load_config, parse_config, vtf_model, vtf_scenario

__version__ = "0.1.0"
