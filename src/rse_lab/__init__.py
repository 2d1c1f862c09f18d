"""Resilient state estimation for bounded-noise LTI systems under sensor
attacks: minimum-support decoding, attackability analysis with numeric
certificates, stealthy attack synthesis, and intermittent data-authentication
policy evaluation."""

from .model import (
    ConfigError,
    SensorSet,
    SystemModel,
    build_overlap_stack,
    build_O,
    classical_obs_stack,
    null_basis,
    rank_with_tol,
    suggest_delta_w,
    unstable_chain,
    unstable_eigenstructure,
)
from .decoder import (
    DecodeResult,
    NoiseFeasibleSet,
    WindowDecoder,
    decode,
    detector_threshold,
    innovation_bound,
)
from .detectors import detector_name, id1, innovation_check
from .attackability import (
    PaVerdict,
    PolicyVerdict,
    analyze,
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
from .synth import AttackPlan, NotPerfectlyAttackable, sustained_attack
from .config import ScenarioConfig, load_config, parse_config, vtf_model, vtf_scenario

__version__ = "0.1.0"
