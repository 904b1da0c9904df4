"""Teacher-student highway lane-change RL lab.

A two-fidelity highway simulator, PPO and adaptive-clip teacher-gated
training, teacher pre-training with reward/Q predictor heads, low-level
spline/IDM/PID execution, and exact tabular certification of the
mixed-policy guarantees.
"""

from .highway_sim import (
    Action,
    Density,
    Fidelity,
    SimConfig,
    StepEvents,
    VehicleState,
    WorldState,
    detect_collision,
    spawn_scenario,
    step,
    traffic_policy,
    world_hash,
)
from .mdp_interface import (
    HighwayEnv,
    RewardBreakdown,
    RewardConfig,
    build_observation,
    efficiency_reward,
    safety_cost,
    step_reward,
)
from .ppo_core import (
    HyperParams,
    RolloutBuffer,
    Transition,
    compute_gae,
    evaluate_actor,
    ppo_loss,
    train_ppo,
)
from .s2cd_engine import (
    DualTransition,
    Origin,
    S2cdHyper,
    SwitchConfig,
    TeacherAugmentedEnv,
    adaptive_epsilon,
    augment_observation,
    collect_dual,
    decay_tau,
    kl_penalty,
    s2cd_loss,
    switch_action,
    train_s2cd,
)
from .teacher_suite import (
    Advice,
    SupervisedRow,
    TeacherBundle,
    fit_value_heads,
    load_bundle,
    save_bundle,
    teacher_advise,
    train_teacher,
)
from .tensor_nn import DenseNet, Head, NetSpec, OptimState, adamw_step, load_net, save_net
from .theory_validation import (
    TabularMdp,
    build_mixed_policy,
    check_mixed_policy_improvement,
    check_performance_bound,
    exact_policy_value,
    run_sweep,
)
from .lowlevel_control import (
    IdmParams,
    PidGains,
    PidState,
    SplineSegment,
    fit_cubic_spline,
    idm_accel,
    pid_step,
    plan_lane_change,
)

__version__ = "0.1.0"
