"""Teacher-student highway lane-change RL lab.

A two-fidelity highway simulator, PPO and adaptive-clip teacher-gated
training, teacher pre-training with reward/Q predictor heads, low-level
spline/IDM/PID execution, and exact tabular certification of the
mixed-policy guarantees.
"""

__version__ = "0.1.0"
