"""Low-level execution stack for the complex-fidelity world.

The two-piece cubic lane-change path, IDM car following, and the small
PID controller used for lateral path tracking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


# Hard deceleration floor. Unbounded IDM braking at tiny gaps destabilises
# fixed-step integration, so commands below this are clipped.
BRAKE_FLOOR = -9.0


# Intelligent Driver Model constants, shared by every vehicle; the desired
# speed is each vehicle's own and is passed to ``idm_accel``.
IDM_ZETA = 4.0      # acceleration exponent
IDM_T = 0.6         # desired time gap, s
IDM_S0 = 2.0        # standstill distance, m
IDM_A_MAX = 2.0     # maximal acceleration, m/s^2
IDM_B_COMF = 2.0    # comfortable deceleration, m/s^2
# 2 * sqrt(a_max * b_comf), the denominator of the dynamic gap term
IDM_BRAKE_SCALE = 2.0 * math.sqrt(IDM_A_MAX * IDM_B_COMF)


def idm_accel(v_e: float, v_lead: float, gap: float, v0: float) -> float:
    """Longitudinal acceleration command for a follower with desired speed
    ``v0``.

    ``gap`` is the bumper-to-bumper distance to the leader; pass
    ``math.inf`` with ``v_lead == v_e`` for the no-leader case. The result
    never exceeds ``IDM_A_MAX`` and is floored at ``BRAKE_FLOOR``.
    """
    if gap <= 0:
        raise ValueError("idm_accel requires a positive gap")
    desired = IDM_S0 + v_e * IDM_T + v_e * (v_e - v_lead) / IDM_BRAKE_SCALE
    # max(desired, 0.0) and max(acc, BRAKE_FLOOR) without the call overhead
    desired = 0.0 if 0.0 > desired else desired
    acc = IDM_A_MAX * (1.0 - (v_e / v0) ** IDM_ZETA - (desired / gap) ** 2)
    return BRAKE_FLOOR if BRAKE_FLOOR > acc else acc


@dataclass(frozen=True)
class PidGains:
    kp: float
    kd: float
    ki: float
    integral_clamp: float = 10.0

    def __post_init__(self) -> None:
        if min(self.kp, self.kd, self.ki) < 0 or self.integral_clamp <= 0:
            raise ValueError("PID gains must be nonnegative with a positive integral clamp")


# Lateral path-tracking gains of the complex-fidelity vehicle.
LATERAL_GAINS = PidGains(kp=0.75, kd=0.01, ki=0.2)


@dataclass
class PidState:
    integral: float = 0.0
    prev_error: float = 0.0


def pid_step(gains: PidGains, error: float, state: PidState, dt: float) -> float:
    """One discrete PID update; mutates ``state`` and returns the output."""
    if dt <= 0:
        raise ValueError("pid_step requires dt > 0")
    integral = state.integral + error * dt
    integral = min(max(integral, -gains.integral_clamp), gains.integral_clamp)
    derivative = (error - state.prev_error) / dt
    state.integral = integral
    state.prev_error = error
    return gains.kp * error + gains.ki * integral + gains.kd * derivative


@dataclass(frozen=True)
class LanePath:
    """Natural cubic spline through the three waypoints of a lane change.

    Two pieces y = a + b*u + c*u^2 + d*u^3, with u measured from the left
    end of each, meet at ``x_mid``. The path holds its start height before
    ``x_start`` and the target centerline from ``x_end`` on.
    """

    x_start: float
    x_mid: float
    x_end: float
    y_end: float
    left: tuple[float, float, float, float]
    right: tuple[float, float, float, float]

    @classmethod
    def through(cls, waypoints: list[tuple[float, float]]) -> "LanePath":
        """Fit the three (x, y) waypoints; x must be strictly increasing.

        The end second derivatives are 0, which leaves one interior unknown.
        """
        (x0, y0), (x1, y1), (x2, y2) = ((float(x), float(y)) for x, y in waypoints)
        if not x0 < x1 < x2:
            raise ValueError("x coordinates must be strictly increasing")
        h0, h1 = x1 - x0, x2 - x1
        m1 = 6.0 * ((y2 - y1) / h1 - (y1 - y0) / h0) / (2.0 * (h0 + h1))

        def piece(ya, yb, h, ma, mb):
            return (ya, (yb - ya) / h - h * (2.0 * ma + mb) / 6.0, ma / 2.0,
                    (mb - ma) / (6.0 * h))

        return cls(x0, x1, x2, y2, piece(y0, y1, h0, 0.0, m1), piece(y1, y2, h1, m1, 0.0))

    def _piece(self, x: float) -> tuple[float, tuple[float, float, float, float]]:
        if x >= self.x_mid:
            return x - self.x_mid, self.right
        return x - self.x_start, self.left

    def value(self, x: float) -> float:
        if x >= self.x_end:
            return self.y_end
        if x <= self.x_start:
            return self.left[0]
        u, (a, b, c, d) = self._piece(x)
        return a + u * (b + u * (c + u * d))

    def slope(self, x: float) -> float:
        if x < self.x_start or x >= self.x_end:
            return 0.0
        u, (_, b, c, d) = self._piece(x)
        return b + u * (2.0 * c + 3.0 * u * d)


# Longitudinal span of a lane-change path: the target waypoint sits this far
# ahead of the vehicle, on the target-lane centerline.
LANE_CHANGE_SPAN = 10.0


def plan_lane_change(
    x: float,
    y: float,
    current_lane: int,
    target_lane: int,
    lane_width: float,
    lanes_count: int,
) -> list[tuple[float, float]]:
    """Three waypoints from the current position to the target-lane centerline.

    The end waypoint is exactly ``LANE_CHANGE_SPAN`` metres ahead on the
    target centerline, with a midpoint at half the lateral offset so the
    fitted path ramps smoothly. The target must be an existing lane next
    to the current one.
    """
    if not 0 <= target_lane < lanes_count:
        raise ValueError(f"target lane {target_lane} does not exist")
    if abs(target_lane - current_lane) != 1:
        raise ValueError("target lane must be adjacent")
    y_target = (target_lane + 0.5) * lane_width
    return [
        (x, y),
        (x + LANE_CHANGE_SPAN / 2.0, (y + y_target) / 2.0),
        (x + LANE_CHANGE_SPAN, y_target),
    ]
