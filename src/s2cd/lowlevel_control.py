"""Low-level execution stack for the complex-fidelity world.

Cubic-spline lane-change paths, IDM car following, and the small PID
controller used for lateral path tracking.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field


# Hard deceleration floor. Unbounded IDM braking at tiny gaps destabilises
# fixed-step integration, so commands below this are clipped.
BRAKE_FLOOR = -9.0


@dataclass(frozen=True)
class IdmParams:
    """Intelligent Driver Model constants."""

    zeta: float = 4.0      # acceleration exponent
    v0: float = 25.0       # desired speed, m/s
    T: float = 0.6         # desired time gap, s
    s0: float = 2.0        # standstill distance, m
    a_max: float = 2.0     # maximal acceleration, m/s^2
    b_comf: float = 2.0    # comfortable deceleration, m/s^2
    # 2 * sqrt(a_max * b_comf), the denominator of the dynamic gap term
    brake_scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("zeta", "v0", "T", "s0", "a_max", "b_comf"):
            if getattr(self, name) <= 0:
                raise ValueError(f"IdmParams.{name} must be positive")
        object.__setattr__(self, "brake_scale", 2.0 * math.sqrt(self.a_max * self.b_comf))


def idm_accel(v_e: float, v_lead: float, gap: float, p: IdmParams = IdmParams()) -> float:
    """Longitudinal acceleration command for a follower.

    ``gap`` is the bumper-to-bumper distance to the leader; pass
    ``math.inf`` with ``v_lead == v_e`` for the no-leader case. The result
    never exceeds ``p.a_max`` and is floored at ``BRAKE_FLOOR``.
    """
    if gap <= 0:
        raise ValueError("idm_accel requires a positive gap")
    desired = p.s0 + v_e * p.T + v_e * (v_e - v_lead) / p.brake_scale
    # max(desired, 0.0) and max(acc, BRAKE_FLOOR) without the call overhead
    desired = 0.0 if 0.0 > desired else desired
    acc = p.a_max * (1.0 - (v_e / p.v0) ** p.zeta - (desired / gap) ** 2)
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
class SplineSegment:
    """One cubic piece y(x) = a + b*(x-x_i) + c*(x-x_i)^2 + d*(x-x_i)^3 on [x_i, x_{i+1}]."""

    x_i: float
    a: float
    b: float
    c: float
    d: float

    def value(self, x: float) -> float:
        u = x - self.x_i
        return self.a + u * (self.b + u * (self.c + u * self.d))

    def slope(self, x: float) -> float:
        u = x - self.x_i
        return self.b + u * (2.0 * self.c + 3.0 * u * self.d)


def fit_cubic_spline(points: list[tuple[float, float]]) -> list[SplineSegment]:
    """Natural cubic spline through ``points`` (strictly increasing x).

    Second derivatives vanish at both ends; every knot is interpolated
    exactly. Returns one segment per interval.
    """
    if len(points) < 2:
        raise ValueError("need at least two points")
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    for x_prev, x_next in zip(xs, xs[1:]):
        if x_next <= x_prev:
            raise ValueError("x coordinates must be strictly increasing")

    n = len(xs)
    h = [xs[i + 1] - xs[i] for i in range(n - 1)]
    # Tridiagonal system for interior second derivatives m_1..m_{n-2};
    # natural boundary conditions fix m_0 = m_{n-1} = 0.
    m = [0.0] * n
    if n > 2:
        diag = [2.0 * (h[i - 1] + h[i]) for i in range(1, n - 1)]
        rhs = [
            6.0 * ((ys[i + 1] - ys[i]) / h[i] - (ys[i] - ys[i - 1]) / h[i - 1])
            for i in range(1, n - 1)
        ]
        upper = [h[i] for i in range(1, n - 2)]
        # Thomas algorithm.
        for i in range(1, len(diag)):
            w = h[i] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            rhs[i] -= w * rhs[i - 1]
        sol = [0.0] * len(diag)
        sol[-1] = rhs[-1] / diag[-1]
        for i in range(len(diag) - 2, -1, -1):
            sol[i] = (rhs[i] - upper[i] * sol[i + 1]) / diag[i]
        m[1 : n - 1] = sol

    segments = []
    for i in range(n - 1):
        a = ys[i]
        b = (ys[i + 1] - ys[i]) / h[i] - h[i] * (2.0 * m[i] + m[i + 1]) / 6.0
        c = m[i] / 2.0
        d = (m[i + 1] - m[i]) / (6.0 * h[i])
        segments.append(SplineSegment(x_i=xs[i], a=a, b=b, c=c, d=d))
    return segments


def spline_value(segments: list[SplineSegment], x: float) -> float:
    """Evaluate the spline; outside the knot range the boundary cubic extrapolates."""
    seg, x = _locate(segments, x)
    return seg.value(x)


def spline_slope(segments: list[SplineSegment], x: float) -> float:
    """dy/dx of the spline, extrapolating the boundary cubic outside the knots."""
    seg, x = _locate(segments, x)
    return seg.slope(x)


def _locate(segments: list[SplineSegment], x: float) -> tuple[SplineSegment, float]:
    starts = [s.x_i for s in segments]
    idx = bisect.bisect_right(starts, x) - 1
    idx = min(max(idx, 0), len(segments) - 1)
    return segments[idx], x


@dataclass(frozen=True)
class LanePath:
    """A fitted lane-change path with explicit start/end bookkeeping."""

    segments: list[SplineSegment]
    x_start: float
    x_end: float
    y_end: float

    def value(self, x: float) -> float:
        if x >= self.x_end:
            return self.y_end
        if x <= self.x_start:
            return self.segments[0].a
        return spline_value(self.segments, x)

    def slope(self, x: float) -> float:
        if x < self.x_start or x >= self.x_end:
            return 0.0
        return spline_slope(self.segments, x)


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
    """Waypoints from the current position to the target-lane centerline.

    The end waypoint is exactly ``LANE_CHANGE_SPAN`` metres ahead on the
    target centerline, with a midpoint at half the lateral offset so the
    fitted path ramps smoothly. A same-lane "change" degenerates to a
    straight segment.
    """
    if not 0 <= target_lane < lanes_count:
        raise ValueError(f"target lane {target_lane} does not exist")
    if abs(target_lane - current_lane) > 1:
        raise ValueError("target lane must be adjacent")
    y_target = (target_lane + 0.5) * lane_width
    if target_lane == current_lane:
        return [(x, y), (x + LANE_CHANGE_SPAN, y)]
    return [
        (x, y),
        (x + LANE_CHANGE_SPAN / 2.0, (y + y_target) / 2.0),
        (x + LANE_CHANGE_SPAN, y_target),
    ]


def build_lane_path(waypoints: list[tuple[float, float]]) -> LanePath:
    segments = fit_cubic_spline(waypoints)
    return LanePath(
        segments=segments,
        x_start=waypoints[0][0],
        x_end=waypoints[-1][0],
        y_end=waypoints[-1][1],
    )
