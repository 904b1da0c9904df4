import bisect
import math

import numpy as np
import pytest

from s2cd.lowlevel_control import (
    BRAKE_FLOOR,
    LATERAL_GAINS,
    LanePath,
    PidGains,
    PidState,
    idm_accel,
    pid_step,
    plan_lane_change,
)


def natural_spline_second_derivs(xs, ys):
    """Independent oracle: solve the full dense natural-spline system."""
    n = len(xs)
    A = np.zeros((n, n))
    rhs = np.zeros(n)
    A[0, 0] = 1.0
    A[-1, -1] = 1.0
    for i in range(1, n - 1):
        h0 = xs[i] - xs[i - 1]
        h1 = xs[i + 1] - xs[i]
        A[i, i - 1] = h0
        A[i, i] = 2.0 * (h0 + h1)
        A[i, i + 1] = h1
        rhs[i] = 6.0 * ((ys[i + 1] - ys[i]) / h1 - (ys[i] - ys[i - 1]) / h0)
    return np.linalg.solve(A, rhs)


def reference_spline(points):
    """The general n-point natural spline (Thomas solve, one piece per
    interval) that ``LanePath`` specializes: [(x_i, a, b, c, d), ...]."""
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    n = len(xs)
    h = [xs[i + 1] - xs[i] for i in range(n - 1)]
    m = [0.0] * n
    if n > 2:
        diag = [2.0 * (h[i - 1] + h[i]) for i in range(1, n - 1)]
        rhs = [6.0 * ((ys[i + 1] - ys[i]) / h[i] - (ys[i] - ys[i - 1]) / h[i - 1])
               for i in range(1, n - 1)]
        upper = [h[i] for i in range(1, n - 2)]
        for i in range(1, len(diag)):
            w = h[i] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            rhs[i] -= w * rhs[i - 1]
        sol = [0.0] * len(diag)
        sol[-1] = rhs[-1] / diag[-1]
        for i in range(len(diag) - 2, -1, -1):
            sol[i] = (rhs[i] - upper[i] * sol[i + 1]) / diag[i]
        m[1 : n - 1] = sol
    return [(xs[i], ys[i], (ys[i + 1] - ys[i]) / h[i] - h[i] * (2.0 * m[i] + m[i + 1]) / 6.0,
             m[i] / 2.0, (m[i + 1] - m[i]) / (6.0 * h[i])) for i in range(n - 1)]


def reference_value(points, x):
    """The path value with the clamps of the general fit: the start height
    up to the first knot, the end height from the last one on, and the
    piece found by bisecting the piece starts in between."""
    pieces = reference_spline(points)
    if x >= points[-1][0]:
        return points[-1][1]
    if x <= points[0][0]:
        return pieces[0][1]
    idx = bisect.bisect_right([p[0] for p in pieces], x) - 1
    x_i, a, b, c, d = pieces[min(max(idx, 0), len(pieces) - 1)]
    u = x - x_i
    return a + u * (b + u * (c + u * d))


def reference_slope(points, x):
    pieces = reference_spline(points)
    if x < points[0][0] or x >= points[-1][0]:
        return 0.0
    idx = bisect.bisect_right([p[0] for p in pieces], x) - 1
    x_i, _, b, c, d = pieces[min(max(idx, 0), len(pieces) - 1)]
    u = x - x_i
    return b + u * (2.0 * c + 3.0 * u * d)


class TestCubicSpline:
    def test_collinear_points_stay_linear(self):
        path = LanePath.through([(0.0, 0.0), (1.0, 2.0), (2.0, 4.0)])
        for a, b, c, d in (path.left, path.right):
            assert abs(c) < 1e-12
            assert abs(d) < 1e-12
            assert b == pytest.approx(2.0, abs=1e-12)

    def test_random_knots_match_dense_solve_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            xs = np.cumsum(rng.uniform(0.5, 2.0, size=3))
            ys = rng.uniform(-3.0, 3.0, size=3)
            path = LanePath.through(list(zip(xs, ys)))
            m_oracle = natural_spline_second_derivs(xs, ys)
            # knot interpolation is exact
            assert path.left[0] == ys[0]
            assert path.right[0] == ys[1]
            assert path.value(float(xs[0])) == ys[0]
            assert path.value(float(xs[2])) == ys[2]
            assert path.value(float(xs[1])) == ys[1]
            h1 = xs[2] - xs[1]
            assert path.right[0] + h1 * (path.right[1] + h1 * (path.right[2] + h1 * path.right[3])) \
                == pytest.approx(ys[2], abs=1e-9)
            # second derivative at each knot against the dense solve
            second = [2.0 * path.left[2], 2.0 * path.right[2],
                      2.0 * path.right[2] + 6.0 * path.right[3] * h1]
            assert second == pytest.approx(list(m_oracle), abs=1e-9)
            # C1/C2 continuity at x_mid
            h0 = xs[1] - xs[0]
            a, b, c, d = path.left
            assert a + h0 * (b + h0 * (c + h0 * d)) == pytest.approx(path.right[0], abs=1e-9)
            assert b + h0 * (2.0 * c + 3.0 * h0 * d) == pytest.approx(path.right[1], abs=1e-9)
            assert 2.0 * c + 6.0 * d * h0 == pytest.approx(2.0 * path.right[2], abs=1e-9)

    def test_rejects_descending_or_duplicate_x(self):
        with pytest.raises(ValueError):
            LanePath.through([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            LanePath.through([(0.0, 0.0), (1.0, 1.0), (0.5, 1.0)])
        with pytest.raises(ValueError):
            LanePath.through([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            LanePath.through([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0)])

    def test_bit_identical_to_the_general_fit_on_planned_paths(self):
        rng = np.random.default_rng(15)
        lane_width = 3.75
        for n in range(2000):
            lanes_count = int(rng.integers(2, 6))
            current = int(rng.integers(0, lanes_count))
            target = current + (1 if n % 2 == 0 else -1)
            if not 0 <= target < lanes_count:
                target = current - (target - current)
            x = float(rng.uniform(0.0, 2000.0))
            y = (current + 0.5) * lane_width + float(rng.uniform(-1.0, 1.0))
            pts = plan_lane_change(x, y, current, target, lane_width, lanes_count)
            path = LanePath.through(pts)
            ref = reference_spline(pts)
            assert np.array([path.left, path.right]).tobytes() == \
                np.array([piece[1:] for piece in ref]).tobytes()
            probes = [pts[0][0], pts[1][0], pts[2][0], x - 1.0, x + 12.0,
                      *(x + rng.uniform(-1.0, 11.0, size=8))]
            got = np.array([(path.value(float(p)), path.slope(float(p))) for p in probes])
            want = np.array([(reference_value(pts, float(p)), reference_slope(pts, float(p)))
                             for p in probes])
            assert got.tobytes() == want.tobytes()


class TestIdm:
    def test_free_flow_equilibrium_at_desired_speed(self):
        acc = idm_accel(25.0, 25.0, math.inf, 25.0)
        assert abs(acc) < 1e-9

    def test_standstill_far_leader_value(self):
        # a * (1 - 0 - (s0/gap)^2) with table constants
        acc = idm_accel(0.0, 0.0, 100.0, 25.0)
        assert acc == pytest.approx(2.0 * (1.0 - (2.0 / 100.0) ** 2), abs=1e-12)
        assert acc == pytest.approx(1.9992, abs=1e-9)

    def test_equal_speeds_at_desired_gap_brakes(self):
        # gap equals s0 + v*T so the interaction term contributes exactly -a
        v = 20.0
        gap = 2.0 + v * 0.6
        acc = idm_accel(v, v, gap, 25.0)
        assert acc == pytest.approx(2.0 * (1.0 - (v / 25.0) ** 4 - 1.0), abs=1e-12)
        assert acc < 0

    def test_tiny_gap_braking_is_floored(self):
        acc = idm_accel(20.0, 0.0, 0.5, 25.0)
        assert acc == BRAKE_FLOOR

    def test_never_exceeds_max_acceleration(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            v = rng.uniform(0.0, 25.0)
            vl = rng.uniform(0.0, 25.0)
            gap = rng.uniform(0.5, 200.0)
            acc = idm_accel(v, vl, gap, 25.0)
            assert BRAKE_FLOOR <= acc <= 2.0 + 1e-12

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            idm_accel(10.0, 10.0, 0.0, 25.0)
        with pytest.raises(ValueError):
            idm_accel(10.0, 10.0, -2.0, 25.0)


class TestPid:
    def test_zero_error_history_gives_zero(self):
        state = PidState()
        assert pid_step(LATERAL_GAINS, 0.0, state, 0.05) == 0.0

    def test_first_step_closed_form(self):
        gains = PidGains(kp=0.75, kd=0.01, ki=0.2)
        e, dt = 1.3, 0.05
        out = pid_step(gains, e, PidState(), dt)
        assert out == pytest.approx(gains.kp * e + gains.ki * e * dt + gains.kd * e / dt, abs=1e-12)

    def test_integral_clamp(self):
        gains = PidGains(kp=0.0, kd=0.0, ki=1.0, integral_clamp=0.5)
        state = PidState()
        for _ in range(100):
            out = pid_step(gains, 10.0, state, 0.1)
        assert out == pytest.approx(0.5, abs=1e-12)

    def test_converges_on_first_order_lag_plant(self):
        # independent plant: y' = (K*u - y)/tau, driven toward setpoint 1.0
        dt, gain, tau = 0.05, 10.0, 0.4
        y, state = 0.0, PidState()
        setpoint = 1.0
        for _ in range(200):
            e = setpoint - y
            u = pid_step(LATERAL_GAINS, e, state, dt)
            y += dt * (gain * u - y) / tau
            assert abs(y) < 100.0  # no divergence
        assert abs(setpoint - y) < 0.02


class TestPlanLaneChange:
    def test_end_waypoint_on_target_centerline(self):
        pts = plan_lane_change(x=40.0, y=5.625, current_lane=1, target_lane=2,
                               lane_width=3.75, lanes_count=3)
        assert pts[-1] == (50.0, pytest.approx(2.5 * 3.75))
        assert pts[0] == (40.0, 5.625)

    def test_same_lane_rejected(self):
        with pytest.raises(ValueError, match="adjacent"):
            plan_lane_change(10.0, 1.875, 0, 0, 3.75, 3)

    def test_rejects_nonadjacent_or_missing_lane(self):
        with pytest.raises(ValueError):
            plan_lane_change(0.0, 1.875, 0, 2, 3.75, 3)
        with pytest.raises(ValueError):
            plan_lane_change(0.0, 1.875, 2, 3, 3.75, 3)

    def test_path_slope_bounded(self):
        pts = plan_lane_change(0.0, 1.875, 0, 1, 3.75, 3)
        path = LanePath.through(pts)
        xs = np.linspace(0.0, 10.0, 400)
        slopes = [abs(path.slope(float(x))) for x in xs]
        assert max(slopes) < 0.8

    def test_path_value_clamps_beyond_span(self):
        pts = plan_lane_change(0.0, 1.875, 1, 0, 3.75, 3)
        path = LanePath.through(pts)
        assert path.value(25.0) == pytest.approx(0.5 * 3.75)
        assert path.value(-5.0) == pytest.approx(1.875)
        assert path.slope(25.0) == 0.0
