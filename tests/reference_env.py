"""The scalar environment step and observation, kept as a test oracle for
the array kernels in soccerlab.env.sim.

`step`, `world_view` and `observe_view` are the per-player loop versions
that the array code replaced; `tests/test_env_reference.py` requires the
array code to reproduce them bit for bit. Everything they share with the
array code unchanged (state records, throw-ins, angle wrapping, goal
positions) is imported from soccerlab.env.sim.
"""
from __future__ import annotations

import numpy as np

from soccerlab.env.config import EnvConfig
from soccerlab.env.sim import (
    ACTION_DIM,
    N_CHANNELS,
    N_PLAYERS,
    OBS_DIM,
    TEAM_OF,
    TEAMMATE_OF,
    EnvState,
    StepResult,
    WorldView,
    _throw_in,
    _wrap_angle,
    goal_centers,
)


def _clean_actions(actions) -> tuple[np.ndarray, list[int]]:
    acts = np.asarray(actions, dtype=np.float64)
    if acts.shape != (N_PLAYERS, ACTION_DIM):
        raise ValueError(f"actions must have shape {(N_PLAYERS, ACTION_DIM)}, got {acts.shape}")
    acts = acts.copy()
    bad = []
    for i in range(N_PLAYERS):
        if not np.all(np.isfinite(acts[i])):
            acts[i] = 0.0
            bad.append(i)
    acts[:, 0] = np.clip(acts[:, 0], -1.0, 1.0)
    acts[:, 1] = np.clip(acts[:, 1], -1.0, 1.0)
    acts[:, 2] = np.clip(acts[:, 2], 0.0, 1.0)
    return acts, bad


def projected_speed(velocity: np.ndarray, from_pos: np.ndarray, to_pos: np.ndarray) -> float:
    """Signed speed of `velocity` along the unit vector from_pos -> to_pos."""
    d = np.asarray(to_pos, dtype=float) - np.asarray(from_pos, dtype=float)
    norm = float(np.hypot(d[0], d[1]))
    if norm < 1e-9:
        return 0.0
    return float(np.dot(velocity, d) / norm)


def shaping_rewards(state: EnvState, player: int) -> tuple[float, float]:
    """(vel-to-ball, vel-ball-to-goal) for one player at the given state."""
    vel_to_ball = max(
        0.0, projected_speed(state.player_vel[player], state.player_pos[player], state.ball_pos)
    )
    target = goal_centers(state)[1 - TEAM_OF[player]]
    vel_ball_to_goal = projected_speed(state.ball_vel, state.ball_pos, target)
    return vel_to_ball, vel_ball_to_goal


def step(config: EnvConfig, state: EnvState, actions) -> StepResult:
    """Advance one control step (`substeps` physics substeps) and score it."""
    if state.terminal:
        raise ValueError("cannot step a terminal state; call reset()")
    acts, bad = _clean_actions(actions)
    s = state.copy()
    events: list[dict] = [{"kind": "bad_action", "player": i} for i in bad]
    dt = config.substep_dt
    half_l = s.pitch_length / 2.0
    half_w = s.pitch_width / 2.0
    goal_half = config.goal_width_fraction * s.pitch_width / 2.0
    wall_x = half_l + config.border_width
    wall_y = half_w + config.border_width
    ball_vel_before = s.ball_vel.copy()
    scored_team = None

    for _ in range(config.substeps):
        # actuation and damping (semi-implicit: velocities first)
        heading_vec = np.stack([np.cos(s.player_heading), np.sin(s.player_heading)], axis=1)
        accel = acts[:, :1] * config.drive_accel * heading_vec - config.player_lin_damping * s.player_vel
        s.player_vel += dt * accel
        s.player_angvel += dt * (acts[:, 1] * config.turn_accel - config.player_ang_damping * s.player_angvel)
        s.ball_vel -= dt * config.ball_damping * s.ball_vel
        s.ball_spin -= dt * config.ball_spin_damping * s.ball_spin

        prev_ball = s.ball_pos.copy()
        s.player_pos += dt * s.player_vel
        s.player_heading = _wrap_angle(s.player_heading + dt * s.player_angvel)
        s.ball_pos = s.ball_pos + dt * s.ball_vel

        # goal line crossing, checked before any contact response
        for team, sign in ((0, 1.0), (1, -1.0)):
            line = sign * half_l
            if (prev_ball[0] - line) * sign <= 0.0 < (s.ball_pos[0] - line) * sign:
                frac = (line - prev_ball[0]) / (s.ball_pos[0] - prev_ball[0])
                y_cross = prev_ball[1] + frac * (s.ball_pos[1] - prev_ball[1])
                if abs(y_cross) <= goal_half:
                    scored_team = team
                    break
        if scored_team is not None:
            break

        # player <-> ball impulses; player pairs intentionally pass through
        contact_dist = config.player_radius + config.ball_radius
        for i in range(N_PLAYERS):
            offset = s.ball_pos - s.player_pos[i]
            dist = float(np.hypot(offset[0], offset[1]))
            if dist >= contact_dist:
                continue
            normal = offset / dist if dist > 1e-9 else np.array([1.0, 0.0])
            rel = s.ball_vel - s.player_vel[i]
            approach = float(np.dot(rel, normal))
            if approach < 0.0:
                j = -(1.0 + config.restitution_player_ball) * approach / (
                    1.0 / config.ball_mass + 1.0 / config.player_mass
                )
                s.ball_vel = s.ball_vel + (j / config.ball_mass) * normal
                s.player_vel[i] -= (j / config.player_mass) * normal
                tangent = np.array([-normal[1], normal[0]])
                s.ball_spin += config.spin_transfer * float(np.dot(rel, tangent)) / config.ball_radius
            if acts[i, 2] > 0.0:
                # kick acts as a contact force pair along the contact normal
                dv = acts[i, 2] * config.kick_force * dt
                s.ball_vel = s.ball_vel + (dv / config.ball_mass) * normal
                s.player_vel[i] -= (dv / config.player_mass) * normal
            overlap = contact_dist - dist
            if overlap > 0.0:
                share = config.player_mass / (config.player_mass + config.ball_mass)
                s.ball_pos = s.ball_pos + normal * overlap * share
                s.player_pos[i] -= normal * overlap * (1.0 - share)

        # outer walls: ball bounces, players stop
        for axis, bound in ((0, wall_x - config.ball_radius), (1, wall_y - config.ball_radius)):
            if abs(s.ball_pos[axis]) > bound:
                edge = np.sign(s.ball_pos[axis]) * bound
                s.ball_pos[axis] = edge
                if s.ball_vel[axis] * np.sign(edge) > 0.0:
                    s.ball_vel[axis] *= -config.restitution_wall
        for axis, bound in ((0, wall_x - config.player_radius), (1, wall_y - config.player_radius)):
            outside = np.abs(s.player_pos[:, axis]) > bound
            if np.any(outside):
                signs = np.sign(s.player_pos[outside, axis])
                s.player_pos[outside, axis] = signs * bound
                moving_out = s.player_vel[outside, axis] * signs > 0.0
                vels = s.player_vel[outside, axis]
                vels[moving_out] = 0.0
                s.player_vel[outside, axis] = vels

        speed = float(np.hypot(s.ball_vel[0], s.ball_vel[1]))
        if speed > config.ball_speed_limit:
            s.ball_vel *= config.ball_speed_limit / speed

    # touch: the ball changed velocity near someone within possession range
    dv = float(np.hypot(*(s.ball_vel - ball_vel_before)))
    if dv > config.touch_speed_threshold:
        dists = np.hypot(*(s.player_pos - s.ball_pos).T)
        nearest = int(np.argmin(dists))
        if dists[nearest] <= config.possession_radius:
            events.append(
                {
                    "kind": "touch",
                    "player": nearest,
                    "team": TEAM_OF[nearest],
                    "pos": [float(s.ball_pos[0]), float(s.ball_pos[1])],
                }
            )

    if scored_team is not None:
        s.terminal = True
        s.score = (s.score[0] + (1 if scored_team == 0 else 0), s.score[1] + (1 if scored_team == 1 else 0))
        events.append({"kind": "goal", "team": scored_team})
    else:
        out_of_bounds = abs(s.ball_pos[0]) > half_l or abs(s.ball_pos[1]) > half_w
        if out_of_bounds:
            s, spot = _throw_in(config, s)
            events.append({"kind": "throw_in", "pos": [float(spot[0]), float(spot[1])]})

    s.step_count += 1
    if s.step_count >= config.max_steps:
        s.terminal = True

    rewards = np.zeros((N_PLAYERS, N_CHANNELS))
    for i in range(N_PLAYERS):
        if scored_team is not None:
            if TEAM_OF[i] == scored_team:
                rewards[i, 0] = 1.0
            else:
                rewards[i, 1] = -1.0
        vel_to_ball, vel_ball_to_goal = shaping_rewards(s, i)
        rewards[i, 2] = vel_to_ball
        rewards[i, 3] = vel_ball_to_goal

    return StepResult(s, observe(s), rewards, events, s.terminal)


def world_view(state: EnvState, player: int) -> WorldView:
    goals = goal_centers(state)
    team = TEAM_OF[player]
    half_l = state.pitch_length / 2.0
    half_w = state.pitch_width / 2.0
    corners = np.array(
        [[-half_l, -half_w], [-half_l, half_w], [half_l, -half_w], [half_l, half_w]]
    )
    order = [TEAMMATE_OF[player]] + [j for j in range(N_PLAYERS) if TEAM_OF[j] != team]
    others = [
        (state.player_pos[j].copy(), state.player_vel[j].copy(), float(state.player_heading[j]))
        for j in order
    ]
    return WorldView(
        position=state.player_pos[player].copy(),
        velocity=state.player_vel[player].copy(),
        heading=float(state.player_heading[player]),
        angular_velocity=float(state.player_angvel[player]),
        ball_position=state.ball_pos.copy(),
        ball_velocity=state.ball_vel.copy(),
        ball_spin=float(state.ball_spin),
        own_goal=goals[team].copy(),
        opponent_goal=goals[1 - team].copy(),
        corners=corners,
        others=others,
    )


def observe_view(view: WorldView) -> np.ndarray:
    """Egocentric 40-dim feature vector; invariant to world-frame isometries."""
    c, s_ = np.cos(view.heading), np.sin(view.heading)
    rot = np.array([[c, s_], [-s_, c]])  # world -> body

    def to_body(vec):
        return rot @ np.asarray(vec, dtype=float)

    def rel(point):
        return to_body(np.asarray(point, dtype=float) - view.position)

    attack = view.opponent_goal - view.own_goal
    attack_angle = np.arctan2(attack[1], attack[0])
    rel_heading = view.heading - attack_angle

    parts = [
        to_body(view.velocity),
        [np.sin(rel_heading), np.cos(rel_heading)],
        [view.angular_velocity],
        rel(view.ball_position),
        to_body(view.ball_velocity - view.velocity),
        [view.ball_spin],
        rel(view.own_goal),
        rel(view.opponent_goal),
    ]
    parts.extend(rel(corner) for corner in view.corners)
    for pos, vel, heading in view.others:
        rel_h = heading - view.heading
        parts.append(rel(pos))
        parts.append(to_body(vel))
        parts.append([np.sin(rel_h), np.cos(rel_h)])
    out = np.concatenate([np.atleast_1d(np.asarray(p, dtype=float)) for p in parts])
    assert out.shape == (OBS_DIM,)
    return out


def observe(state: EnvState, player: int | None = None) -> np.ndarray:
    if player is not None:
        return observe_view(world_view(state, player))
    return np.stack([observe_view(world_view(state, i)) for i in range(N_PLAYERS)])

