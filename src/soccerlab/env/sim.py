"""Planar 2v2 soccer with circular bodies and impulse contacts.

Players 0 and 1 form team 0 attacking +x, players 2 and 3 form team 1
attacking -x. Actions per player are (drive, turn, kick): longitudinal
acceleration along the heading, yaw acceleration, and a contact kick
force scaling, clamped to [-1, 1] x [-1, 1] x [0, 1]. Integration is
semi-implicit Euler at substep resolution; player-player contacts are
deliberately not resolved. Stepping is pure: a new state is returned and
all randomness comes from a counter-based generator stored in the state.

A step and an observation are array code over the player axis. Only the
player-ball contacts run player by player, in index order, because each
contact sees the ball as the previous one left it; that loop runs only in
the substeps where some player is within contact range.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import EnvConfig

N_PLAYERS = 4
TEAM_OF = (0, 0, 1, 1)
TEAMMATE_OF = (1, 0, 3, 2)
OBS_DIM = 40
ACTION_DIM = 3
CHANNEL_NAMES = ("goal", "concede", "vel_to_ball", "vel_ball_to_goal")
N_CHANNELS = len(CHANNEL_NAMES)
# The players each player observes, teammate first, then the opponents.
OTHERS_OF = tuple(
    (TEAMMATE_OF[i],) + tuple(j for j in range(N_PLAYERS) if TEAM_OF[j] != TEAM_OF[i]) for i in range(N_PLAYERS)
)
_TEAM = np.array(TEAM_OF)
_OTHERS = np.array(OTHERS_OF)

# Observation layout, in the observer's body frame (x ahead, y to its left):
#   0:2 own velocity; 2:4 sin and cos of the heading relative to the attack
#   direction; 4 angular velocity; 5:7 ball position; 7:9 ball velocity
#   relative to the observer; 9 ball spin; 10:12 own goal; 12:14 opponent
#   goal; 14:22 the four corners; then one 6-column block per other player
#   (OTHERS_OF order): position, velocity, sin and cos of relative heading.
BALL_COLUMNS = slice(5, 7)
NONPLAYER_DIM = 22
PLAYER_BLOCK_DIM = 6


@dataclass
class EnvState:
    pitch_length: float
    pitch_width: float
    player_pos: np.ndarray      # (4, 2)
    player_vel: np.ndarray      # (4, 2)
    player_heading: np.ndarray  # (4,)
    player_angvel: np.ndarray   # (4,)
    ball_pos: np.ndarray        # (2,)
    ball_vel: np.ndarray        # (2,)
    ball_spin: float
    step_count: int
    terminal: bool
    score: tuple[int, int]
    rng_seed: int
    rng_calls: int

    def copy(self) -> "EnvState":
        return replace(
            self,
            player_pos=self.player_pos.copy(),
            player_vel=self.player_vel.copy(),
            player_heading=self.player_heading.copy(),
            player_angvel=self.player_angvel.copy(),
            ball_pos=self.ball_pos.copy(),
            ball_vel=self.ball_vel.copy(),
        )


@dataclass
class StepResult:
    state: EnvState
    observations: np.ndarray  # (4, 40)
    rewards: np.ndarray       # (4, 4) per player per channel
    events: list[dict]
    terminal: bool


def _state_rng(state: EnvState) -> tuple[np.random.Generator, EnvState]:
    """Counter-based generator draw; advances the call counter in a copy."""
    rng = np.random.default_rng([state.rng_seed, state.rng_calls])
    return rng, replace(state, rng_calls=state.rng_calls + 1)


def _wrap_angle(a):
    return np.arctan2(np.sin(a), np.cos(a))


def reset(config: EnvConfig, seed: int) -> EnvState:
    """Sample pitch scale and uniform player/ball placements; zero velocities."""
    rng = np.random.default_rng([int(seed), 0])
    scale = rng.uniform(config.scale_min, config.scale_max)
    length = config.pitch_length * scale
    width = config.pitch_width * scale
    half = np.array([length / 2.0, width / 2.0])
    player_pos = rng.uniform(-half, half, size=(N_PLAYERS, 2))
    heading = rng.uniform(-np.pi, np.pi, size=N_PLAYERS)
    ball_pos = rng.uniform(-half, half)
    return EnvState(
        pitch_length=length,
        pitch_width=width,
        player_pos=player_pos,
        player_vel=np.zeros((N_PLAYERS, 2)),
        player_heading=heading,
        player_angvel=np.zeros(N_PLAYERS),
        ball_pos=ball_pos,
        ball_vel=np.zeros(2),
        ball_spin=0.0,
        step_count=0,
        terminal=False,
        score=(0, 0),
        rng_seed=int(seed),
        rng_calls=1,
    )


def goal_centers(state: EnvState) -> np.ndarray:
    """Row t is the goal defended by team t: team 0 defends x < 0."""
    gx = state.pitch_length / 2.0
    return np.array([[-gx, 0.0], [gx, 0.0]])


_ACTION_LOW = np.array([-1.0, -1.0, 0.0])
_ACTION_HIGH = np.array([1.0, 1.0, 1.0])


def _clean_actions(actions) -> tuple[np.ndarray, list[int]]:
    acts = np.asarray(actions, dtype=np.float64)
    if acts.shape != (N_PLAYERS, ACTION_DIM):
        raise ValueError(f"actions must have shape {(N_PLAYERS, ACTION_DIM)}, got {acts.shape}")
    finite = np.isfinite(acts).all(axis=1)
    acts = np.where(finite[:, None], acts, 0.0)
    return np.clip(acts, _ACTION_LOW, _ACTION_HIGH), np.flatnonzero(~finite).tolist()


def _projected_speeds(velocity: np.ndarray, from_pos: np.ndarray, to_pos: np.ndarray) -> np.ndarray:
    """Signed speed of each `velocity` row along the unit vector from_pos ->
    to_pos of its row (rows broadcast); 0 where the two points (nearly)
    coincide."""
    d = to_pos - from_pos
    norm = np.hypot(d[:, 0], d[:, 1])
    along = (velocity[:, None, :] @ d[:, :, None])[:, 0, 0]
    close = norm < 1e-9
    return np.where(close, 0.0, along / np.where(close, 1.0, norm))


def shaping_rewards(state: EnvState) -> np.ndarray:
    """[N_PLAYERS, 2]: each player's (vel-to-ball, vel-ball-to-goal) at the
    given state. vel-to-ball is clipped below at 0."""
    to_ball = _projected_speeds(state.player_vel, state.player_pos, state.ball_pos[None, :])
    targets = goal_centers(state)[1 - _TEAM]
    to_goal = _projected_speeds(state.ball_vel[None, :], state.ball_pos[None, :], targets)
    return np.stack([np.where(to_ball > 0.0, to_ball, 0.0), to_goal], axis=1)


def _resolve_contacts(config: EnvConfig, s: EnvState, acts: np.ndarray, dt: float) -> None:
    """Player <-> ball impulses, kicks and overlap pushes, in player order:
    each contact sees the ball as the previous ones left it."""
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


def _bounce(pos: float, vel: float, bound: float, restitution: float) -> tuple[float, float]:
    """One ball coordinate and its velocity after the walls at +-bound: a
    ball past a wall is put back on it and, if still moving out, reflected."""
    if pos > bound:
        return bound, vel * -restitution if vel > 0.0 else vel
    if pos < -bound:
        return -bound, vel * -restitution if vel < 0.0 else vel
    return pos, vel


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
    ball_bounds = (wall_x - config.ball_radius, wall_y - config.ball_radius)
    player_bounds = np.array([wall_x - config.player_radius, wall_y - config.player_radius])
    contact_dist = config.player_radius + config.ball_radius
    drive = acts[:, :1] * config.drive_accel
    turn = acts[:, 1] * config.turn_accel
    ball_decay = dt * config.ball_damping
    heading_vec = np.empty((N_PLAYERS, 2))
    ball_vel_before = s.ball_vel.copy()
    # The ball's coordinates live in Python floats within the substeps: the
    # same IEEE operations as on its arrays, without numpy's per-call cost.
    bx, by = float(s.ball_pos[0]), float(s.ball_pos[1])
    vx, vy = float(s.ball_vel[0]), float(s.ball_vel[1])
    scored_team = None

    for _ in range(config.substeps):
        # actuation and damping (semi-implicit: velocities first)
        np.cos(s.player_heading, out=heading_vec[:, 0])
        np.sin(s.player_heading, out=heading_vec[:, 1])
        s.player_vel += dt * (drive * heading_vec - config.player_lin_damping * s.player_vel)
        s.player_angvel += dt * (turn - config.player_ang_damping * s.player_angvel)
        vx -= ball_decay * vx
        vy -= ball_decay * vy
        s.ball_spin -= dt * config.ball_spin_damping * s.ball_spin

        prev_x, prev_y = bx, by
        s.player_pos += dt * s.player_vel
        s.player_heading = _wrap_angle(s.player_heading + dt * s.player_angvel)
        bx += dt * vx
        by += dt * vy

        # goal line crossing, checked before any contact response
        for team, sign in ((0, 1.0), (1, -1.0)):
            line = sign * half_l
            if (prev_x - line) * sign <= 0.0 < (bx - line) * sign:
                frac = (line - prev_x) / (bx - prev_x)
                y_cross = prev_y + frac * (by - prev_y)
                if abs(y_cross) <= goal_half:
                    scored_team = team
                    break
        if scored_team is not None:
            break

        # player <-> ball impulses; player pairs intentionally pass through.
        # Only a contact moves the ball here, so if no player is in range
        # now, none comes into range before the walls.
        if (np.hypot(bx - s.player_pos[:, 0], by - s.player_pos[:, 1]) < contact_dist).any():
            s.ball_pos, s.ball_vel = np.array([bx, by]), np.array([vx, vy])
            _resolve_contacts(config, s, acts, dt)
            (bx, by), (vx, vy) = s.ball_pos.tolist(), s.ball_vel.tolist()

        # outer walls: ball bounces, players stop
        bx, vx = _bounce(bx, vx, ball_bounds[0], config.restitution_wall)
        by, vy = _bounce(by, vy, ball_bounds[1], config.restitution_wall)
        outside = np.abs(s.player_pos) > player_bounds
        if outside.any():
            for axis in (0, 1):
                out = outside[:, axis]
                signs = np.sign(s.player_pos[out, axis])
                s.player_pos[out, axis] = signs * player_bounds[axis]
                moving_out = s.player_vel[out, axis] * signs > 0.0
                vels = s.player_vel[out, axis]
                vels[moving_out] = 0.0
                s.player_vel[out, axis] = vels

        speed = float(np.hypot(vx, vy))
        if speed > config.ball_speed_limit:
            scale = config.ball_speed_limit / speed
            vx *= scale
            vy *= scale

    s.ball_pos, s.ball_vel = np.array([bx, by]), np.array([vx, vy])

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
    if scored_team is not None:
        scorers = _TEAM == scored_team
        rewards[scorers, 0] = 1.0
        rewards[~scorers, 1] = -1.0
    rewards[:, 2:] = shaping_rewards(s)

    return StepResult(s, observe(s), rewards, events, s.terminal)


def _throw_in(config: EnvConfig, s: EnvState) -> tuple[EnvState, np.ndarray]:
    half = np.array([s.pitch_length / 2.0, s.pitch_width / 2.0])
    crossing = np.clip(s.ball_pos, -half, half)
    rng, s = _state_rng(s)
    distance = rng.uniform(config.throw_in_min, config.throw_in_max)
    direction = -crossing / float(np.hypot(*crossing))
    s.ball_pos = crossing + distance * direction
    s.ball_vel = np.zeros(2)
    s.ball_spin = 0.0
    return s, crossing


# ---- observations ------------------------------------------------------


@dataclass
class WorldView:
    """Everything one player can sense, as world-frame quantities.

    Keeping goals and corners as explicit points makes the egocentric
    encoding testable under global isometries: transform every field and
    the resulting observation must not change.
    """

    position: np.ndarray
    velocity: np.ndarray
    heading: float
    angular_velocity: float
    ball_position: np.ndarray
    ball_velocity: np.ndarray
    ball_spin: float
    own_goal: np.ndarray
    opponent_goal: np.ndarray
    corners: np.ndarray                       # (4, 2)
    others: list[tuple[np.ndarray, np.ndarray, float]]  # (pos, vel, heading); teammate first


def _corners(state: EnvState) -> np.ndarray:
    half_l = state.pitch_length / 2.0
    half_w = state.pitch_width / 2.0
    return np.array([[-half_l, -half_w], [-half_l, half_w], [half_l, -half_w], [half_l, half_w]])


def world_view(state: EnvState, player: int) -> WorldView:
    goals = goal_centers(state)
    team = TEAM_OF[player]
    others = [
        (state.player_pos[j].copy(), state.player_vel[j].copy(), float(state.player_heading[j]))
        for j in OTHERS_OF[player]
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
        corners=_corners(state),
        others=others,
    )


def _to_body(heading: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """[B, K, 2] world-frame vectors in the body frames of B headings."""
    c, s = np.cos(heading), np.sin(heading)
    rot = np.stack([np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)], axis=-2)  # world -> body
    return (rot[:, None] @ vectors[..., None])[..., 0]


def _egocentric(
    position,
    velocity,
    heading,
    angular_velocity,
    ball_position,
    ball_velocity,
    ball_spin,
    own_goal,
    opponent_goal,
    corners,
    others_position,
    others_velocity,
    others_heading,
) -> np.ndarray:
    """[B, OBS_DIM] observations from world-frame fields with a leading batch
    axis: points and vectors [B, 2], corners [B, 4, 2], the other players'
    positions and velocities [B, 3, 2] and headings [B, 3], scalars [B]."""
    batch = len(position)
    points = np.concatenate(
        [ball_position[:, None], own_goal[:, None], opponent_goal[:, None], corners, others_position], axis=1
    )
    vectors = np.concatenate([velocity[:, None], (ball_velocity - velocity)[:, None], others_velocity], axis=1)
    # body rows: 0 ball, 1 own goal, 2 opponent goal, 3:7 corners, 7:10 the
    # other players (relative to the observer); 10 own velocity, 11 ball
    # velocity relative to it, 12:15 the other players' velocities.
    body = _to_body(heading, np.concatenate([points - position[:, None], vectors], axis=1))
    attack = opponent_goal - own_goal
    angles = np.concatenate(
        [(heading - np.arctan2(attack[:, 1], attack[:, 0]))[:, None], others_heading - heading[:, None]], axis=1
    )
    sin, cos = np.sin(angles), np.cos(angles)
    out = np.empty((batch, OBS_DIM))
    out[:, 0:2] = body[:, 10]
    out[:, 2] = sin[:, 0]
    out[:, 3] = cos[:, 0]
    out[:, 4] = angular_velocity
    out[:, BALL_COLUMNS] = body[:, 0]
    out[:, 7:9] = body[:, 11]
    out[:, 9] = ball_spin
    out[:, 10:NONPLAYER_DIM] = body[:, 1:7].reshape(batch, 12)
    others = [body[:, 7:10], body[:, 12:15], sin[:, 1:, None], cos[:, 1:, None]]
    out[:, NONPLAYER_DIM:] = np.concatenate(others, axis=2).reshape(batch, OBS_DIM - NONPLAYER_DIM)
    return out


def observe_view(view: WorldView) -> np.ndarray:
    """Egocentric 40-dim feature vector; invariant to world-frame isometries.
    `observe`'s kernel at a batch of one."""
    others_position, others_velocity, others_heading = zip(*view.others)

    def one(value):
        return np.asarray(value, dtype=float)[None]

    return _egocentric(
        one(view.position),
        one(view.velocity),
        one(view.heading),
        one(view.angular_velocity),
        one(view.ball_position),
        one(view.ball_velocity),
        one(view.ball_spin),
        one(view.own_goal),
        one(view.opponent_goal),
        one(view.corners),
        one(others_position),
        one(others_velocity),
        one(others_heading),
    )[0]


def transform_view(view: WorldView, angle: float, translation) -> WorldView:
    """Apply a global rotation + translation to every world-frame field."""
    c, s_ = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s_], [s_, c]])
    shift = np.asarray(translation, dtype=float)

    def pt(p):
        return rot @ np.asarray(p, dtype=float) + shift

    def vec(v):
        return rot @ np.asarray(v, dtype=float)

    return WorldView(
        position=pt(view.position),
        velocity=vec(view.velocity),
        heading=float(_wrap_angle(view.heading + angle)),
        angular_velocity=view.angular_velocity,
        ball_position=pt(view.ball_position),
        ball_velocity=vec(view.ball_velocity),
        ball_spin=view.ball_spin,
        own_goal=pt(view.own_goal),
        opponent_goal=pt(view.opponent_goal),
        corners=np.stack([pt(p) for p in view.corners]),
        others=[(pt(p), vec(v), float(_wrap_angle(h + angle))) for p, v, h in view.others],
    )


def observe(state: EnvState, player: int | None = None) -> np.ndarray:
    """Every player's observation, [N_PLAYERS, OBS_DIM], or one `player`'s
    [OBS_DIM], in one pass of the kernel over the player axis."""
    if player is None:
        players = slice(None)
    elif 0 <= player < N_PLAYERS:
        players = slice(player, player + 1)
    else:
        raise ValueError(f"player index must lie in [0, {N_PLAYERS}), got {player}")
    team = _TEAM[players]
    others = _OTHERS[players]
    batch = len(team)
    goals = goal_centers(state)
    obs = _egocentric(
        state.player_pos[players],
        state.player_vel[players],
        state.player_heading[players],
        state.player_angvel[players],
        state.ball_pos[None, :].repeat(batch, axis=0),
        state.ball_vel[None, :].repeat(batch, axis=0),
        state.ball_spin,
        goals[team],
        goals[1 - team],
        _corners(state)[None].repeat(batch, axis=0),
        state.player_pos[others],
        state.player_vel[others],
        state.player_heading[others],
    )
    return obs if player is None else obs[0]


def displaced_observations(
    state: EnvState, player: int, observation: np.ndarray, entity: int | None, positions: np.ndarray
) -> np.ndarray:
    """[A, OBS_DIM]: `observation` (`player`'s at `state`) with one entity
    moved to each of the A rows of `positions`. `entity` is another player's
    index, or None for the ball; only that entity's position columns change,
    to what `observe` gives for the moved state."""
    if entity is None:
        start = BALL_COLUMNS.start
    elif entity in OTHERS_OF[player]:
        start = NONPLAYER_DIM + PLAYER_BLOCK_DIM * OTHERS_OF[player].index(entity)
    else:
        raise ValueError(f"entity {entity} is not one of player {player}'s other players")
    rel = np.asarray(positions, dtype=float) - state.player_pos[player]
    out = np.repeat(observation[None, :], len(rel), axis=0)
    out[:, start : start + 2] = _to_body(state.player_heading[player : player + 1], rel[None])[0]
    return out


# ---- symmetries and scripted layouts ------------------------------------


def mirror_state(state: EnvState, axis: str = "x") -> EnvState:
    """Reflect across the halfway line (axis='x') or the long axis (axis='y')."""
    s = state.copy()
    if axis == "x":
        s.player_pos[:, 0] *= -1.0
        s.player_vel[:, 0] *= -1.0
        s.ball_pos = s.ball_pos * np.array([-1.0, 1.0])
        s.ball_vel = s.ball_vel * np.array([-1.0, 1.0])
        s.player_heading = _wrap_angle(np.pi - s.player_heading)
    elif axis == "y":
        s.player_pos[:, 1] *= -1.0
        s.player_vel[:, 1] *= -1.0
        s.ball_pos = s.ball_pos * np.array([1.0, -1.0])
        s.ball_vel = s.ball_vel * np.array([1.0, -1.0])
        s.player_heading = _wrap_angle(-s.player_heading)
    else:
        raise ValueError("axis must be 'x' or 'y'")
    s.player_angvel = -s.player_angvel
    s.ball_spin = -s.ball_spin
    return s


def probe_reset(config: EnvConfig, side: str, seed: int = 0) -> EnvState:
    """Deterministic pass/shoot layout: blue0 with the ball near its own half
    centre, opponents ahead at midfield, blue1 wide on the requested side."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    length, width = config.pitch_length, config.pitch_width
    offset = config.player_radius + config.ball_radius + 0.1
    player_pos = np.array(
        [
            [-length / 4.0, 0.0],
            [-length / 6.0, width / 3.0],
            [0.0, width / 15.0],
            [0.0, -width / 15.0],
        ]
    )
    state = EnvState(
        pitch_length=length,
        pitch_width=width,
        player_pos=player_pos,
        player_vel=np.zeros((N_PLAYERS, 2)),
        player_heading=np.array([0.0, 0.0, np.pi, np.pi]),
        player_angvel=np.zeros(N_PLAYERS),
        ball_pos=np.array([-length / 4.0 + offset, 0.0]),
        ball_vel=np.zeros(2),
        ball_spin=0.0,
        step_count=0,
        terminal=False,
        score=(0, 0),
        rng_seed=int(seed),
        rng_calls=0,
    )
    if side == "right":
        state = mirror_state(state, axis="y")
    return state
