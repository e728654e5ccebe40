"""Physics, rules, observation and trace checks for the 2v2 soccer environment."""
import dataclasses

import numpy as np
import pytest
from scipy import stats

from soccerlab import env
from soccerlab.env import EnvConfig
from soccerlab.env.sim import _wrap_angle


def make_state(
    config: EnvConfig,
    player_pos,
    ball_pos,
    player_vel=None,
    ball_vel=(0.0, 0.0),
    heading=None,
    seed=0,
):
    return env.EnvState(
        pitch_length=config.pitch_length,
        pitch_width=config.pitch_width,
        player_pos=np.asarray(player_pos, dtype=float),
        player_vel=np.zeros((4, 2)) if player_vel is None else np.asarray(player_vel, dtype=float),
        player_heading=np.zeros(4) if heading is None else np.asarray(heading, dtype=float),
        player_angvel=np.zeros(4),
        ball_pos=np.asarray(ball_pos, dtype=float),
        ball_vel=np.asarray(ball_vel, dtype=float),
        ball_spin=0.0,
        step_count=0,
        terminal=False,
        score=(0, 0),
        rng_seed=seed,
        rng_calls=1,
    )


FAR_CORNERS = [[-9.0, -6.0], [-9.0, 6.0], [9.0, -6.0], [9.0, 6.0]]


# ---- reset ----------------------------------------------------------------


def test_reset_is_deterministic_bitwise():
    cfg = EnvConfig()
    a = env.reset(cfg, seed=123)
    b = env.reset(cfg, seed=123)
    assert a.player_pos.tobytes() == b.player_pos.tobytes()
    assert a.ball_pos.tobytes() == b.ball_pos.tobytes()
    assert a.pitch_length == b.pitch_length


def test_reset_scale_range_and_aspect():
    cfg = EnvConfig()
    lengths = []
    for seed in range(300):
        s = env.reset(cfg, seed)
        lengths.append(s.pitch_length)
        assert 20.0 - 1e-9 <= s.pitch_length <= 28.0 + 1e-9
        assert abs(s.pitch_length / s.pitch_width - 4.0 / 3.0) < 1e-9
    assert max(lengths) > 26.0 and min(lengths) < 22.0


def test_reset_positions_uniform_chi_square():
    cfg = EnvConfig()
    xs, ys = [], []
    for seed in range(10_000):
        s = env.reset(cfg, seed)
        xs.extend(s.player_pos[:, 0] / s.pitch_length + 0.5)
        ys.extend(s.player_pos[:, 1] / s.pitch_width + 0.5)
    counts, _, _ = np.histogram2d(xs, ys, bins=4, range=[[0, 1], [0, 1]])
    _, p = stats.chisquare(counts.reshape(-1))
    assert p > 0.01


def test_reset_velocities_zero_and_inside_pitch():
    s = env.reset(EnvConfig(), seed=5)
    assert np.all(s.player_vel == 0.0) and np.all(s.ball_vel == 0.0)
    assert np.all(np.abs(s.player_pos[:, 0]) <= s.pitch_length / 2)
    assert np.all(np.abs(s.player_pos[:, 1]) <= s.pitch_width / 2)


# ---- stepping basics -------------------------------------------------------


def test_step_zero_actions_damps_velocity_exactly():
    cfg = EnvConfig().fixed_pitch()
    vel = np.zeros((4, 2))
    vel[0] = [2.0, -1.0]
    state = make_state(cfg, FAR_CORNERS, [0.0, 0.0], player_vel=vel)
    out = env.step(cfg, state, np.zeros((4, 3)))
    factor = (1.0 - cfg.substep_dt * cfg.player_lin_damping) ** cfg.substeps
    np.testing.assert_allclose(out.state.player_vel[0], np.array([2.0, -1.0]) * factor, rtol=1e-12)


def test_step_is_pure_and_deterministic():
    cfg = EnvConfig()
    state = env.reset(cfg, seed=9)
    snapshot = state.copy()
    rng = np.random.default_rng(1)
    acts = rng.uniform(-1, 1, size=(4, 3))
    out1 = env.step(cfg, state, acts)
    np.testing.assert_array_equal(state.player_pos, snapshot.player_pos)
    np.testing.assert_array_equal(state.ball_vel, snapshot.ball_vel)
    assert state.step_count == snapshot.step_count
    out2 = env.step(cfg, state, acts)
    assert out1.state.player_pos.tobytes() == out2.state.player_pos.tobytes()
    assert out1.state.ball_pos.tobytes() == out2.state.ball_pos.tobytes()


def test_trajectory_reproducible_bitwise():
    cfg = EnvConfig()

    def run():
        state = env.reset(cfg, seed=77)
        rng = np.random.default_rng(0)
        chunks = []
        for _ in range(40):
            out = env.step(cfg, state, rng.uniform(-1, 1, size=(4, 3)))
            state = out.state
            chunks.append(state.ball_pos.tobytes() + state.player_pos.tobytes())
            if out.terminal:
                break
        return b"".join(chunks)

    assert run() == run()


def test_step_observes_through_observe_once(monkeypatch):
    # Profilers attribute the observation work of a step by wrapping
    # `sim.observe`; a step that went around it would hide that work.
    from soccerlab.env import sim

    calls = []
    real_observe = sim.observe

    def counted(state, player=None):
        calls.append(player)
        return real_observe(state, player)

    monkeypatch.setattr(sim, "observe", counted)
    cfg = EnvConfig()
    state = env.reset(cfg, seed=5)
    for n in range(1, 6):
        result = env.step(cfg, state, np.zeros((4, 3)))
        assert calls == [None] * n
        np.testing.assert_array_equal(result.observations, real_observe(result.state))
        state = result.state


def test_step_rejects_terminal_state_and_bad_shapes():
    cfg = EnvConfig()
    state = env.reset(cfg, seed=0)
    with pytest.raises(ValueError):
        env.step(cfg, state, np.zeros((3, 3)))
    done = dataclasses.replace(state, terminal=True)
    with pytest.raises(ValueError):
        env.step(cfg, done, np.zeros((4, 3)))


def test_nonfinite_action_zeroed_and_flagged():
    cfg = EnvConfig().fixed_pitch()
    state = make_state(cfg, FAR_CORNERS, [0.0, 0.0])
    acts = np.zeros((4, 3))
    acts[2, 0] = np.nan
    out = env.step(cfg, state, acts)
    assert {"kind": "bad_action", "player": 2} in out.events
    assert np.all(out.state.player_vel[2] == 0.0)


def test_drive_moves_player_along_heading():
    cfg = EnvConfig().fixed_pitch()
    state = make_state(cfg, FAR_CORNERS, [0.0, 0.0], heading=[0.0, np.pi / 2, 0.0, 0.0])
    acts = np.zeros((4, 3))
    acts[0, 0] = 1.0
    acts[1, 0] = 1.0
    out = env.step(cfg, state, acts)
    moved0 = out.state.player_pos[0] - state.player_pos[0]
    moved1 = out.state.player_pos[1] - state.player_pos[1]
    assert moved0[0] > 0 and abs(moved0[1]) < 1e-12
    assert moved1[1] > 0 and abs(moved1[0]) < 1e-12


def test_episode_cap_gives_terminal_draw():
    cfg = dataclasses.replace(EnvConfig().fixed_pitch(), episode_seconds=0.25)
    assert cfg.max_steps == 5
    state = make_state(cfg, FAR_CORNERS, [0.0, 0.0])
    for i in range(5):
        out = env.step(cfg, state, np.zeros((4, 3)))
        state = out.state
    assert state.terminal and state.score == (0, 0)


# ---- contacts --------------------------------------------------------------


def contactless_config():
    return dataclasses.replace(
        EnvConfig().fixed_pitch(), player_lin_damping=0.0, ball_damping=0.0
    )


def test_collision_conserves_momentum_and_restitution():
    cfg = contactless_config()
    vel = np.zeros((4, 2))
    vel[0] = [2.0, 0.0]
    state = make_state(
        cfg,
        [[-1.0, 0.0], [-9.0, 6.0], [9.0, -6.0], [9.0, 6.0]],
        [-1.0 + cfg.player_radius + cfg.ball_radius + 0.02, 0.0],
        player_vel=vel,
    )
    before = cfg.player_mass * vel[0] + cfg.ball_mass * state.ball_vel
    out = env.step(cfg, state, np.zeros((4, 3)))
    after = cfg.player_mass * out.state.player_vel[0] + cfg.ball_mass * out.state.ball_vel
    np.testing.assert_allclose(after, before, atol=1e-9)
    # analytic post-collision velocities for a 1-d two-body bounce
    e = cfg.restitution_player_ball
    m1, m2 = cfg.player_mass, cfg.ball_mass
    u1 = 2.0
    v1 = (m1 * u1 + m2 * 0.0 - m2 * e * (u1 - 0.0)) / (m1 + m2)
    v2 = (m1 * u1 + m2 * 0.0 + m1 * e * (u1 - 0.0)) / (m1 + m2)
    np.testing.assert_allclose(out.state.player_vel[0, 0], v1, atol=1e-9)
    np.testing.assert_allclose(out.state.ball_vel[0], v2, atol=1e-9)


def test_players_pass_through_each_other():
    cfg = contactless_config()
    vel = np.zeros((4, 2))
    vel[0] = [3.0, 0.0]
    vel[1] = [-3.0, 0.0]
    state = make_state(
        cfg,
        [[-0.3, 0.0], [0.3, 0.0], [9.0, -6.0], [9.0, 6.0]],
        [5.0, 5.0],
        player_vel=vel,
    )
    out = env.step(cfg, state, np.zeros((4, 3)))
    np.testing.assert_allclose(out.state.player_vel[0], [3.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(out.state.player_vel[1], [-3.0, 0.0], atol=1e-12)


def test_kick_accelerates_ball_beyond_plain_collision():
    cfg = EnvConfig().fixed_pitch()

    def ball_speed_after(kick: float) -> float:
        vel = np.zeros((4, 2))
        vel[0] = [1.0, 0.0]
        state = make_state(
            cfg,
            [[-1.0, 0.0], [-9.0, 6.0], [9.0, -6.0], [9.0, 6.0]],
            [-1.0 + cfg.player_radius + cfg.ball_radius + 0.01, 0.0],
            player_vel=vel,
        )
        acts = np.zeros((4, 3))
        acts[0] = [1.0, 0.0, kick]
        out = env.step(cfg, state, acts)
        return float(np.hypot(*out.state.ball_vel))

    assert ball_speed_after(1.0) > ball_speed_after(0.0) + 1.0


def test_touch_event_requires_possession_range():
    cfg = EnvConfig().fixed_pitch()
    vel = np.zeros((4, 2))
    vel[0] = [2.0, 0.0]
    state = make_state(
        cfg,
        [[-1.0, 0.0], [-9.0, 6.0], [9.0, -6.0], [9.0, 6.0]],
        [-1.0 + cfg.player_radius + cfg.ball_radius + 0.02, 0.0],
        player_vel=vel,
    )
    out = env.step(cfg, state, np.zeros((4, 3)))
    touches = [e for e in out.events if e["kind"] == "touch"]
    assert len(touches) == 1 and touches[0]["player"] == 0 and touches[0]["team"] == 0


def test_ball_bounces_off_border_wall():
    cfg = dataclasses.replace(contactless_config(), border_width=0.3)
    half_l = cfg.pitch_length / 2
    state = make_state(cfg, FAR_CORNERS, [half_l + 0.1, 5.0], ball_vel=[20.0, 0.0])
    out = env.step(cfg, state, np.zeros((4, 3)))
    assert out.state.ball_vel[0] == pytest.approx(-cfg.restitution_wall * 20.0, rel=1e-9)
    assert not any(e["kind"] == "goal" for e in out.events)


def test_players_stay_within_border_walls():
    cfg = EnvConfig().fixed_pitch()
    vel = np.zeros((4, 2))
    vel[0] = [50.0, 0.0]
    state = make_state(cfg, [[11.5, 0.0], [-9.0, 6.0], [9.0, -6.0], [-9.0, -6.0]], [0.0, 5.0], player_vel=vel)
    acts = np.zeros((4, 3))
    acts[0, 0] = 1.0
    for _ in range(20):
        out = env.step(cfg, state, acts)
        state = out.state
    bound = cfg.pitch_length / 2 + cfg.border_width - cfg.player_radius
    assert abs(state.player_pos[0, 0]) <= bound + 1e-9


# ---- goals and throw-ins ----------------------------------------------------


def scripted_shot_state(cfg, y: float, vx: float = 8.0):
    half_l = cfg.pitch_length / 2
    return make_state(cfg, FAR_CORNERS, [half_l - 0.2, y], ball_vel=[vx, 0.0])


def test_goal_in_mouth_terminates_and_scores():
    cfg = EnvConfig().fixed_pitch()
    out = env.step(cfg, scripted_shot_state(cfg, y=0.0), np.zeros((4, 3)))
    assert out.terminal
    assert out.state.score == (1, 0)
    assert {"kind": "goal", "team": 0} in out.events
    np.testing.assert_array_equal(out.rewards[:2, 0], [1.0, 1.0])   # scorers: goal channel
    np.testing.assert_array_equal(out.rewards[2:, 1], [-1.0, -1.0])  # conceders: concede channel
    np.testing.assert_array_equal(out.rewards[:2, 1], [0.0, 0.0])
    np.testing.assert_array_equal(out.rewards[2:, 0], [0.0, 0.0])


def test_shot_outside_mouth_is_throw_in_not_goal():
    cfg = EnvConfig().fixed_pitch()
    goal_half = cfg.goal_width_fraction * cfg.pitch_width / 2
    out = env.step(cfg, scripted_shot_state(cfg, y=goal_half + 1.0), np.zeros((4, 3)))
    assert not out.terminal
    assert any(e["kind"] == "throw_in" for e in out.events)
    assert np.all(out.rewards[:, :2] == 0.0)
    half = np.array([cfg.pitch_length / 2, cfg.pitch_width / 2])
    assert np.all(np.abs(out.state.ball_pos) < half)
    np.testing.assert_array_equal(out.state.ball_vel, np.zeros(2))


def test_goal_on_negative_side_credits_team_one():
    cfg = EnvConfig().fixed_pitch()
    half_l = cfg.pitch_length / 2
    state = make_state(cfg, FAR_CORNERS, [-half_l + 0.2, 0.0], ball_vel=[-8.0, 0.0])
    out = env.step(cfg, state, np.zeros((4, 3)))
    assert out.terminal and out.state.score == (0, 1)
    np.testing.assert_array_equal(out.rewards[2:, 0], [1.0, 1.0])
    np.testing.assert_array_equal(out.rewards[:2, 1], [-1.0, -1.0])


def test_throw_in_distance_distribution():
    cfg = EnvConfig().fixed_pitch()
    half_w = cfg.pitch_width / 2
    distances = []
    for seed in range(400):
        state = make_state(cfg, FAR_CORNERS, [2.0, half_w + 0.4], seed=seed)
        out = env.step(cfg, state, np.zeros((4, 3)))
        (throw_in,) = [e for e in out.events if e["kind"] == "throw_in"]
        crossing = np.array(throw_in["pos"])
        np.testing.assert_allclose(crossing, [2.0, half_w], atol=1e-12)
        d = float(np.hypot(*(out.state.ball_pos - crossing)))
        distances.append(d)
        assert abs(out.state.ball_pos[0]) < cfg.pitch_length / 2
        assert abs(out.state.ball_pos[1]) < half_w
        assert np.all(out.state.ball_vel == 0.0)
    distances = np.asarray(distances)
    assert distances.min() >= cfg.throw_in_min and distances.max() <= cfg.throw_in_max
    assert 0.9 < distances.mean() < 1.1  # uniform [0.5, 1.5] has mean 1.0


def test_throw_in_noop_when_ball_in_bounds():
    cfg = EnvConfig().fixed_pitch()
    state = make_state(cfg, FAR_CORNERS, [1.0, 1.0])
    out = env.step(cfg, state, np.zeros((4, 3)))
    assert not any(e["kind"] == "throw_in" for e in out.events)
    np.testing.assert_array_equal(out.state.ball_pos, state.ball_pos)


# ---- shaping rewards ---------------------------------------------------------


def test_vel_to_ball_is_clipped_projection():
    cfg = EnvConfig().fixed_pitch()
    vel = np.zeros((4, 2))
    vel[0] = [3.0, 4.0]  # ball is due +x: projection = 3
    vel[1] = [-2.0, 0.0]  # moving away: clipped to 0
    state = make_state(cfg, [[0.0, 0.0], [2.0, 0.0], [9.0, -6.0], [9.0, 6.0]], [6.0, 0.0], player_vel=vel)
    assert env.shaping_rewards(state)[0, 0] == pytest.approx(3.0)
    assert env.shaping_rewards(state)[1, 0] == 0.0


def test_vel_ball_to_goal_signed_projection():
    cfg = EnvConfig().fixed_pitch()
    state = make_state(cfg, FAR_CORNERS, [0.0, 0.0], ball_vel=[5.0, 0.0])
    # team 0 attacks +x so the ball races toward its target goal
    assert env.shaping_rewards(state)[0, 1] == pytest.approx(5.0)
    assert env.shaping_rewards(state)[2, 1] == pytest.approx(-5.0)


def test_stationary_world_has_zero_shaping():
    cfg = EnvConfig().fixed_pitch()
    state = make_state(cfg, FAR_CORNERS, [1.0, 1.0])
    np.testing.assert_array_equal(env.shaping_rewards(state), np.zeros((4, 2)))


# ---- mirror symmetry ----------------------------------------------------------


def mirror_actions(actions: np.ndarray) -> np.ndarray:
    """Action counterpart of env.mirror_state: turn flips, drive and kick stay."""
    acts = np.asarray(actions, dtype=float).copy()
    acts[:, 1] *= -1.0
    return acts


def test_mirror_step_commutes_and_maps_rewards():
    cfg = EnvConfig().fixed_pitch()
    rng = np.random.default_rng(3)
    state = env.reset(cfg, seed=11)
    state.player_vel[:] = rng.uniform(-2, 2, size=(4, 2))
    state.ball_vel[:] = rng.uniform(-3, 3, size=2)
    acts = rng.uniform(-1, 1, size=(4, 3))
    acts[:, 2] = np.abs(acts[:, 2])

    out = env.step(cfg, state, acts)
    mirrored_out = env.step(cfg, env.mirror_state(state, "x"), mirror_actions(acts))
    expect_state = env.mirror_state(out.state, "x")

    np.testing.assert_allclose(mirrored_out.state.player_pos, expect_state.player_pos, atol=1e-9)
    np.testing.assert_allclose(mirrored_out.state.ball_pos, expect_state.ball_pos, atol=1e-9)
    np.testing.assert_allclose(mirrored_out.state.ball_vel, expect_state.ball_vel, atol=1e-9)
    # channels: goal <-> concede swap, vel-to-ball invariant, vel-ball-to-goal
    # becomes the opposing team's value (a pure negation only holds when the
    # ball lies on the goal-to-goal axis; see the scripted test below)
    np.testing.assert_allclose(mirrored_out.rewards[:, 0], out.rewards[:, 1] * -1.0, atol=1e-9)
    np.testing.assert_allclose(mirrored_out.rewards[:, 1], out.rewards[:, 0] * -1.0, atol=1e-9)
    np.testing.assert_allclose(mirrored_out.rewards[:, 2], out.rewards[:, 2], atol=1e-9)
    np.testing.assert_allclose(mirrored_out.rewards[:, 3], out.rewards[[2, 3, 0, 1], 3], atol=1e-9)


def test_mirror_negates_vel_ball_to_goal_on_axis():
    cfg = EnvConfig().fixed_pitch()
    state = make_state(cfg, FAR_CORNERS, [2.0, 0.0], ball_vel=[4.0, 0.0])
    out = env.step(cfg, state, np.zeros((4, 3)))
    mirrored_out = env.step(cfg, env.mirror_state(state, "x"), np.zeros((4, 3)))
    assert abs(out.rewards[0, 3]) > 0.5
    np.testing.assert_allclose(mirrored_out.rewards[:, 3], -out.rewards[:, 3], atol=1e-9)


def test_mirrored_goal_swaps_goal_and_concede():
    cfg = EnvConfig().fixed_pitch()
    state = scripted_shot_state(cfg, y=0.0)
    out = env.step(cfg, state, np.zeros((4, 3)))
    mirrored = env.step(cfg, env.mirror_state(state, "x"), np.zeros((4, 3)))
    assert out.rewards[0, 0] == 1.0 and out.rewards[0, 1] == 0.0
    assert mirrored.rewards[0, 0] == 0.0 and mirrored.rewards[0, 1] == -1.0
    assert mirrored.state.score == (0, 1)


# ---- observations ---------------------------------------------------------------


def test_observation_dimension_and_layout():
    cfg = EnvConfig().fixed_pitch()
    state = make_state(cfg, [[0.0, 0.0], [-9.0, 6.0], [9.0, -6.0], [9.0, 6.0]], [3.0, 0.0])
    obs = env.observe(state, 0)
    assert obs.shape == (40,)
    np.testing.assert_allclose(obs[5:7], [3.0, 0.0], atol=1e-12)  # ball dead ahead
    np.testing.assert_allclose(obs[2:4], [0.0, 1.0], atol=1e-12)  # aligned with attack axis
    np.testing.assert_allclose(obs[10:12], [-12.0, 0.0], atol=1e-12)  # own goal behind


def test_observation_invariant_under_global_isometry():
    cfg = EnvConfig()
    state = env.reset(cfg, seed=21)
    rng = np.random.default_rng(4)
    state.player_vel[:] = rng.uniform(-3, 3, size=(4, 2))
    state.ball_vel[:] = rng.uniform(-3, 3, size=2)
    for player in range(4):
        view = env.world_view(state, player)
        base = env.observe_view(view)
        for angle, shift in [(0.7, [3.0, -2.0]), (-2.1, [100.0, 40.0]), (np.pi, [0.0, 0.0])]:
            moved = env.transform_view(view, angle, shift)
            np.testing.assert_allclose(env.observe_view(moved), base, atol=1e-9)


def test_observation_teammate_listed_before_opponents():
    cfg = EnvConfig().fixed_pitch()
    state = make_state(cfg, [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [8.0, 0.0])
    view = env.world_view(state, 1)
    np.testing.assert_array_equal(view.others[0][0], [0.0, 0.0])   # teammate of 1 is 0
    np.testing.assert_array_equal(view.others[1][0], [3.0, 4.0])
    view3 = env.world_view(state, 3)
    np.testing.assert_array_equal(view3.others[0][0], [3.0, 4.0])  # teammate of 3 is 2


def test_observation_of_opponents_swaps_blocks():
    cfg = EnvConfig().fixed_pitch()
    state = make_state(cfg, [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [8.0, 0.0])
    obs = env.observe(state, 0)
    swapped = state.copy()
    swapped.player_pos[[2, 3]] = swapped.player_pos[[3, 2]]
    swapped.player_vel[[2, 3]] = swapped.player_vel[[3, 2]]
    swapped.player_heading[[2, 3]] = swapped.player_heading[[3, 2]]
    obs_swapped = env.observe(swapped, 0)
    np.testing.assert_allclose(obs_swapped[28:34], obs[34:40], atol=1e-12)
    np.testing.assert_allclose(obs_swapped[34:40], obs[28:34], atol=1e-12)


# ---- probe layout ----------------------------------------------------------------


def test_probe_reset_sides_are_mirror_images():
    cfg = EnvConfig().fixed_pitch()
    left = env.probe_reset(cfg, "left")
    right = env.probe_reset(cfg, "right")
    mirrored = env.mirror_state(left, "y")
    np.testing.assert_allclose(mirrored.player_pos, right.player_pos, atol=1e-12)
    np.testing.assert_allclose(mirrored.ball_pos, right.ball_pos, atol=1e-12)
    np.testing.assert_allclose(np.cos(mirrored.player_heading), np.cos(right.player_heading), atol=1e-12)
    np.testing.assert_allclose(np.sin(mirrored.player_heading), np.sin(right.player_heading), atol=1e-12)


def test_probe_reset_ball_in_blue0_possession():
    cfg = EnvConfig().fixed_pitch()
    for side in ("left", "right"):
        state = env.probe_reset(cfg, side)
        dist = float(np.hypot(*(state.ball_pos - state.player_pos[0])))
        assert dist <= cfg.possession_radius
        assert dist > cfg.player_radius + cfg.ball_radius  # not already in contact


def test_probe_reset_rejects_unknown_side():
    with pytest.raises(ValueError):
        env.probe_reset(EnvConfig(), "centre")


def test_wrap_angle_stays_in_principal_range():
    angles = np.array([0.0, np.pi, -np.pi, 3 * np.pi, -7.5, 7.5])
    wrapped = _wrap_angle(angles)
    assert np.all(wrapped <= np.pi + 1e-12) and np.all(wrapped >= -np.pi - 1e-12)
    np.testing.assert_allclose(np.cos(wrapped), np.cos(angles), atol=1e-12)
    np.testing.assert_allclose(np.sin(wrapped), np.sin(angles), atol=1e-12)


# ---- traces -----------------------------------------------------------------------


def play_short_episode(cfg, seed=3, steps=30):
    state = env.reset(cfg, seed)
    records = [env.trace.header_record(state, seed)]
    rng = np.random.default_rng(seed)
    for t in range(steps):
        acts = rng.uniform(-1, 1, size=(4, 3))
        out = env.step(cfg, state, acts)
        records.append(env.trace.step_record(t, state, acts, out.rewards, out.events))
        state = out.state
        if out.terminal:
            break
    records.append(env.trace.final_record(len(records) - 1, state))
    return records


def test_trace_roundtrip_byte_identical(tmp_path):
    cfg = EnvConfig()
    records = play_short_episode(cfg)
    path = tmp_path / "match.ndjson"
    env.trace.write_trace(path, records)
    parsed = env.trace.read_trace(path)
    assert env.trace.emit_trace(parsed) == path.read_text()
    assert parsed == records or np.all(
        [a == b for a, b in zip(env.trace.emit_trace(parsed).splitlines(), path.read_text().splitlines())]
    )


def test_trace_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"type":"step"}\n')
    with pytest.raises(ValueError):
        env.trace.read_trace(path)
    path.write_text("not json\n")
    with pytest.raises(ValueError):
        env.trace.read_trace(path)
