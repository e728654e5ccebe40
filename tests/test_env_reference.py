"""The array environment against the scalar oracle in tests/reference_env.py:
the same states and actions must give the same bits in every output.

States are drawn to hit the rare branches: the ball inside a player's
contact range (several players' at once, or exactly at a player's centre),
at a goal mouth moving toward the line, and at the walls; actions include
NaN and infinities.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import reference_env as ref
from soccerlab.env import sim
from soccerlab.env.config import EnvConfig

CFG = EnvConfig()
CONTACT = CFG.player_radius + CFG.ball_radius
STATE_ARRAYS = ("player_pos", "player_vel", "player_heading", "player_angvel", "ball_pos", "ball_vel")
STATE_SCALARS = ("pitch_length", "pitch_width", "ball_spin", "step_count", "terminal", "score", "rng_seed", "rng_calls")
PROPERTY = settings(max_examples=150, derandomize=True, deadline=None, database=None)


def finite(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def states(draw):
    scale = draw(st.sampled_from([CFG.scale_min, 1.0, CFG.scale_max]))
    length, width = CFG.pitch_length * scale, CFG.pitch_width * scale
    half_l, half_w = length / 2.0, width / 2.0
    wall_x, wall_y = half_l + CFG.border_width, half_w + CFG.border_width
    goal_half = CFG.goal_width_fraction * half_w

    def point(x_reach, y_reach):
        return [draw(finite(-x_reach, x_reach)), draw(finite(-y_reach, y_reach))]

    players = np.array([point(wall_x - CFG.player_radius, wall_y - CFG.player_radius) for _ in range(4)])
    ball_vel = np.array(point(45.0, 45.0))
    place = draw(st.sampled_from(["anywhere", "at_player", "at_player", "goal_mouth", "wall"]))
    if place == "at_player":
        ball_vel /= 10.0
        near = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
        ball = players[near[0]].copy()
        for k in near:
            reach = draw(st.sampled_from([0.0, 0.5 * CONTACT, CONTACT]) | finite(0.0, 1.3 * CONTACT))
            angle = draw(finite(-np.pi, np.pi))
            players[k] = ball - reach * np.array([np.cos(angle), np.sin(angle)])
    elif place == "goal_mouth":
        side = draw(st.sampled_from([-1.0, 1.0]))
        ball = np.array([side * (half_l - draw(finite(-0.3, 1.0))), draw(finite(-1.3 * goal_half, 1.3 * goal_half))])
        ball_vel[0] = side * abs(ball_vel[0])
    elif place == "wall":
        axis = draw(st.integers(0, 1))
        ball = np.array(point(wall_x, wall_y))
        ball[axis] = draw(st.sampled_from([-1.0, 1.0])) * ((wall_x, wall_y)[axis] - draw(finite(-0.2, 0.6)))
        if draw(st.booleans()):
            ball_vel[axis] = 0.0
    else:
        ball = np.array(point(wall_x - CFG.ball_radius, wall_y - CFG.ball_radius))
    return sim.EnvState(
        pitch_length=length,
        pitch_width=width,
        player_pos=players,
        player_vel=np.array([point(8.0, 8.0) for _ in range(4)]),
        player_heading=np.array([draw(finite(-np.pi, np.pi)) for _ in range(4)]),
        player_angvel=np.array([draw(finite(-10.0, 10.0)) for _ in range(4)]),
        ball_pos=ball,
        ball_vel=ball_vel,
        ball_spin=draw(finite(-5.0, 5.0)),
        step_count=draw(st.sampled_from([0, CFG.max_steps - 2])),
        terminal=False,
        score=(0, 0),
        rng_seed=draw(st.integers(0, 2**32)),
        rng_calls=1,
    )


@st.composite
def actions(draw):
    acts = np.array(draw(st.lists(finite(-1.5, 1.5), min_size=12, max_size=12))).reshape(4, 3)
    for index in draw(st.lists(st.integers(0, 11), max_size=2, unique=True)):
        acts.flat[index] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return acts


def assert_same_state(a, b):
    for name in STATE_ARRAYS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for name in STATE_SCALARS:
        assert repr(getattr(a, name)) == repr(getattr(b, name)), name


def assert_same_observations(state):
    assert ref.observe(state).tobytes() == sim.observe(state).tobytes()
    for player in range(sim.N_PLAYERS):
        expected = ref.observe(state, player).tobytes()
        assert sim.observe(state, player).tobytes() == expected
        assert sim.observe_view(sim.world_view(state, player)).tobytes() == expected
        assert sim.observe_view(ref.world_view(state, player)).tobytes() == expected


@PROPERTY
@given(states(), st.lists(actions(), min_size=1, max_size=3))
def test_step_and_observe_match_the_scalar_reference(state, actions):
    assert_same_observations(state)
    for acts in actions:
        want = ref.step(CFG, state, acts)
        got = sim.step(CFG, state, acts)
        assert_same_state(got.state, want.state)
        assert got.observations.tobytes() == want.observations.tobytes()
        assert got.rewards.tobytes() == want.rewards.tobytes()
        assert got.events == want.events
        assert got.terminal == want.terminal
        state = got.state
        assert_same_observations(state)
        if state.terminal:
            break


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(states(), st.lists(st.tuples(finite(-15.0, 15.0), finite(-10.0, 10.0)), min_size=1, max_size=4))
def test_displaced_observations_match_reobserving_the_moved_state(state, positions):
    positions = np.array(positions)
    for player in range(sim.N_PLAYERS):
        observation = sim.observe(state, player)
        for entity in (None, *sim.OTHERS_OF[player]):
            got = sim.displaced_observations(state, player, observation, entity, positions)
            for row, pos in zip(got, positions):
                moved = state.copy()
                if entity is None:
                    moved.ball_pos = pos.copy()
                else:
                    moved.player_pos[entity] = pos
                assert row.tobytes() == ref.observe(moved, player).tobytes()
