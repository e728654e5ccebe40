"""Deterministic scripted policies used as oracles: they expose the same
apply/zero_state interface as a policy network but compute actions from the
egocentric observation directly (stddev 0, so matches are reproducible)."""
import numpy as np

# Observation slices (body frame): see soccerlab.env.sim for the full layout.
BALL = slice(5, 7)
OPPONENT_GOAL = slice(12, 14)
CORNERS = slice(14, 22)
TEAMMATE = slice(22, 24)


class PassivePolicy:
    """Never moves."""

    def zero_state(self, batch: int):
        return None

    def apply(self, params, obs, state):
        mean = np.zeros((obs.shape[0], 3))
        return mean, np.zeros_like(mean), None


class ScriptedForward:
    """Knock the ball toward a target (the opponent goal or the teammate).
    The player nearer the ball swings to its far side and drives through it
    with the kick held down; the other player hangs back so the two do not
    fight over the ball."""

    def __init__(
        self,
        aim: str = "goal",
        standoff: float = 1.0,
        kick_range: float = 0.9,
        aim_spread: float = 0.0,
    ):
        if aim not in ("goal", "teammate"):
            raise ValueError("aim must be 'goal' or 'teammate'")
        self.aim = aim
        self.standoff = standoff
        self.kick_range = kick_range
        # 0 shoots at the goal centre; up to ~0.7 shoots at the goal-line
        # point nearest the ball (straighter pushes, needs a wide goal).
        self.aim_spread = aim_spread

    def zero_state(self, batch: int):
        return None

    def apply(self, params, obs, state):
        mean = np.stack([self._act(row) for row in np.asarray(obs)])
        return mean, np.zeros_like(mean), None

    def _act(self, obs: np.ndarray) -> np.ndarray:
        ball = obs[BALL]
        teammate = obs[TEAMMATE]
        if self.aim == "goal":
            target = obs[OPPONENT_GOAL]
            if self.aim_spread > 0.0:
                axis = target - obs[10:12]  # own goal -> opponent goal
                axis = axis / (np.hypot(axis[0], axis[1]) + 1e-9)
                lateral = (ball - target) - float((ball - target) @ axis) * axis
                target = target + self.aim_spread * lateral
        else:
            target = teammate
        through = target - ball  # desired ball travel direction
        ball_dist = float(np.hypot(ball[0], ball[1]))
        through_n = through / (np.hypot(through[0], through[1]) + 1e-9)
        ball_n = ball / (ball_dist + 1e-9)
        aligned = float(ball_n @ through_n)
        corners = obs[CORNERS].reshape(4, 2)

        teammate_ball = float(np.hypot(ball[0] - teammate[0], ball[1] - teammate[1]))
        if ball_dist > teammate_ball:
            # Far player: hold so the pair does not fight over the ball. A
            # designated receiver steps out to meet a ball played its way.
            if self.aim == "teammate":
                closing = -float(obs[7:9] @ ball_n)  # ball speed toward me
                if closing > 0.8:
                    return self._drive_to(ball, ball_dist, aligned)
            return np.zeros(3)

        if aligned > 0.55 or (ball_dist < 1.0 and aligned > 0.3):
            # Plow through the contact; a clean kick only when well lined up,
            # so deflections never head toward our own goal.
            goto = ball + through_n * 0.6
        else:
            goto = self._clamp_to_pitch(ball - through_n * self.standoff, corners)
            # Detour sideways if the direct path would clip the ball.
            if ball_dist < np.hypot(goto[0], goto[1]):
                side = np.array([-through_n[1], through_n[0]])
                if float(side @ ball_n) > 0.0:
                    side = -side
                goto = goto + side * 0.9
        return self._drive_to(goto, ball_dist, aligned)

    @staticmethod
    def _clamp_to_pitch(point: np.ndarray, corners: np.ndarray, margin: float = 0.6) -> np.ndarray:
        # Corners arrive in body frame ordered (-L,-W), (-L,+W), (+L,-W), (+L,+W).
        origin = corners[0]
        u, v = corners[2] - origin, corners[1] - origin
        length, width = float(np.hypot(u[0], u[1])), float(np.hypot(v[0], v[1]))
        un, vn = u / length, v / width
        a = float(np.clip((point - origin) @ un, margin, length - margin))
        b = float(np.clip((point - origin) @ vn, margin, width - margin))
        return origin + a * un + b * vn

    def _drive_to(self, goto: np.ndarray, ball_dist: float, aligned: float) -> np.ndarray:
        heading_error = float(np.arctan2(goto[1], goto[0]))
        turn = float(np.clip(3.0 * heading_error, -1.0, 1.0))
        if abs(heading_error) < 1.3:
            drive = float(np.clip(1.5 * np.hypot(goto[0], goto[1]), 0.0, 1.0))
        else:
            drive = 0.1
        kick = 1.0 if (ball_dist < self.kick_range and aligned > 0.85) else 0.0
        return np.array([drive, turn, kick])
