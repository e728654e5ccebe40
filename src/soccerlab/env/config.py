"""Environment constants: pitch geometry, body parameters, contact tuning.

Lengths are metres, times seconds, masses kilograms. The pitch keeps a
fixed 4:3 aspect; reset() scales the base dimensions by a per-episode
factor so agents cannot memorise absolute coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .. import records


@dataclass(frozen=True)
class EnvConfig:
    # geometry
    pitch_length: float = 24.0
    pitch_width: float = 18.0
    scale_min: float = 20.0 / 24.0
    scale_max: float = 28.0 / 24.0
    border_width: float = 1.5
    goal_width_fraction: float = 1.0 / 3.0  # of pitch width

    # timing
    control_dt: float = 0.05
    substeps: int = 10
    episode_seconds: float = 45.0

    # bodies
    player_radius: float = 0.4
    ball_radius: float = 0.15
    player_mass: float = 60.0
    ball_mass: float = 0.45

    # actuation
    drive_accel: float = 4.0      # m/s^2 at |drive| = 1
    turn_accel: float = 8.0       # rad/s^2 at |turn| = 1
    kick_force: float = 150.0     # contact force on the ball at kick = 1

    # damping and contacts
    player_lin_damping: float = 1.0
    player_ang_damping: float = 3.0
    ball_damping: float = 0.35
    ball_spin_damping: float = 1.0
    spin_transfer: float = 0.1    # toy spin pickup from tangential contact
    restitution_player_ball: float = 0.65
    restitution_wall: float = 0.65
    ball_speed_limit: float = 40.0

    # rules
    throw_in_min: float = 0.5
    throw_in_max: float = 1.5
    possession_margin: float = 0.3
    touch_speed_threshold: float = 0.5

    def __post_init__(self):
        if abs(self.pitch_length / self.pitch_width - 4.0 / 3.0) > 1e-9:
            raise ValueError("pitch must keep a 4:3 length:width aspect")
        if not (0.0 < self.scale_min <= self.scale_max):
            raise ValueError("invalid pitch scale range")
        if self.substeps < 1 or self.control_dt <= 0.0:
            raise ValueError("invalid timing parameters")
        if self.goal_width_fraction <= 0.0 or self.goal_width_fraction >= 1.0:
            raise ValueError("goal width fraction must lie in (0, 1)")

    to_json = records.to_json
    from_json = classmethod(records.from_json)

    @property
    def substep_dt(self) -> float:
        return self.control_dt / self.substeps

    @property
    def max_steps(self) -> int:
        return int(round(self.episode_seconds / self.control_dt))

    @property
    def possession_radius(self) -> float:
        return self.player_radius + self.ball_radius + self.possession_margin

    def fixed_pitch(self) -> "EnvConfig":
        """Variant with the scale range collapsed to the base dimensions."""
        return replace(self, scale_min=1.0, scale_max=1.0)
