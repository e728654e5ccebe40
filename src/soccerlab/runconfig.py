"""One JSON document that names every tunable constant of a training run.

A run config nests the environment, population, learner and initial
hyperparameter constants next to a seed, a frame budget and an ablation
variant. Parsing starts from the built-in defaults, merges the file on top
(rejecting unknown keys at every level), applies dotted command-line
overrides, and resolves the variant into the concrete toggles it owns:
evolution on or off, shaping-reward weights, recurrent cores, and the
per-channel critic. Those owned toggles are deliberately not file keys, so
a config cannot contradict its own variant.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from . import records
from .env import EnvConfig
from .learner import AgentHyperparams, Learner, LearnerConfig
from .nets import ArchSpec, CriticNet, PolicyNet, desk_arch
from .pbt import PbtConfig, PopulationAgent
from .seeding import derive_seed

# Ablation ladder, cumulative left to right: feedforward baseline, then
# hyperparameter evolution, shaping rewards, a recurrent critic, a recurrent
# policy as well, and finally the per-channel value decomposition.
VARIANTS = ("ff", "ff+evo", "+rwd_shp", "lstm_q", "lstm", "+channels")

# Variant-owned toggles, one per section, that must not appear in config files.
_RESERVED = {"pbt": "evolve", "learner": "channels", "arch": "recurrent"}


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run needs, resolvable to concrete module configs."""

    seed: int = 0
    variant: str = "+channels"
    frame_budget: int = 200_000
    max_matches: int = 0  # 0 = no cap
    checkpoint_every: int = 0
    steps_per_match: int = 4
    out: str = ""  # default run directory; a --out flag takes precedence
    env: EnvConfig = field(default_factory=EnvConfig)
    pbt: PbtConfig = field(default_factory=PbtConfig)
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    hyperparams: AgentHyperparams = field(default_factory=AgentHyperparams)
    arch: ArchSpec = field(default_factory=desk_arch)

    def __post_init__(self):
        for name in ("seed", "frame_budget", "max_matches", "checkpoint_every", "steps_per_match"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "out", str(self.out))
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.frame_budget < 0 or self.max_matches < 0 or self.checkpoint_every < 0:
            raise ValueError("budgets and cadences must be non-negative")
        if self.steps_per_match < 1:
            raise ValueError("steps_per_match must be positive")

    @property
    def level(self) -> int:
        return VARIANTS.index(self.variant)

    def to_json(self) -> dict:
        obj = records.to_json(self)
        for section, key in _RESERVED.items():
            del obj[section][key]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "RunConfig":
        """The inverse of `to_json`: a variant-owned toggle is rejected if
        present and otherwise takes its default."""
        if not isinstance(obj, dict):
            raise ValueError("run config must be a JSON object")
        obj, defaults = dict(obj), cls()
        for section, key in _RESERVED.items():
            if isinstance(obj.get(section), dict):
                if key in obj[section]:
                    raise ValueError(f"{section}.{key} is owned by the variant selector")
                obj[section] = {**obj[section], key: getattr(getattr(defaults, section), key)}
        return records.from_json(cls, obj)

    # -- variant resolution -------------------------------------------------

    def resolved_pbt(self) -> PbtConfig:
        return replace(self.pbt, evolve=self.level >= 1)

    def resolved_learner(self) -> LearnerConfig:
        return replace(self.learner, channels=self.level >= 5)

    def resolved_hyperparams(self) -> AgentHyperparams:
        if self.level >= 2:
            return replace(self.hyperparams)
        return replace(self.hyperparams, reward_weight_vel_to_ball=0.0, reward_weight_vel_ball_to_goal=0.0)

    def policy_arch(self) -> ArchSpec:
        return replace(self.arch, recurrent=self.level >= 4)

    def critic_arch(self) -> ArchSpec:
        return replace(self.arch, recurrent=self.level >= 3)


def merge_config(base: dict, update: dict, path: str = "") -> dict:
    """Deep merge `update` onto `base`; keys absent from `base` are rejected."""
    if not isinstance(update, dict):
        raise ValueError("a run config must be a JSON object")
    merged = dict(base)
    for key, value in update.items():
        where = f"{path}{key}"
        if key not in base:
            raise ValueError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key {where!r} must be a mapping")
            # knob_bounds and hyperparams are open maps keyed by knob name;
            # their member keys are validated by the owning dataclass.
            if key in ("knob_bounds", "hyperparams"):
                merged[key] = {**base[key], **value}
            else:
                merged[key] = merge_config(base[key], value, path=f"{where}.")
        else:
            merged[key] = value
    return merged


def parse_override(text: str) -> tuple[list[str], object]:
    """'pbt.elo_k=0.2' -> (['pbt', 'elo_k'], 0.2); bare words stay strings."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ValueError(f"override must look like section.key=value: {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def apply_overrides(obj: dict, assignments: list[str]) -> dict:
    for text in assignments:
        path, value = parse_override(text)
        update: object = value
        for part in reversed(path):
            update = {part: update}
        obj = merge_config(obj, update)
    return obj


def load_run_config(file_obj: dict | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Defaults <- file <- dotted overrides, then validate and wrap."""
    merged = RunConfig().to_json()
    if file_obj is not None:
        merged = merge_config(merged, file_obj)
    if overrides:
        merged = apply_overrides(merged, overrides)
    return RunConfig.from_json(merged)


def build_population(config: RunConfig) -> list[PopulationAgent]:
    """Fresh agents for one run; per-agent streams split off the root seed."""
    learner_config = config.resolved_learner()
    hyperparams = config.resolved_hyperparams()
    agents = []
    for k in range(config.pbt.population_size):
        agent_seed = derive_seed(config.seed, k)
        learner = Learner(
            PolicyNet(config.policy_arch()),
            CriticNet(config.critic_arch(), n_heads=learner_config.n_critic_heads),
            AgentHyperparams(**hyperparams.as_dict()),
            learner_config,
            seed=agent_seed,
        )
        agents.append(PopulationAgent(agent_id=f"agent{k:02d}", learner=learner))
    return agents


def desk_run_config(seed: int = 0, variant: str = "+channels", frame_budget: int = 200_000) -> RunConfig:
    """Small-pitch preset sized for a workstation smoke run."""
    return RunConfig(
        seed=seed,
        variant=variant,
        frame_budget=frame_budget,
        env=EnvConfig(pitch_length=14.0, pitch_width=10.5, scale_min=1.0, scale_max=1.0),
        pbt=PbtConfig(
            frames_before_first_eligible=50_000,
            frames_between_eligible=10_000,
            frames_burn_in=10_000,
        ),
        learner=LearnerConfig(snippet_length=20, batch_size=16, replay_capacity=20_000),
        arch=desk_arch(),
    )
