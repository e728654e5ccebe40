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
from dataclasses import dataclass, field, fields

from .env import EnvConfig
from .learner import AgentHyperparams, Learner, LearnerConfig
from .nets import ArchSpec, CriticNet, PolicyNet, desk_arch
from .pbt import PbtConfig, PopulationAgent
from .seeding import derive_seed

# Ablation ladder, cumulative left to right: feedforward baseline, then
# hyperparameter evolution, shaping rewards, a recurrent critic, a recurrent
# policy as well, and finally the per-channel value decomposition.
VARIANTS = ("ff", "ff+evo", "+rwd_shp", "lstm_q", "lstm", "+channels")

# Variant-owned toggles that must not appear in config files.
_RESERVED = {
    "pbt": ("evolve",),
    "learner": ("channels",),
    "arch": ("recurrent",),
}


def _plain(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _section(instance, skip: tuple[str, ...] = ()) -> dict:
    return {f.name: _plain(getattr(instance, f.name)) for f in fields(instance) if f.name not in skip}


def _build(cls, obj: dict, what: str, skip: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise ValueError(f"config section {what!r} must be a mapping")
    allowed = {f.name for f in fields(cls)} - set(skip)
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**obj)


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
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.frame_budget < 0 or self.max_matches < 0 or self.checkpoint_every < 0:
            raise ValueError("budgets and cadences must be non-negative")
        if self.steps_per_match < 1:
            raise ValueError("steps_per_match must be positive")

    @property
    def level(self) -> int:
        return VARIANTS.index(self.variant)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "variant": self.variant,
            "frame_budget": self.frame_budget,
            "max_matches": self.max_matches,
            "checkpoint_every": self.checkpoint_every,
            "steps_per_match": self.steps_per_match,
            "out": self.out,
            "env": _section(self.env),
            "pbt": _section(self.pbt, skip=_RESERVED["pbt"]),
            "learner": _section(self.learner, skip=_RESERVED["learner"]),
            "hyperparams": self.hyperparams.as_dict(),
            "arch": {
                "embed_sizes": list(self.arch.embed_sizes),
                "trunk_sizes": list(self.arch.trunk_sizes),
                "core_size": self.arch.core_size,
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ValueError("run config must be a mapping")
        sections = {"env", "pbt", "learner", "hyperparams", "arch"}
        scalars = {"seed", "variant", "frame_budget", "max_matches", "checkpoint_every", "steps_per_match", "out"}
        unknown = set(obj) - sections - scalars
        if unknown:
            raise ValueError(f"unknown run config keys: {sorted(unknown)}")

        pbt_obj = dict(obj.get("pbt", {}))
        if isinstance(pbt_obj.get("knob_bounds"), dict):
            pbt_obj["knob_bounds"] = {k: tuple(v) for k, v in pbt_obj["knob_bounds"].items()}
        arch_obj = dict(obj.get("arch", {}))
        if "recurrent" in arch_obj:
            raise ValueError("arch.recurrent is owned by the variant selector")
        arch_obj = {k: tuple(v) if isinstance(v, list) else v for k, v in arch_obj.items()}
        arch_defaults = desk_arch()
        arch = ArchSpec(
            embed_sizes=arch_obj.get("embed_sizes", arch_defaults.embed_sizes),
            trunk_sizes=arch_obj.get("trunk_sizes", arch_defaults.trunk_sizes),
            core_size=int(arch_obj.get("core_size", arch_defaults.core_size)),
        )
        bad_arch = set(arch_obj) - {"embed_sizes", "trunk_sizes", "core_size"}
        if bad_arch:
            raise ValueError(f"unknown arch keys: {sorted(bad_arch)}")

        return cls(
            seed=int(obj.get("seed", 0)),
            variant=obj.get("variant", "+channels"),
            frame_budget=int(obj.get("frame_budget", 200_000)),
            max_matches=int(obj.get("max_matches", 0)),
            checkpoint_every=int(obj.get("checkpoint_every", 0)),
            steps_per_match=int(obj.get("steps_per_match", 4)),
            out=str(obj.get("out", "")),
            env=_build(EnvConfig, obj.get("env", {}), "env"),
            pbt=_build(PbtConfig, pbt_obj, "pbt", skip=_RESERVED["pbt"]),
            learner=_build(LearnerConfig, obj.get("learner", {}), "learner", skip=_RESERVED["learner"]),
            hyperparams=AgentHyperparams.from_dict(obj.get("hyperparams", {})),
            arch=arch,
        )

    # -- variant resolution -------------------------------------------------

    def resolved_pbt(self) -> PbtConfig:
        values = {f.name: getattr(self.pbt, f.name) for f in fields(self.pbt)}
        values["evolve"] = self.level >= 1
        return PbtConfig(**values)

    def resolved_learner(self) -> LearnerConfig:
        values = {f.name: getattr(self.learner, f.name) for f in fields(self.learner)}
        values["channels"] = self.level >= 5
        return LearnerConfig(**values)

    def resolved_hyperparams(self) -> AgentHyperparams:
        values = self.hyperparams.as_dict()
        if self.level < 2:
            values["reward_weight_vel_to_ball"] = 0.0
            values["reward_weight_vel_ball_to_goal"] = 0.0
        return AgentHyperparams(**values)

    def policy_arch(self) -> ArchSpec:
        return ArchSpec(
            embed_sizes=self.arch.embed_sizes,
            trunk_sizes=self.arch.trunk_sizes,
            core_size=self.arch.core_size,
            recurrent=self.level >= 4,
        )

    def critic_arch(self) -> ArchSpec:
        return ArchSpec(
            embed_sizes=self.arch.embed_sizes,
            trunk_sizes=self.arch.trunk_sizes,
            core_size=self.arch.core_size,
            recurrent=self.level >= 3,
        )


def merge_config(base: dict, update: dict, path: str = "") -> dict:
    """Deep merge `update` onto `base`; keys absent from `base` are rejected."""
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
