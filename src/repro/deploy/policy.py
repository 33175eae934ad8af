"""The served face of a trained agent: greedy batched inference.

AutoPhase's deliverable is not a training curve — it is a policy that,
in milliseconds and *one* simulator sample, emits a pass ordering for a
program it has never seen (§6.2). :class:`PolicyRunner` is that policy
as an object: it wraps a trained agent plus the observation
configuration it was trained under (:class:`PolicySpec`) and runs
greedy rollouts through the evaluation stack —

* **zero-sample inference**: observations come from the engine's
  feature memo (``features_after``), which never profiles; a warm cache
  answers whole rollouts without materializing a module anywhere.
* **batched**: :meth:`infer_batch` advances many programs per policy
  forward (one ``act_greedy_batch`` wave per step), the seam the
  cross-request batching server coalesces concurrent clients onto.
* **verified**: :meth:`optimize` closes the loop — it scores the
  inferred sequence against ``-O3`` through the engine and falls back
  to the better baseline (optionally spending a small search-refinement
  budget) when the policy underperforms, so a served answer is never
  worse than the compiler default.

``repro.rl.agents.infer_sequence`` (Figure 9's inference path) is a
thin wrapper over this class, so figure inference and served inference
share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry as tm
from ..engine.core import canonicalize_sequence
from ..hls.profiler import HLSCompilationError
from ..ir.module import Module
from ..passes.registry import NUM_ACTIONS, NUM_TRANSFORMS, TERMINATE_INDEX
from ..rl.env import multi_action_observation, phase_order_observation
from ..toolchain import HLSToolchain

__all__ = ["PolicySpec", "PolicyRunner", "PolicyDecision", "build_agent"]

_ALGORITHMS = ("ppo", "a2c", "es")


@dataclass
class PolicySpec:
    """Everything needed to run (and rebuild) a policy outside training.

    The observation fields define the inference rollout — they must
    match what the agent trained under, or the policy sees garbage. The
    rebuild fields (``algorithm`` .. ``seed``) let the model registry
    reconstruct the bare agent network without a training corpus; they
    stay ``None`` for ad-hoc runners wrapped around a live agent.
    """

    observation: str = "both"
    episode_length: int = 12
    feature_indices: Optional[List[int]] = None
    action_indices: Optional[List[int]] = None
    normalization: Optional[str] = None
    multi_action: bool = False
    sequence_length: int = 45          # §5.2 slot count (multi-action only)
    # -- agent rebuild fields (registry entries only) -----------------------
    agent_name: Optional[str] = None   # Table-3 configuration name
    algorithm: Optional[str] = None    # 'ppo' | 'a2c' | 'es'
    obs_dim: Optional[int] = None
    num_actions: Optional[int] = None
    heads: int = 1
    hidden: Tuple[int, ...] = (256, 256)
    seed: int = 0

    @classmethod
    def from_trainer(cls, trainer) -> "PolicySpec":
        """Capture a :class:`~repro.rl.trainer.Trainer`'s observation
        configuration and agent architecture for registration."""
        from ..rl.a2c import A2CAgent
        from ..rl.es import ESAgent
        from ..rl.ppo import PPOAgent
        from ..rl.vec_env import MultiActionVectorEnv

        vec = trainer.vec
        agent = trainer.agent
        multi = isinstance(vec, MultiActionVectorEnv)
        if isinstance(agent, PPOAgent):
            algorithm, num_actions, heads = "ppo", agent.choices, agent.heads
        elif isinstance(agent, A2CAgent):
            algorithm, num_actions, heads = "a2c", agent.num_actions, 1
        elif isinstance(agent, ESAgent):
            algorithm, num_actions, heads = "es", agent.num_actions, 1
        else:
            raise TypeError(f"cannot serialize agent type {type(agent).__name__}")
        return cls(
            observation=vec.observation,
            episode_length=vec.episode_length,
            feature_indices=(list(vec.feature_indices)
                             if vec.feature_indices is not None else None),
            action_indices=(list(getattr(vec, "action_indices", None))
                            if getattr(vec, "action_indices", None) is not None
                            and not multi else None),
            normalization=vec.normalization,
            multi_action=multi,
            sequence_length=(vec.sequence_length if multi else 45),
            agent_name=trainer.name,
            algorithm=algorithm,
            obs_dim=agent.obs_dim,
            num_actions=num_actions,
            heads=heads,
            hidden=tuple(agent.config.hidden),
            seed=agent.config.seed,
        )

    def to_json(self) -> Dict:
        return {
            "observation": self.observation,
            "episode_length": self.episode_length,
            "feature_indices": self.feature_indices,
            "action_indices": self.action_indices,
            "normalization": self.normalization,
            "multi_action": self.multi_action,
            "sequence_length": self.sequence_length,
            "agent_name": self.agent_name,
            "algorithm": self.algorithm,
            "obs_dim": self.obs_dim,
            "num_actions": self.num_actions,
            "heads": self.heads,
            "hidden": list(self.hidden),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "PolicySpec":
        spec = cls(**{**data, "hidden": tuple(data.get("hidden", (256, 256)))})
        return spec


def build_agent(spec: PolicySpec):
    """Reconstruct the bare agent network a registry entry describes
    (weights are loaded separately via ``load_state_dict``)."""
    if spec.algorithm not in _ALGORITHMS:
        raise ValueError(f"cannot rebuild agent: unknown algorithm "
                         f"{spec.algorithm!r} (expected one of {_ALGORITHMS})")
    if spec.obs_dim is None or spec.num_actions is None:
        raise ValueError("cannot rebuild agent: spec is missing "
                         "obs_dim/num_actions (ad-hoc runner spec?)")
    if spec.algorithm == "ppo":
        from ..rl.ppo import PPOAgent, PPOConfig

        return PPOAgent(spec.obs_dim, spec.num_actions, heads=spec.heads,
                        config=PPOConfig(hidden=spec.hidden, seed=spec.seed))
    if spec.algorithm == "a2c":
        from ..rl.a2c import A2CAgent, A2CConfig

        return A2CAgent(spec.obs_dim, spec.num_actions,
                        config=A2CConfig(hidden=spec.hidden, seed=spec.seed))
    from ..rl.es import ESAgent, ESConfig

    return ESAgent(spec.obs_dim, spec.num_actions,
                   config=ESConfig(hidden=spec.hidden, seed=spec.seed))


@dataclass
class PolicyDecision:
    """One :meth:`PolicyRunner.optimize` outcome: the sequence actually
    recommended, where it came from, and the QoR bookkeeping."""

    sequence: List[int]
    cycles: Optional[int]
    source: str                        # 'policy' | 'o3' | 'search'
    o3_cycles: Optional[int]
    policy_sequence: List[int] = field(default_factory=list)
    policy_cycles: Optional[int] = None
    evaluations: int = 0               # candidate evaluations spent

    @property
    def improvement_over_o3(self) -> float:
        if not self.o3_cycles or self.cycles is None:
            return 0.0
        return (self.o3_cycles - self.cycles) / self.o3_cycles

    def to_json(self) -> Dict:
        # Sequence elements are pass-table indices, except -O3 pipeline
        # passes outside the table, which stay verbatim names.
        return {
            "sequence": [a if isinstance(a, str) else int(a)
                         for a in self.sequence],
            "cycles": None if self.cycles is None else int(self.cycles),
            "source": self.source,
            "o3_cycles": None if self.o3_cycles is None else int(self.o3_cycles),
            "policy_sequence": [int(a) for a in self.policy_sequence],
            "policy_cycles": (None if self.policy_cycles is None
                              else int(self.policy_cycles)),
            "evaluations": int(self.evaluations),
            "improvement_over_o3": float(self.improvement_over_o3),
        }


class PolicyRunner:
    """Greedy batched inference over a trained agent.

    Rollouts run *sequence-space* against the engine (or service
    client) behind the toolchain: per-step observations come from
    ``engine.features_after`` — memo hits answer without materializing a
    module, and nothing ever profiles, so inference costs zero simulator
    samples. A toolchain without an engine (``use_engine=False``) is the
    uncached reference façade and is refused at construction.
    """

    def __init__(self, agent, spec: PolicySpec,
                 toolchain: Optional[HLSToolchain] = None) -> None:
        self.agent = agent
        self.spec = spec
        self.toolchain = toolchain or HLSToolchain()
        if self.toolchain.engine is None:
            raise ValueError(
                "PolicyRunner reads observations from an evaluation engine "
                "(backend 'engine' or 'service'); "
                "HLSToolchain(use_engine=False) is the uncached reference "
                "façade — replay a served sequence through its "
                "cycle_count_with_passes / features_after instead")
        # Policy forward passes — the server's cross-request batching
        # claim is measured as forwards per served request.
        self.forwards = 0

    # -- inference -----------------------------------------------------------
    def infer(self, module: Module) -> Tuple[List[int], Module]:
        """Greedy rollout for one program: (applied sequence, optimized
        module) — the exact contract of the legacy ``infer_sequence``."""
        sequence = self._rollout([module])[0]
        return sequence, self.toolchain.engine.materialize(module, sequence)

    def infer_batch(self, modules: Sequence[Module]) -> List[List[int]]:
        """Greedy rollouts for many programs at once: every synchronized
        step runs ONE policy forward over all still-active programs.
        Returns one pass sequence per input program; no module is
        materialized (serve the sequence, let the caller decide whether
        to pay for verification)."""
        return self._rollout(modules)

    def _rollout(self, modules: Sequence[Module]) -> List[List[int]]:
        if self.spec.multi_action:
            return self._rollout_multi(modules)
        spec = self.spec
        engine = self.toolchain.engine
        action_indices = (list(spec.action_indices)
                          if spec.action_indices is not None
                          else list(range(NUM_ACTIONS)))
        n = len(modules)
        applied: List[List[int]] = [[] for _ in range(n)]
        histograms = np.zeros((n, NUM_ACTIONS), dtype=np.float64)
        active = list(range(n))
        for _ in range(spec.episode_length):
            if not active:
                break
            rows = []
            for i in active:
                raw = (engine.features_after(modules[i], applied[i])
                       if spec.observation in ("features", "both") else None)
                rows.append(phase_order_observation(
                    spec.observation, raw, histograms[i],
                    spec.feature_indices, spec.normalization))
            self.forwards += 1
            actions = self.agent.act_greedy_batch(np.stack(rows))
            fresh: List[int] = []
            for i, action in zip(active, actions):
                pass_index = action_indices[int(action[0])]
                if pass_index == TERMINATE_INDEX:
                    continue                       # program i is done
                applied[i].append(pass_index)
                histograms[i][pass_index] += 1
                fresh.append(i)
            active = fresh
        return applied

    def _rollout_multi(self, modules: Sequence[Module]) -> List[List[int]]:
        """§5.2 greedy inference: nudge a whole pass-index vector for
        ``episode_length`` steps (observations track the full current
        sequence, exactly like :class:`~repro.rl.env.MultiActionEnv` —
        minus the per-step profile, so this too costs zero samples)."""
        spec = self.spec
        engine = self.toolchain.engine
        n = len(modules)
        indices = np.full((n, spec.sequence_length), NUM_ACTIONS // 2,
                          dtype=np.int64)
        for _ in range(spec.episode_length):
            rows = []
            for i in range(n):
                raw = (engine.features_after(modules[i],
                                             [int(a) for a in indices[i]])
                       if spec.observation in ("features", "both") else None)
                rows.append(multi_action_observation(
                    spec.observation, raw, indices[i],
                    spec.feature_indices, spec.normalization))
            self.forwards += 1
            actions = self.agent.act_greedy_batch(np.stack(rows))
            indices = np.clip(indices + (np.asarray(actions) - 1),
                              0, NUM_ACTIONS - 1)
        return [[int(a) for a in row] for row in indices]

    # -- verified optimization ----------------------------------------------
    def _evaluate(self, module: Module, sequence: Sequence,
                  counter: List[int]) -> Optional[int]:
        counter[0] += 1
        try:
            return int(self.toolchain.cycle_count_with_passes(module, sequence))
        except HLSCompilationError:
            return None

    def optimize(self, module: Module, refine: int = 0,
                 seed: int = 0) -> PolicyDecision:
        return self.optimize_batch([module], refine=refine, seed=seed)[0]

    def optimize_batch(self, modules: Sequence[Module], refine: int = 0,
                       seed: int = 0) -> List[PolicyDecision]:
        """Infer + verify: engine-score each policy sequence against
        ``-O3`` and recommend whichever wins. When the policy
        underperforms, an optional ``refine`` budget of seeded random
        candidates (the cheapest Figure-7 black-box baseline) tries to
        close the gap before falling back — a served decision is never
        worse than the best candidate it evaluated."""
        # Entry point for direct API users (`repro optimize` without a
        # socket): mints a trace id when none is open, nests under the
        # policy server's wave span when there is one.
        with tm.span("policy.decide", batch=len(modules), refine=refine):
            return self._optimize_batch(modules, refine, seed)

    def _optimize_batch(self, modules: Sequence[Module], refine: int,
                        seed: int) -> List[PolicyDecision]:
        spec = self.spec
        sequences = self.infer_batch(modules)
        # Canonical elements are table indices (or verbatim names for
        # passes outside the table — kept, so the baseline is always the
        # REAL -O3 pipeline, never a truncation of it).
        o3_seq = list(canonicalize_sequence(self.toolchain.o3_sequence()))
        transforms = [a for a in (spec.action_indices or range(NUM_TRANSFORMS))
                      if a != TERMINATE_INDEX]
        candidates: List[List[int]] = []
        decisions = []
        for module, policy_seq in zip(modules, sequences):
            counter = [0]
            policy_cycles = self._evaluate(module, policy_seq, counter)
            o3_cycles = self._evaluate(module, o3_seq, counter)
            best_cycles, best_seq, source = policy_cycles, policy_seq, "policy"
            if o3_cycles is not None and \
                    (best_cycles is None or o3_cycles < best_cycles):
                best_cycles, best_seq, source = o3_cycles, o3_seq, "o3"
            if source != "policy" and refine > 0:
                # Policy lost to -O3: spend the refinement budget on the
                # black-box fallback before conceding. The candidates depend
                # on the request, never on its slot in the wave.
                if not candidates:
                    rng = np.random.default_rng([seed, 0])
                    candidates = [[int(a) for a in rng.choice(
                        transforms, size=spec.episode_length)]
                        for _ in range(refine)]
                values = self.toolchain.engine.evaluate_batch(module,
                                                              candidates)
                counter[0] += len(candidates)
                for candidate, value in zip(candidates, values):
                    if value is not None and \
                            (best_cycles is None or value < best_cycles):
                        best_cycles, best_seq, source = \
                            int(value), candidate, "search"
            decisions.append(PolicyDecision(
                sequence=list(best_seq), cycles=best_cycles, source=source,
                o3_cycles=o3_cycles, policy_sequence=list(policy_seq),
                policy_cycles=policy_cycles, evaluations=counter[0]))
        return decisions
