"""The phase-ordering RL environments (paper §5.1–§5.2).

:class:`PhaseOrderEnv` is the single-action formulation: one transform
pass per step, observation = program features and/or the histogram of
previously applied passes, reward = cycle-count improvement.

:class:`MultiActionEnv` is the §5.2 formulation: the state is a whole
pass-index vector of length N (initialized to K/2); each step nudges
every slot by −1/0/+1 and evaluates the complete sequence.

Both follow the OpenAI-gym protocol (``reset() → obs``,
``step(a) → (obs, reward, done, info)``) the paper's RLlib agents
consume, and both count simulator invocations through the toolchain so
the samples-per-program comparison of Figure 7 falls out directly.

With an engine behind the toolchain an env holds no module: every reset
and step asks for "the program after the applied pass list", as the
vectorized lanes do. Without one (``HLSToolchain(use_engine=False)``)
an env applies passes to its own clone — the uncached reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..features.extractor import features_for
from ..features.table import NUM_FEATURES
from ..hls.profiler import HLSCompilationError
from ..ir.module import Module
from ..passes.registry import NUM_ACTIONS, TERMINATE_INDEX
from ..toolchain import HLSToolchain, clone_module
from .normalization import normalize_features, normalize_reward

__all__ = ["PhaseOrderEnv", "MultiActionEnv",
           "phase_order_observation", "multi_action_observation",
           "apply_cycle_result", "failure_reward", "initial_cycles_for"]

ObservationMode = str  # 'features' | 'histogram' | 'both'


def apply_cycle_result(state, value, sequence) -> float:
    """Fold a new objective value into episode state — prev/best tracking
    shared by the sequential envs and the vectorized lanes (one source of
    truth, so transition semantics can't drift between them). Returns the
    improvement delta the reward is shaped from."""
    delta = state.prev_cycles - value
    state.prev_cycles = value
    if value < state.best_cycles:
        state.best_cycles = value
        state.best_sequence = list(sequence)
    return delta


def failure_reward(reward_mode: Optional[str], prev_cycles) -> float:
    """The single-action envs' HLS-compilation-failure shaping: strongly
    negative signal, scaled to the episode's last cycle count unless the
    log reward keeps magnitudes bounded."""
    return -1.0 if reward_mode == "log" else -float(prev_cycles)


def initial_cycles_for(owner, program_index: int) -> int:
    """-O0 cycles per program index through ``owner._initial_cycles_cache``
    — resets must not re-profile the unoptimized base program every
    episode (a cache miss counts one candidate evaluation)."""
    cached = owner._initial_cycles_cache.get(program_index)
    if cached is None:
        owner.evaluations += 1
        cached = owner.toolchain.cycle_count_with_passes(
            owner.programs[program_index], [])
        owner._initial_cycles_cache[program_index] = cached
    return cached


def _engine_score(env, program: Module, sequence: Sequence[int],
                  **query) -> float:
    """One sequence query of a sequential env with an engine: the
    objective value of ``program`` after ``sequence`` and, under feature
    observations, the features of that state in the same query
    (``env.features``). A failing sequence leaves the features of its
    module behind — or the last good ones when the module could not be
    built, the lanes' rule — and re-raises."""
    engine = env.toolchain.engine
    if env.observation not in ("features", "both"):
        return engine.evaluate(program, sequence, **query)
    try:
        value, env.features = engine.evaluate_with_features(
            program, sequence, **query)
    except HLSCompilationError:
        try:
            env.features = engine.features_after(program, sequence)
        except HLSCompilationError:
            pass  # no module to read: keep the last good features
        raise
    return value


def _current_features(env) -> Optional[np.ndarray]:
    """Raw features of a sequential env's current state when its
    observation shows them: the engine's answer, or the working
    module's."""
    if env.observation not in ("features", "both"):
        return None
    if env.toolchain.engine is not None:
        return env.features
    return features_for(env.module)


def phase_order_observation(observation: ObservationMode,
                            raw_features: Optional[np.ndarray],
                            histogram: np.ndarray,
                            feature_indices: Optional[Sequence[int]],
                            normalization: Optional[str]) -> np.ndarray:
    """Single-action observation assembly — one source of truth shared by
    :class:`PhaseOrderEnv` and the vectorized lanes, so feature
    normalization/filtering can never drift between them.
    ``raw_features`` is the unnormalized 56-vector of the current state
    (from the cached front door or an engine feature query), required
    only for the 'features'/'both' modes."""
    parts: List[np.ndarray] = []
    if observation in ("features", "both"):
        assert raw_features is not None
        normed = normalize_features(raw_features, normalization)
        if feature_indices is not None:
            normed = normed[feature_indices]
        parts.append(normed)
    if observation in ("histogram", "both"):
        parts.append(histogram.astype(np.float64))
    return np.concatenate(parts)


def multi_action_observation(observation: ObservationMode,
                             raw_features: Optional[np.ndarray],
                             indices: np.ndarray,
                             feature_indices: Optional[Sequence[int]],
                             normalization: Optional[str]) -> np.ndarray:
    """§5.2 observation assembly: the current index vector (always
    visible) plus optional program features. Shared by
    :class:`MultiActionEnv` and the vectorized lanes."""
    parts = [indices.astype(np.float64) / NUM_ACTIONS]
    if observation in ("features", "both"):
        assert raw_features is not None
        normed = normalize_features(raw_features, normalization)
        if feature_indices is not None:
            normed = normed[feature_indices]
        parts.append(normed)
    return np.concatenate(parts)


class PhaseOrderEnv:
    """Single-action phase-ordering environment over one or more programs.

    Parameters mirror the paper's experimental knobs:

    observation      'features', 'histogram', or 'both' (Table 3 rows)
    episode_length   N, the pass budget per episode (45 in Fig 7)
    feature_indices  optional filter (Fig 5/6 random-forest selection)
    action_indices   optional filtered action space; must include
                     TERMINATE_INDEX semantics only if use_terminate
    normalization    None | 'log' | 'instcount' (§5.3 techniques)
    reward_mode      'delta' (Fig 7, per-program) | 'log' (§6.2)
    zero_reward      force all rewards to 0 (the RL-PPO1 control)
    """

    def __init__(
        self,
        programs: Sequence[Module],
        toolchain: Optional[HLSToolchain] = None,
        observation: ObservationMode = "features",
        episode_length: int = 45,
        feature_indices: Optional[Sequence[int]] = None,
        action_indices: Optional[Sequence[int]] = None,
        normalization: Optional[str] = None,
        reward_mode: str = "delta",
        zero_reward: bool = False,
        use_terminate: bool = True,
        objective: str = "cycles",
        seed: int = 0,
    ) -> None:
        if not programs:
            raise ValueError("need at least one program")
        if observation not in ("features", "histogram", "both"):
            raise ValueError(f"unknown observation mode {observation!r}")
        if objective not in ("cycles", "area", "cycles-area"):
            raise ValueError(f"unknown objective {objective!r}")
        self.objective = objective
        self.programs = list(programs)
        self.toolchain = toolchain or HLSToolchain()
        self.observation = observation
        self.episode_length = episode_length
        self.feature_indices = list(feature_indices) if feature_indices is not None else None
        self.action_indices = list(action_indices) if action_indices is not None else list(range(NUM_ACTIONS))
        if not use_terminate:
            self.action_indices = [a for a in self.action_indices if a != TERMINATE_INDEX]
        self.normalization = normalization
        self.reward_mode = reward_mode
        self.zero_reward = zero_reward
        self.use_terminate = use_terminate
        self.seed = seed
        self.rng = np.random.default_rng(seed)

        # episode state: the working module without an engine, the current
        # state's raw features (_engine_score) with one
        self.module: Optional[Module] = None
        self.features: Optional[np.ndarray] = None
        self.histogram = np.zeros(NUM_ACTIONS, dtype=np.int64)
        self.prev_cycles = 0
        self.initial_cycles = 0
        self.steps = 0
        self.applied: List[int] = []
        self.best_cycles = 0
        self.best_sequence: List[int] = []
        self._program_index: Optional[int] = None
        # Candidate evaluations requested across the env's lifetime — the
        # paper's samples-per-program unit (one per reset/step, whether the
        # engine answered from cache or the simulator).
        self.evaluations = 0

    # -- dimensions -----------------------------------------------------------
    @property
    def num_actions(self) -> int:
        return len(self.action_indices)

    @property
    def observation_dim(self) -> int:
        n_features = len(self.feature_indices) if self.feature_indices is not None else NUM_FEATURES
        if self.observation == "features":
            return n_features
        if self.observation == "histogram":
            return NUM_ACTIONS
        return n_features + NUM_ACTIONS

    # -- gym protocol ------------------------------------------------------------
    def _measure(self) -> float:
        """Objective value after ``self.applied``: an engine query for the
        sequence (a memo hit — a sequence any episode explored before, or
        one that differs from it only by passes that did nothing — burns
        no simulator sample), or a profile of the working module."""
        self.evaluations += 1
        if self.toolchain.engine is not None:
            return _engine_score(self, self.programs[self._program_index],
                                 self.applied, objective=self.objective)
        return self.toolchain.objective_value(self.module, self.objective)

    def reset(self, program_index: Optional[int] = None) -> np.ndarray:
        if program_index is None:
            program_index = int(self.rng.integers(len(self.programs)))
        self._program_index = program_index
        if self.toolchain.engine is None:
            self.module = clone_module(self.programs[program_index])
        self.histogram = np.zeros(NUM_ACTIONS, dtype=np.int64)
        self.steps = 0
        self.applied = []
        self.prev_cycles = self._measure()
        self.initial_cycles = self.prev_cycles
        self.best_cycles = self.prev_cycles
        self.best_sequence = []
        return self._observe()

    def step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict]:
        assert self._program_index is not None, "call reset() first"
        pass_index = self.action_indices[action]
        self.steps += 1
        done = self.steps >= self.episode_length

        if pass_index == TERMINATE_INDEX:
            return self._observe(), 0.0, True, self._info(terminated=True)

        self.applied.append(pass_index)
        self.histogram[pass_index] += 1
        try:
            if self.toolchain.engine is None:
                self.toolchain.apply_passes(self.module, [pass_index])
            cycles = self._measure()
        except HLSCompilationError:
            # The sequence broke HLS compilation (e.g. blew the step
            # budget) or, with an engine, crashed: strongly negative
            # signal, episode over.
            return (self._observe(),
                    failure_reward(self.reward_mode, self.prev_cycles),
                    True, self._info(failed=True))

        delta = apply_cycle_result(self, cycles, self.applied)
        reward = 0.0 if self.zero_reward else normalize_reward(delta, self.reward_mode)
        return self._observe(), reward, done, self._info()

    # -- helpers -------------------------------------------------------------------
    def _observe(self) -> np.ndarray:
        return phase_order_observation(
            self.observation, _current_features(self), self.histogram,
            self.feature_indices, self.normalization)

    def _info(self, terminated: bool = False, failed: bool = False) -> Dict:
        return {
            "cycles": self.prev_cycles,
            "initial_cycles": self.initial_cycles,
            "best_cycles": self.best_cycles,
            "best_sequence": list(self.best_sequence),
            "program_index": self._program_index,
            "terminated": terminated,
            "failed": failed,
        }


class MultiActionEnv:
    """§5.2: evolve a complete pass sequence with ±1 index updates.

    The action is a vector a ∈ {-1,0,+1}^N (encoded per slot as 0/1/2);
    the state p ∈ [0,K)^N starts at K/2 everywhere. Each step evaluates
    the full updated sequence on a fresh clone — one compilation per
    step, against the single-action env's one per pass.
    """

    SUB_ACTIONS = 3  # -1, 0, +1

    def __init__(
        self,
        programs: Sequence[Module],
        toolchain: Optional[HLSToolchain] = None,
        sequence_length: int = 45,
        episode_length: int = 10,
        observation: ObservationMode = "both",
        feature_indices: Optional[Sequence[int]] = None,
        normalization: Optional[str] = None,
        reward_mode: str = "delta",
        seed: int = 0,
    ) -> None:
        self.programs = list(programs)
        self.toolchain = toolchain or HLSToolchain()
        self.sequence_length = sequence_length
        self.episode_length = episode_length
        self.observation = observation
        self.feature_indices = list(feature_indices) if feature_indices is not None else None
        self.normalization = normalization
        self.reward_mode = reward_mode
        self.seed = seed
        self.rng = np.random.default_rng(seed)

        self.indices = np.full(sequence_length, NUM_ACTIONS // 2, dtype=np.int64)
        # as in PhaseOrderEnv: module without an engine, features with one
        self.module: Optional[Module] = None
        self.features: Optional[np.ndarray] = None
        self.prev_cycles = 0
        self.initial_cycles = 0
        self.steps = 0
        self.best_cycles = 0
        self.best_sequence: List[int] = []
        self._program_index = 0
        # -O0 cycles per program index: resets must not re-profile the
        # unoptimized base program every episode.
        self._initial_cycles_cache: Dict[int, int] = {}
        # candidate evaluations (one per reset/step full-sequence score)
        self.evaluations = 0

    @property
    def num_slots(self) -> int:
        return self.sequence_length

    @property
    def observation_dim(self) -> int:
        n_features = len(self.feature_indices) if self.feature_indices is not None else NUM_FEATURES
        base = self.sequence_length  # the current index vector is always visible
        if self.observation in ("features", "both"):
            base += n_features
        return base

    def reset(self, program_index: Optional[int] = None) -> np.ndarray:
        if program_index is None:
            program_index = int(self.rng.integers(len(self.programs)))
        self._program_index = program_index
        base = self.programs[program_index]
        self.indices = np.full(self.sequence_length, NUM_ACTIONS // 2, dtype=np.int64)
        self.steps = 0
        self.prev_cycles = self._evaluate_indices(base)
        self.initial_cycles = self._initial_cycles_for(program_index)
        self.best_cycles = self.prev_cycles
        self.best_sequence = [int(i) for i in self.indices]
        return self._observe()

    def _evaluate_indices(self, base: Module) -> int:
        """Evaluate the current full index vector: one engine query, or —
        without an engine — a fresh clone optimized and profiled, left in
        ``self.module`` for feature observation."""
        self.evaluations += 1
        sequence = [int(i) for i in self.indices]
        if self.toolchain.engine is not None:
            return int(_engine_score(self, base, sequence))
        self.module = clone_module(base)
        self.toolchain.apply_passes(self.module, sequence)
        return self.toolchain.cycle_count(self.module)

    def _initial_cycles_for(self, program_index: int) -> int:
        return initial_cycles_for(self, program_index)

    def step(self, action: np.ndarray) -> Tuple[np.ndarray, float, bool, Dict]:
        action = np.asarray(action)
        assert action.shape == (self.sequence_length,)
        deltas = action.astype(np.int64) - 1  # 0/1/2 -> -1/0/+1
        self.indices = np.clip(self.indices + deltas, 0, NUM_ACTIONS - 1)
        self.steps += 1
        done = self.steps >= self.episode_length

        base = self.programs[self._program_index]
        try:
            cycles = self._evaluate_indices(base)
        except HLSCompilationError:
            return self._observe(), -1.0, True, self._info(failed=True)

        delta = apply_cycle_result(self, cycles, [int(i) for i in self.indices])
        reward = normalize_reward(delta, self.reward_mode)
        return self._observe(), reward, done, self._info()

    def _observe(self) -> np.ndarray:
        return multi_action_observation(
            self.observation, _current_features(self), self.indices,
            self.feature_indices, self.normalization)

    def _info(self, failed: bool = False) -> Dict:
        return {
            "cycles": self.prev_cycles,
            "initial_cycles": self.initial_cycles,
            "best_cycles": self.best_cycles,
            "best_sequence": list(self.best_sequence),
            "program_index": self._program_index,
            "failed": failed,
        }
