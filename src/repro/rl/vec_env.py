"""The vectorized rollout layer: N synchronized episode lanes.

:class:`VectorEnv` (single-action :class:`~repro.rl.env.PhaseOrderEnv`
semantics) and :class:`MultiActionVectorEnv`
(:class:`~repro.rl.env.MultiActionEnv` semantics) run N *independent*
episodes — each lane has its own program choice, pass history, reward
accumulator and termination — but every synchronized step (and reset)
collects all lanes' pending ``(program, sequence)`` scoring queries and
resolves them through the evaluation stack in one shot:

* ``backend="service"`` — one in-flight :meth:`EvaluationClient.submit`
  future per query, so misses fan out across the sharded worker
  processes concurrently;
* ``backend="engine"`` — one :meth:`EvaluationEngine.evaluate_batch`
  call per distinct program, deduplicating identical sequences across
  lanes before anything touches the simulator.

Per-lane semantics are bit-identical to the sequential envs: the same
reward/termination/failure rules, the same candidate-evaluation
accounting (``evaluations`` counts one per reset/step query, cache hit
or not, while ``toolchain.samples_taken`` keeps counting only true
simulator invocations), and the same per-program initial-cycles cache
for the multi-action formulation. Lane 0 draws programs from the
template env's own RNG, so a one-lane vector env reproduces the
sequential environment draw-for-draw.

Lanes speak *sequences* to an engine and nothing else — no lane ever
holds a module. Histogram observations need only the memo/prefix-trie;
feature observations additionally ride the engine's feature memo
(``want_features`` batches value + 56-vector in one query,
``features_after`` covers failed steps), so a warm trajectory runs at
policy-network speed — cycles from the result memo, observations from
the feature memo, zero pass applications, zero module clones. A
toolchain without an engine (``HLSToolchain(use_engine=False)``) is the
uncached reference façade and is refused at construction; the
sequential envs are the step-for-step reference on top of it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.memo import failure_row
from ..hls.profiler import HLSCompilationError
from ..passes.registry import NUM_ACTIONS, TERMINATE_INDEX
from .env import (
    MultiActionEnv,
    PhaseOrderEnv,
    apply_cycle_result,
    failure_reward,
    initial_cycles_for,
    multi_action_observation,
    phase_order_observation,
)
from .normalization import normalize_reward

__all__ = ["VectorEnv", "MultiActionVectorEnv", "make_vector_env"]

StepResult = Tuple[np.ndarray, float, bool, Dict]
Query = Tuple["_Lane", tuple]


class _Lane:
    """One episode lane's private state (single- or multi-action)."""

    __slots__ = ("rng", "program_index", "features", "histogram", "applied",
                 "indices", "steps", "prev_cycles", "initial_cycles",
                 "best_cycles", "best_sequence")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.program_index = 0
        # raw feature vector of the lane's current state, as the engine
        # reported it; stays None under histogram-only observations
        self.features: Optional[np.ndarray] = None
        self.histogram = np.zeros(NUM_ACTIONS, dtype=np.int64)
        self.applied: List[int] = []
        self.indices: Optional[np.ndarray] = None
        self.steps = 0
        self.prev_cycles = 0
        self.initial_cycles = 0
        self.best_cycles = 0
        self.best_sequence: List[int] = []


class VectorEnv:
    """N episode lanes over :class:`PhaseOrderEnv` semantics.

    Built from a *template* environment (configuration source — its
    programs, toolchain, observation mode, episode length, filters and
    reward shaping are shared by every lane; lane 0 additionally inherits
    its RNG so ``lanes=1`` is draw-for-draw the sequential env).
    """

    def __init__(self, template: PhaseOrderEnv, lanes: int = 1) -> None:
        self._init_common(template, lanes)
        self.action_indices = template.action_indices
        self.zero_reward = template.zero_reward
        self.objective = template.objective

    def _init_common(self, template, lanes: int) -> None:
        if lanes < 1:
            raise ValueError("need at least one lane")
        if template.toolchain.engine is None:
            raise ValueError(
                f"{type(self).__name__} scores sequences through an "
                f"evaluation engine (backend 'engine' or 'service'); "
                f"HLSToolchain(use_engine=False) is the uncached reference "
                f"façade — step it through the sequential "
                f"{type(template).__name__} instead")
        self.template = template
        self.programs = template.programs
        self.toolchain = template.toolchain
        self.observation = template.observation
        self.episode_length = template.episode_length
        self.feature_indices = template.feature_indices
        self.normalization = template.normalization
        self.reward_mode = template.reward_mode
        self.wants_features = self.observation in ("features", "both")
        self.lanes = [
            _Lane(template.rng if i == 0
                  else np.random.default_rng([template.seed, i]))
            for i in range(lanes)
        ]
        # initial cycles of the most recent reset (any lane) — mirrors the
        # sequential env attribute TrainResult consumers read.
        self.initial_cycles = 0
        # candidate evaluations, the paper's samples-per-program unit:
        # one per reset/step query whether the engine answered from cache
        # or the simulator (== the sequential envs' counter).
        self.evaluations = 0

    # -- dimensions (delegate to the template's configuration) --------------
    @property
    def num_lanes(self) -> int:
        return len(self.lanes)

    @property
    def num_actions(self) -> int:
        return self.template.num_actions

    @property
    def observation_dim(self) -> int:
        return self.template.observation_dim

    # -- scoring ------------------------------------------------------------
    def _score_many(self, queries: List[Query]) -> List[Optional[float]]:
        """Resolve all lanes' pending sequence queries in one shot, for
        both env flavours: ``submit()`` future fan-out on the service
        backend, one deduplicating ``evaluate_batch`` per distinct
        program otherwise. Returns one objective value per query,
        ``None`` where the sequence fails. Under feature observations
        each query's lane additionally receives the raw feature vector
        of its new state (``lane.features``) — including failed steps,
        whose features come from a sample-free ``features_after``, unless
        the module could not be built."""
        self.evaluations += len(queries)
        want_features = self.wants_features
        engine = self.toolchain.engine
        submit = getattr(engine, "submit", None)
        rows: List = [None] * len(queries)
        if submit is not None:  # service backend: concurrent fan-out
            futures = [
                submit(self.programs[lane.program_index], seq,
                       objective=self.objective, want_features=want_features)
                for lane, seq in queries
            ]
            for i, ((lane, seq), future) in enumerate(zip(queries, futures)):
                try:
                    rows[i] = future.result()
                except HLSCompilationError:
                    rows[i] = failure_row(engine.features_after,
                                          self.programs[lane.program_index],
                                          seq, want_features)
        else:
            by_program: Dict[int, List[int]] = {}
            for i, (lane, _) in enumerate(queries):
                by_program.setdefault(lane.program_index, []).append(i)
            for program_index, indices in by_program.items():
                batch = engine.evaluate_batch(
                    self.programs[program_index],
                    [queries[i][1] for i in indices], objective=self.objective,
                    want_features=want_features)
                for i, row in zip(indices, batch):
                    rows[i] = row
        if not want_features:
            return rows
        for (lane, _), (_, feats) in zip(queries, rows):
            if feats is not None:  # else the module could not be built
                lane.features = feats
        return [value for value, _ in rows]

    # -- resets ---------------------------------------------------------------
    def _begin_reset(self, lane: _Lane, program_index: int) -> None:
        lane.program_index = program_index
        lane.histogram = np.zeros(NUM_ACTIONS, dtype=np.int64)
        lane.steps = 0
        lane.applied = []

    def _reset_query(self, lane: _Lane) -> tuple:
        return ()

    def _finish_reset(self, lane: _Lane, value: float) -> np.ndarray:
        lane.prev_cycles = value
        lane.initial_cycles = value
        lane.best_cycles = value
        lane.best_sequence = []
        self.initial_cycles = lane.initial_cycles
        return self._observe(lane)

    def reset_lane(self, lane_id: int,
                   program_index: Optional[int] = None) -> np.ndarray:
        """Start a fresh episode on one lane. Raises
        :class:`HLSCompilationError` when the base program itself fails,
        exactly like the sequential env's ``reset``."""
        observations = self.reset_wave({lane_id: program_index})
        if lane_id not in observations:
            raise HLSCompilationError(
                f"initial sequence {self._reset_query(self.lanes[lane_id])!r} "
                f"fails HLS compilation")
        return observations[lane_id]

    def reset_wave(self, assignments: Dict[int, Optional[int]]
                   ) -> Dict[int, np.ndarray]:
        """Start fresh episodes on several lanes at once, batching the
        reset evaluations like a step (service-backend resets fan out
        instead of paying one blocking round-trip per lane). Program
        draws happen in ``assignments`` order from each lane's own RNG.
        Returns ``{lane_id: observation}``; lanes whose base program
        fails HLS compilation are omitted (dead episodes)."""
        prepared: List[int] = []
        for lane_id, program_index in assignments.items():
            lane = self.lanes[lane_id]
            if program_index is None:
                program_index = int(lane.rng.integers(len(self.programs)))
            self._begin_reset(lane, program_index)
            prepared.append(lane_id)
        values = self._score_many(
            [(self.lanes[i], self._reset_query(self.lanes[i]))
             for i in prepared])
        return {lane_id: self._finish_reset(self.lanes[lane_id], value)
                for lane_id, value in zip(prepared, values)
                if value is not None}

    # -- gym-like lane protocol ---------------------------------------------
    def step_lanes(self, lane_ids: Sequence[int],
                   actions: np.ndarray) -> List[StepResult]:
        """One synchronized step: apply each lane's action, score every
        pending sequence as a batch, finish each lane's transition.
        ``actions`` carries one row (or scalar) per entry of
        ``lane_ids``; returns one ``(obs, reward, done, info)`` per lane
        in the same order."""
        actions = np.atleast_1d(np.asarray(actions))
        results: Dict[int, StepResult] = {}
        pending: List[Query] = []
        pending_ids: List[int] = []
        for lane_id, action in zip(lane_ids, actions):
            lane = self.lanes[lane_id]
            pass_index = self.action_indices[int(np.atleast_1d(action)[0])]
            lane.steps += 1
            if pass_index == TERMINATE_INDEX:
                results[lane_id] = (self._observe(lane), 0.0, True,
                                    self._info(lane, terminated=True))
                continue
            lane.applied.append(pass_index)
            lane.histogram[pass_index] += 1
            pending.append((lane, tuple(lane.applied)))
            pending_ids.append(lane_id)
        values = self._score_many(pending) if pending else []
        for lane_id, (lane, _), value in zip(pending_ids, pending, values):
            if value is None:
                results[lane_id] = self._failure(lane)
                continue
            delta = apply_cycle_result(lane, value, lane.applied)
            reward = 0.0 if self.zero_reward \
                else normalize_reward(delta, self.reward_mode)
            done = lane.steps >= self.episode_length
            results[lane_id] = (self._observe(lane), reward, done,
                                self._info(lane))
        return [results[lane_id] for lane_id in lane_ids]

    def _failure(self, lane: _Lane) -> StepResult:
        """The sequence broke HLS compilation: strongly negative signal,
        episode over (same shaping as the sequential env)."""
        return (self._observe(lane),
                failure_reward(self.reward_mode, lane.prev_cycles),
                True, self._info(lane, failed=True))

    # -- observation / info --------------------------------------------------
    def lane_raw_features(self, lane_id: int) -> np.ndarray:
        """The lane's current raw 56-vector (the importance-analysis
        collector records pre-step feature rows from it)."""
        return self.lanes[lane_id].features

    def _observe(self, lane: _Lane) -> np.ndarray:
        return phase_order_observation(self.observation, lane.features,
                                       lane.histogram, self.feature_indices,
                                       self.normalization)

    def _info(self, lane: _Lane, terminated: bool = False,
              failed: bool = False) -> Dict:
        return {
            "cycles": lane.prev_cycles,
            "initial_cycles": lane.initial_cycles,
            "best_cycles": lane.best_cycles,
            "best_sequence": list(lane.best_sequence),
            "program_index": lane.program_index,
            "terminated": terminated,
            "failed": failed,
        }

    # -- checkpointing -------------------------------------------------------
    def rng_states(self) -> List[dict]:
        return [lane.rng.bit_generator.state for lane in self.lanes]

    def set_rng_states(self, states: Sequence[dict]) -> None:
        for lane, state in zip(self.lanes, states):
            lane.rng.bit_generator.state = state


class MultiActionVectorEnv(VectorEnv):
    """N lanes over the §5.2 multi-action formulation: each lane evolves
    a complete pass-index vector with ±1 nudges; every synchronized step
    batches all lanes' full-sequence evaluations. The per-program
    initial-cycles cache is shared across lanes (one -O0 profile per
    program per vector env, the sequential env's semantics)."""

    def __init__(self, template: MultiActionEnv, lanes: int = 1) -> None:
        self._init_common(template, lanes)
        self.sequence_length = template.sequence_length
        self.objective = "cycles"
        self._initial_cycles_cache: Dict[int, int] = {}

    @property
    def num_slots(self) -> int:
        return self.sequence_length

    # -- resets ---------------------------------------------------------------
    def _begin_reset(self, lane: _Lane, program_index: int) -> None:
        lane.program_index = program_index
        lane.indices = np.full(self.sequence_length, NUM_ACTIONS // 2,
                               dtype=np.int64)
        lane.steps = 0

    def _reset_query(self, lane: _Lane) -> tuple:
        return tuple(int(i) for i in lane.indices)

    def _finish_reset(self, lane: _Lane, value: float) -> np.ndarray:
        lane.prev_cycles = int(value)
        lane.initial_cycles = initial_cycles_for(self, lane.program_index)
        lane.best_cycles = lane.prev_cycles
        lane.best_sequence = [int(i) for i in lane.indices]
        self.initial_cycles = lane.initial_cycles
        return self._observe(lane)

    # -- lane protocol -------------------------------------------------------
    def step_lanes(self, lane_ids: Sequence[int],
                   actions: np.ndarray) -> List[StepResult]:
        actions = np.asarray(actions)
        if actions.ndim == 1:
            actions = actions[None, :]
        queries: List[Query] = []
        for lane_id, action in zip(lane_ids, actions):
            lane = self.lanes[lane_id]
            assert action.shape == (self.sequence_length,)
            deltas = action.astype(np.int64) - 1  # 0/1/2 -> -1/0/+1
            lane.indices = np.clip(lane.indices + deltas, 0, NUM_ACTIONS - 1)
            lane.steps += 1
            queries.append((lane, tuple(int(i) for i in lane.indices)))
        values = self._score_many(queries)
        results: List[StepResult] = []
        for (lane, _), value in zip(queries, values):
            if value is None:
                results.append(self._failure(lane))
                continue
            delta = apply_cycle_result(lane, int(value),
                                       [int(i) for i in lane.indices])
            reward = normalize_reward(delta, self.reward_mode)
            done = lane.steps >= self.episode_length
            results.append((self._observe(lane), reward, done, self._info(lane)))
        return results

    def _failure(self, lane: _Lane) -> StepResult:
        return self._observe(lane), -1.0, True, self._info(lane, failed=True)

    # -- observation ---------------------------------------------------------
    def _observe(self, lane: _Lane) -> np.ndarray:
        return multi_action_observation(self.observation, lane.features,
                                        lane.indices, self.feature_indices,
                                        self.normalization)

    def _info(self, lane: _Lane, terminated: bool = False,
              failed: bool = False) -> Dict:
        return {
            "cycles": lane.prev_cycles,
            "initial_cycles": lane.initial_cycles,
            "best_cycles": lane.best_cycles,
            "best_sequence": list(lane.best_sequence),
            "program_index": lane.program_index,
            "failed": failed,
        }


def make_vector_env(template, lanes: int = 1) -> VectorEnv:
    """Wrap a sequential environment in the matching vector env."""
    if isinstance(template, MultiActionEnv):
        return MultiActionVectorEnv(template, lanes)
    return VectorEnv(template, lanes)
