"""The unified RL trainer: every Table-3 agent trains through one
vectorized rollout loop.

:class:`Trainer` replaces the three near-duplicate loops the
``train_agent`` dispatcher used to carry (PPO/A2C rollout-update, the
multi-action PPO3 variant, and the ES generation loop) with a single
wave-synchronized driver over a :class:`~repro.rl.vec_env.VectorEnv`:

* **Policy-gradient agents** (PPO1/2/3, A3C) run ``lanes`` episodes as
  one wave — a single batched ``act_batch`` forward per synchronized
  step, one batched engine/service evaluation per step, transitions
  flushed into the rollout in episode order, updates at the same
  episode boundaries the sequential loop used.
* **ES** plugs a lane-parallel population scorer into the existing
  ``train_step(evaluate_batch=...)`` seam: the generation's perturbed
  parameter vectors are stacked into a
  :class:`~repro.rl.nn.StackedMLP`, so one batched forward drives all
  concurrently-running members.

With ``lanes=1`` the Trainer consumes every RNG draw-for-draw like the
pre-vectorization sequential loops over the gym envs (kept, verbatim, in
``tests/test_trainer.py`` as the reference the determinism tests compare
against), so Figure 8/9 numbers stay anchored to the seed; more lanes
trade that bit-level anchoring for throughput. The toolchain must carry
an engine or service client: the rollout layer speaks sequences to it
and nothing else (``HLSToolchain(use_engine=False)`` is refused).

Checkpointing (:meth:`save_checkpoint` / :meth:`restore`) captures
policy weights, optimizer moments, the running observation normalizer,
and every RNG stream, so an interrupted run resumed at an update
boundary continues reward-for-reward identically.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry as tm
from ..ir.module import Module
from .es import ESAgent
from .nn import StackedMLP, sample_categorical
from .normalization import RunningNormalizer
from .ppo import Rollout
from .vec_env import make_vector_env

__all__ = ["Trainer", "PruneResult", "prune_spaces"]


@dataclass
class PruneResult:
    """Outcome of the §4 pruning stage: the filtered observation/action
    spaces the pruned agent trains with, plus the forest analysis that
    chose them."""

    feature_indices: Optional[List[int]]
    action_indices: Optional[List[int]]
    analysis: object            # forest.importance.ImportanceAnalysis
    dataset_size: int


def prune_spaces(programs: Sequence[Module], *,
                 top_features: Optional[int] = None,
                 top_passes: Optional[int] = None,
                 episodes: int = 12, episode_length: int = 8,
                 seed: int = 0, lanes: int = 1,
                 toolchain=None) -> PruneResult:
    """The paper's "juggle in random forests" stage as a runnable step:
    collect high-exploration rollouts through the vectorized evaluation
    stack, fit the per-pass random forests, and read off the top-K
    features and/or passes (§4.1/§4.2). The returned index lists plug
    straight into the envs' ``feature_indices``/``action_indices``
    filters; ``select_passes`` keeps ``-terminate`` so pruned agents can
    still end episodes early. Collection always uses per-episode action
    streams, so the chosen spaces are identical at every ``lanes``
    width."""
    from ..forest.importance import analyze_importance, collect_exploration_data

    for knob, value in (("top_features", top_features),
                        ("top_passes", top_passes)):
        if value is not None and value <= 0:
            raise ValueError(f"{knob} must be a positive pruning budget, "
                             f"got {value!r}")
    if episodes <= 0:
        raise ValueError(f"the pruning stage needs a positive exploration "
                         f"budget, got episodes={episodes!r}")
    dataset = collect_exploration_data(programs, episodes=episodes,
                                       episode_length=episode_length,
                                       seed=seed, toolchain=toolchain,
                                       lanes=lanes, episode_streams=True)
    analysis = analyze_importance(dataset, seed=seed)
    feature_indices = (analysis.select_features(top_k=top_features)
                       if top_features is not None else None)
    action_indices = (analysis.select_passes(top_k=top_passes)
                      if top_passes is not None else None)
    return PruneResult(feature_indices=feature_indices,
                       action_indices=action_indices,
                       analysis=analysis, dataset_size=len(dataset))


def _flatten_state(prefix: str, state: dict, arrays: dict, leaves: dict) -> None:
    for key, value in state.items():
        name = f"{prefix}.{key}"
        if isinstance(value, np.ndarray):
            arrays[name] = value
        elif isinstance(value, dict) and key != "rng":
            _flatten_state(name, value, arrays, leaves)
        else:
            leaves[name] = value  # RNG state dicts, optimizer step counts


def _set_nested(state: dict, name: str, value) -> None:
    parts = name.split(".")
    node = state
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


class Trainer:
    """Train one Table-3 configuration through the vectorized stack.

    Parameters
    ----------
    name:            agent configuration (``repro.rl.agents.AGENT_NAMES``).
    programs:        training corpus.
    episodes:        total episode budget (ES rounds it to whole
                     generations of ``2 * population``, like the legacy
                     loop).
    update_every:    policy-gradient update period in episodes.
    lanes:           parallel episode lanes; 1 reproduces the legacy
                     sequential loop draw-for-draw.
    normalize_observations: maintain a :class:`RunningNormalizer` over
                     observation batches and whiten policy inputs
                     (default off — the legacy loops had none).
    es_greedy_eval:  score ES population members with deterministic
                     greedy rollouts instead of sampled actions, drawing
                     each member's program from a stream keyed by its
                     episode index. Makes member trajectories independent
                     of lane count on any corpus.
    prune_features / prune_passes: run the §4 random-forest pruning
                     stage before building the agent — collect
                     exploration data through the vectorized stack, fit
                     the forests, and train on the top-K features and/or
                     passes (the paper's collect → forest → prune →
                     train loop; the analysis lands in ``self.pruning``).
                     ``prune_passes`` shrinks the action space of
                     single-action agents only (PPO3's multi-action env
                     has no action filter).
    prune_episodes:  exploration budget of the pruning stage.
    events_path:     append-only JSONL training-events stream — one
                     record per rollout wave, policy update, and run end,
                     each carrying wall-clock split, reward statistics,
                     cumulative evaluation/sample counts and the engine
                     cache-hit ratio (``REPRO_TRAIN_EVENTS`` is the
                     env-var fallback; ``None`` + unset env disables).
    Remaining keyword arguments go to ``make_agent`` (episode_length,
    observation, feature/action filters, normalization, seed, ...).
    """

    def __init__(self, name: str, programs: Sequence[Module],
                 episodes: int = 20, update_every: int = 2, lanes: int = 1,
                 normalize_observations: bool = False,
                 es_greedy_eval: bool = False,
                 episode_seeding: bool = False,
                 prune_features: Optional[int] = None,
                 prune_passes: Optional[int] = None,
                 prune_episodes: int = 12,
                 events_path: Optional[str] = None,
                 **agent_kwargs) -> None:
        from .agents import make_agent  # agents imports Trainer lazily too

        self.name = name
        if events_path is None:
            events_path = os.environ.get("REPRO_TRAIN_EVENTS") or None
        self.events_path = events_path
        self.episodes = episodes
        self.update_every = update_every
        self.es_greedy_eval = es_greedy_eval
        self.pruning: Optional[PruneResult] = None
        if prune_features is not None or prune_passes is not None:
            if agent_kwargs.get("feature_indices") is not None or \
                    agent_kwargs.get("action_indices") is not None:
                raise ValueError(
                    "explicit feature_indices/action_indices conflict with "
                    "prune_features/prune_passes — pass one or the other")
            if agent_kwargs.get("toolchain") is None:
                from ..toolchain import HLSToolchain

                # materialize the toolchain now so the pruning rollouts
                # warm the same engine/service caches training will use
                agent_kwargs["toolchain"] = HLSToolchain()
            self.pruning = prune_spaces(
                programs, top_features=prune_features, top_passes=prune_passes,
                episodes=prune_episodes,
                episode_length=agent_kwargs.get("episode_length", 12),
                seed=int(agent_kwargs.get("seed", 0)), lanes=lanes,
                toolchain=agent_kwargs["toolchain"])
            agent_kwargs["feature_indices"] = self.pruning.feature_indices
            agent_kwargs["action_indices"] = self.pruning.action_indices
        # Episode-seeded rollouts: episode e draws its program and its
        # actions from a private stream keyed [seed, e] instead of the
        # shared agent/lane generators, so a trajectory does not depend
        # on which lane ran it. With updates aligned to wave boundaries
        # (lanes divides update_every), the whole training run — rewards,
        # best sequence, simulator samples — is lane-count invariant.
        # Default off: the legacy loops' shared-stream semantics.
        self.episode_seeding = episode_seeding
        self.seed = int(agent_kwargs.get("seed", 0))
        env, agent = make_agent(name, programs, **agent_kwargs)
        self.agent = agent
        self.vec = make_vector_env(env, lanes)
        self.normalizer: Optional[RunningNormalizer] = (
            RunningNormalizer(self.vec.observation_dim)
            if normalize_observations else None)

        self.episodes_done = 0
        self.episode_rewards: List[float] = []
        self.best_cycles: Optional[float] = None
        self.best_sequence: List[int] = []
        # transitions awaiting the next policy update — held on the
        # trainer so checkpoints can carry a trailing partial rollout
        self._rollout = Rollout()
        # wall-clock split, filled by train(): the vectorized rollout
        # claim is about "rollout", the optimizer work is lane-invariant.
        self.seconds = {"total": 0.0, "rollout": 0.0, "update": 0.0}

    # -- shared bookkeeping --------------------------------------------------
    @property
    def lanes(self) -> int:
        return self.vec.num_lanes

    def _emit_event(self, event: str, **fields) -> None:
        """Append one record to the training-events JSONL stream (a
        no-op without ``events_path``). Every record carries the shared
        progress columns; one O_APPEND write per record keeps concurrent
        runs sharing a stream torn-line free, like the result store."""
        if self.events_path is None:
            return
        stats = getattr(self.vec.toolchain.engine, "stats", None)
        record = {
            "event": event,
            "agent": self.name,
            "lanes": self.lanes,
            "episodes_done": int(self.episodes_done),
            "evaluations": int(self.vec.evaluations),
            "samples": int(self.vec.toolchain.samples_taken),
            "cache_hit_rate": (round(float(stats.hit_rate), 6)
                               if stats is not None else None),
            "ts": time.time(),
        }
        record.update(fields)
        directory = os.path.dirname(self.events_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        line = json.dumps(record, separators=(",", ":")) + "\n"
        fd = os.open(self.events_path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def _note_best(self, info: Dict) -> None:
        if self.best_cycles is None or info["best_cycles"] < self.best_cycles:
            self.best_cycles = info["best_cycles"]
            self.best_sequence = list(info["best_sequence"])

    def _observe_batch(self, raw_by_key: Dict, keys: Sequence) -> None:
        """Fold a batch of fresh raw observations into the running
        normalizer (one update per wave, not one per lane) and replace
        them with their whitened versions in place."""
        if self.normalizer is None or not keys:
            return
        batch = np.stack([raw_by_key[k] for k in keys])
        self.normalizer.update(batch)
        normed = self.normalizer.normalize(batch)
        for k, row in zip(keys, normed):
            raw_by_key[k] = row

    # -- training entry point ------------------------------------------------
    def train(self) -> "TrainResult":
        from .agents import TrainResult

        self.vec.toolchain.reset_sample_counter()
        start = time.perf_counter()
        if isinstance(self.agent, ESAgent):
            self._train_es()
        else:
            self._train_policy_gradient()
        self.seconds["total"] += time.perf_counter() - start
        self.seconds["update"] = self.seconds["total"] - self.seconds["rollout"]
        best = self.best_cycles
        self._emit_event(
            "train_end",
            seconds={k: round(v, 6) for k, v in self.seconds.items()},
            best_cycles=(int(best) if best is not None else None),
            episode_count=len(self.episode_rewards))
        return TrainResult(
            agent_name=self.name,
            best_cycles=int(best) if best is not None else None,
            best_sequence=list(self.best_sequence),
            # Candidate evaluations — the same unit the sequential envs
            # report, cache hits included (toolchain.samples_taken holds
            # the true simulator-invocation count).
            samples=int(self.vec.evaluations),
            episode_rewards=list(self.episode_rewards),
            agent=self.agent,
            env=self.vec,
        )

    # -- policy-gradient wave loop -------------------------------------------
    def _train_policy_gradient(self) -> None:
        completed = self.episodes_done
        while completed < self.episodes:
            width = min(self.lanes, self.episodes - completed)
            # Each wave is a trace entry point: under REPRO_TELEMETRY=
            # trace the span mints a trace id, and every engine/service
            # span the rollout touches nests under it — one wave, one
            # causal timeline.
            with tm.span("train.wave", episodes=width,
                         completed=completed):
                completed = self._run_wave(completed, width)

    def _run_wave(self, completed: int, width: int) -> int:
        """One batched rollout wave + its episode-boundary updates;
        returns the new completed-episode count."""
        wave_start = time.perf_counter()
        obs: Dict[int, np.ndarray] = {}
        transitions: Dict[int, list] = {i: [] for i in range(width)}
        totals: Dict[int, float] = {i: 0.0 for i in range(width)}
        final_info: Dict[int, Dict] = {}
        episode_rngs: Dict[int, np.random.Generator] = {}
        assignments: Dict[int, Optional[int]] = {}
        for lane_id in range(width):
            program_index = None
            if self.episode_seeding:
                rng = np.random.default_rng([self.seed, completed + lane_id])
                episode_rngs[lane_id] = rng
                program_index = int(rng.integers(len(self.vec.programs)))
            assignments[lane_id] = program_index
        # Batched wave reset; lanes whose base program fails HLS
        # compilation come back omitted — dead episodes, nothing to
        # learn from and no best-candidate update.
        obs.update(self.vec.reset_wave(assignments))
        active = [i for i in range(width) if i in obs]
        self._observe_batch(obs, active)
        while active:
            matrix = np.stack([obs[i] for i in active])
            rngs = ([episode_rngs[i] for i in active]
                    if self.episode_seeding else None)
            actions, log_probs, values = self.agent.act_batch(matrix, rngs=rngs)
            results = self.vec.step_lanes(active, actions)
            fresh: List[int] = []
            for lane_id, action, log_prob, value, step in zip(
                    active, actions, log_probs, values, results):
                next_obs, reward, done, info = step
                transitions[lane_id].append(
                    (obs[lane_id], action, float(log_prob), reward,
                     float(value), done))
                totals[lane_id] += reward
                if done:
                    final_info[lane_id] = info
                else:
                    obs[lane_id] = next_obs
                    fresh.append(lane_id)
            self._observe_batch(obs, fresh)
            active = fresh
        wave_seconds = time.perf_counter() - wave_start
        self.seconds["rollout"] += wave_seconds
        tm.observe("train.rollout.seconds", wave_seconds)
        # Flush in episode order: lane i of this wave is episode
        # ``completed + i``, updates fire at the same episode
        # boundaries the sequential loop used. Dead lanes (base
        # program failed at reset) consume budget but contribute no
        # fabricated reward point.
        for lane_id in range(width):
            for transition in transitions[lane_id]:
                self._rollout.add(*transition)
            if lane_id in final_info:
                self._note_best(final_info[lane_id])
                self.episode_rewards.append(totals[lane_id])
                tm.observe("train.episode_reward", totals[lane_id])
            completed += 1
            self.episodes_done = completed
            if completed % self.update_every == 0 and len(self._rollout):
                transitions_pending = len(self._rollout)
                update_start = time.perf_counter()
                self.agent.update(self._rollout)
                update_seconds = time.perf_counter() - update_start
                tm.observe("train.update.seconds", update_seconds)
                self._emit_event("update",
                                 update_seconds=round(update_seconds, 6),
                                 transitions=transitions_pending)
                self._rollout = Rollout()
        finished = [totals[i] for i in range(width) if i in final_info]
        self._emit_event(
            "wave", wave_seconds=round(wave_seconds, 6), episodes=width,
            reward_mean=(round(sum(finished) / len(finished), 6)
                         if finished else None))
        return completed

    # -- ES generation loop ---------------------------------------------------
    def _train_es(self) -> None:
        agent = self.agent
        population = agent.config.population
        per_generation = 2 * population
        total_generations = max(1, self.episodes // per_generation)
        done_generations = self.episodes_done // per_generation

        def evaluate() -> float:
            # Sequential fallback (train_step only calls it when no batch
            # scorer is given); routes through the same lane machinery.
            return self._score_population([agent.policy.get_flat()])[0]

        for _ in range(done_generations, total_generations):
            agent.train_step(evaluate, evaluate_batch=self._score_population)

    def _score_population(self, thetas) -> List[float]:
        """The ``evaluate_population`` seam, vectorized: score the
        generation's perturbed parameter vectors ``lanes`` at a time.
        Every concurrently-running member holds its own weights, so the
        wave forward runs through a :class:`StackedMLP`; fitness, reward
        history and best-candidate tracking are recorded in member order
        regardless of lane count. In greedy mode member ``m`` also draws
        its program from a stream keyed by its episode index (not by
        which lane runs it), so the whole generation is lane-count
        invariant on any corpus."""
        # ES trace entry point, the generation-scoring analogue of
        # ``train.wave``: one span (and under trace mode, one trace id)
        # per generation, covering every lane-wave it schedules.
        with tm.span("train.generation", members=len(thetas)):
            return self._score_members(thetas)

    def _score_members(self, thetas) -> List[float]:
        agent = self.agent
        fitness = [0.0] * len(thetas)
        dead: List[int] = []
        base_episode = self.episodes_done
        t0 = time.perf_counter()
        for start in range(0, len(thetas), self.lanes):
            members = list(range(start, min(start + self.lanes, len(thetas))))
            stacked = StackedMLP(agent.policy.sizes,
                                 [thetas[m] for m in members])
            obs: Dict[int, np.ndarray] = {}
            totals: Dict[int, float] = {m: 0.0 for m in members}
            final_info: Dict[int, Dict] = {}
            lane_of = {m: i for i, m in enumerate(members)}
            assignments: Dict[int, Optional[int]] = {}
            for m in members:
                program_index = None
                if self.es_greedy_eval:
                    rng = np.random.default_rng([self.seed, base_episode + m])
                    program_index = int(rng.integers(len(self.vec.programs)))
                assignments[lane_of[m]] = program_index
            wave_obs = self.vec.reset_wave(assignments)
            active: List[int] = []
            for m in members:
                if lane_of[m] in wave_obs:
                    obs[m] = wave_obs[lane_of[m]]
                    active.append(m)
                else:  # base program failed HLS compilation: dead member
                    obs[m] = np.zeros(self.vec.observation_dim)
            self._observe_batch(obs, active)
            current, current_count = stacked, len(members)
            while active:
                if len(active) != current_count:
                    # restack to the survivors: stragglers run at
                    # active-lane cost instead of full-wave FLOPs
                    current = StackedMLP(agent.policy.sizes,
                                         [thetas[m] for m in active])
                    current_count = len(active)
                logits = current(np.stack([obs[m] for m in active]))
                if self.es_greedy_eval:
                    actions = np.argmax(logits, axis=-1)
                else:
                    actions = sample_categorical(agent.rng, logits)
                results = self.vec.step_lanes([lane_of[m] for m in active],
                                              actions)
                fresh: List[int] = []
                for m, step in zip(active, results):
                    next_obs, reward, done, info = step
                    totals[m] += reward
                    if done:
                        final_info[m] = info
                    else:
                        obs[m] = next_obs
                        fresh.append(m)
                self._observe_batch(obs, fresh)
                active = fresh
            for m in members:
                if m in final_info:
                    fitness[m] = totals[m]
                    self._note_best(final_info[m])
                    self.episode_rewards.append(totals[m])
                    tm.observe("train.episode_reward", totals[m])
                else:  # base program failed at reset: no fabricated reward
                    dead.append(m)
                self.episodes_done += 1
        if dead:
            # Rank a dead member like the generation's worst real episode
            # rather than injecting a synthetic 0.0 fitness.
            alive = [fitness[m] for m in range(len(thetas)) if m not in dead]
            worst = min(alive) if alive else 0.0
            for m in dead:
                fitness[m] = worst
        rollout_seconds = time.perf_counter() - t0
        self.seconds["rollout"] += rollout_seconds
        tm.observe("train.rollout.seconds", rollout_seconds)
        alive = [fitness[m] for m in range(len(thetas)) if m not in dead]
        self._emit_event(
            "generation_scored", members=len(thetas),
            rollout_seconds=round(rollout_seconds, 6),
            reward_mean=(round(sum(alive) / len(alive), 6) if alive else None))
        return fitness

    # -- checkpointing ---------------------------------------------------------
    def _corpus_fingerprint(self) -> str:
        """Content-addressed identity of the training corpus, so a
        checkpoint can't silently resume onto different programs."""
        import hashlib

        from ..service.fingerprint import program_fingerprint

        digest = hashlib.sha256()
        for program in self.vec.programs:
            digest.update(program_fingerprint(program).encode())
        return digest.hexdigest()[:16]

    def _toolchain_fingerprint(self) -> str:
        """Identity of the evaluation semantics this run trains against
        (pass table, HLS constraints, step budget) — stored in every
        checkpoint so a resume can't silently continue against a
        different pass table, where every learned action index would
        mean a different transform."""
        from ..service.fingerprint import toolchain_fingerprint

        return toolchain_fingerprint(self.vec.toolchain)

    def save_checkpoint(self, path: str) -> None:
        """Persist policy weights + optimizer moments, normalizer state,
        every RNG stream, the pending (not-yet-updated) rollout, and the
        training progress. A resumed run continues exactly when the
        checkpoint's episode count is wave-aligned (``episodes_done %
        lanes == 0``, e.g. ``lanes`` divides the saved ``episodes``);
        otherwise the remaining episodes are repartitioned into
        different waves, which reorders shared-RNG consumption and can
        shift which policy update an episode trains under."""
        arrays: Dict[str, np.ndarray] = {}
        leaves: Dict[str, object] = {}
        _flatten_state("agent", self.agent.state_dict(), arrays, leaves)
        if self.normalizer is not None:
            _flatten_state("normalizer", self.normalizer.state_dict(),
                           arrays, leaves)
        if len(self._rollout):
            # Episodes past the last update boundary must survive the
            # round trip, or they would never contribute a gradient.
            arrays["rollout.observations"] = np.stack(self._rollout.observations)
            arrays["rollout.actions"] = np.stack(self._rollout.actions)
            arrays["rollout.log_probs"] = np.asarray(self._rollout.log_probs)
            arrays["rollout.rewards"] = np.asarray(self._rollout.rewards)
            arrays["rollout.values"] = np.asarray(self._rollout.values)
            arrays["rollout.dones"] = np.asarray(self._rollout.dones,
                                                 dtype=np.int64)
        meta = {
            "name": self.name,
            "lanes": self.lanes,
            "seed": self.seed,
            "corpus": self._corpus_fingerprint(),
            "toolchain": self._toolchain_fingerprint(),
            "episode_length": self.vec.episode_length,
            "update_every": self.update_every,
            "episode_seeding": self.episode_seeding,
            "observation_dim": self.vec.observation_dim,
            "normalize_observations": self.normalizer is not None,
            "episodes_done": self.episodes_done,
            "episode_rewards": [float(r) for r in self.episode_rewards],
            "best_cycles": (None if self.best_cycles is None
                            else float(self.best_cycles)),
            "best_sequence": [int(a) for a in self.best_sequence],
            "evaluations": int(self.vec.evaluations),
            "lane_rngs": self.vec.rng_states(),
            "leaves": leaves,
        }
        # Write-then-rename: an interruption mid-write must never destroy
        # the previous good checkpoint (the CLI auto-resumes from it).
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
        os.replace(tmp_path, path)

    def restore(self, path: str) -> "Trainer":
        """Load a checkpoint saved by :meth:`save_checkpoint` into this
        (identically configured) trainer; ``train()`` then continues
        from the recorded episode count."""
        with np.load(path) as data:
            meta = json.loads(str(data["meta"][()]))
            if meta["name"] != self.name:
                raise ValueError(
                    f"checkpoint is for {meta['name']!r}, trainer is "
                    f"{self.name!r}")
            if meta["lanes"] != self.lanes:
                # Lane RNG streams are positional: silently zipping a
                # different width would break the exact-resume contract.
                raise ValueError(
                    f"checkpoint was saved with lanes={meta['lanes']}, "
                    f"trainer has lanes={self.lanes}")
            saved_corpus = meta.get("corpus")
            if saved_corpus is not None and \
                    saved_corpus != self._corpus_fingerprint():
                raise ValueError(
                    "checkpoint was trained on a different corpus — "
                    "progress and best-sequence bookkeeping would be "
                    "silently mixed between unrelated runs")
            saved_toolchain = meta.get("toolchain")
            if saved_toolchain is not None and \
                    saved_toolchain != self._toolchain_fingerprint():
                raise ValueError(
                    f"checkpoint was trained against toolchain "
                    f"{saved_toolchain[:12]} but this trainer evaluates "
                    f"against {self._toolchain_fingerprint()[:12]} — the "
                    f"pass table, HLS constraints or step budget changed, "
                    f"so resuming would silently train against a different "
                    f"pass table; rebuild the trainer with the original "
                    f"toolchain or start a fresh run")
            if meta.get("seed", self.seed) != self.seed:
                raise ValueError(
                    f"checkpoint was saved with seed={meta['seed']}, "
                    f"trainer has seed={self.seed}")
            for knob, mine in (("episode_length", self.vec.episode_length),
                               ("update_every", self.update_every),
                               ("episode_seeding", self.episode_seeding)):
                saved = meta.get(knob, mine)
                if saved != mine:
                    raise ValueError(
                        f"checkpoint was saved with {knob}={saved}, trainer "
                        f"has {knob}={mine} — the episode structure must "
                        f"match the saved run")
            saved_dim = meta.get("observation_dim")
            if saved_dim is not None and saved_dim != self.vec.observation_dim:
                raise ValueError(
                    f"checkpoint observation space has dimension {saved_dim}, "
                    f"trainer has {self.vec.observation_dim} — observation "
                    f"mode / feature filters must match the saved run")
            if meta.get("normalize_observations", False) != \
                    (self.normalizer is not None):
                raise ValueError(
                    "checkpoint and trainer disagree on "
                    "normalize_observations — the running statistics would "
                    "be silently dropped")
            state: Dict = {}
            for key in data.files:
                if key != "meta":
                    _set_nested(state, key, data[key])
        for key, value in meta["leaves"].items():
            _set_nested(state, key, value)
        self.agent.load_state_dict(state["agent"])
        if self.normalizer is not None and "normalizer" in state:
            self.normalizer.load_state_dict(state["normalizer"])
        self._rollout = Rollout()
        if "rollout" in state:
            pending = state["rollout"]
            for i in range(len(pending["rewards"])):
                self._rollout.add(pending["observations"][i],
                                  pending["actions"][i],
                                  float(pending["log_probs"][i]),
                                  float(pending["rewards"][i]),
                                  float(pending["values"][i]),
                                  bool(pending["dones"][i]))
        self.vec.set_rng_states(meta["lane_rngs"])
        self.episodes_done = int(meta["episodes_done"])
        self.episode_rewards = [float(r) for r in meta["episode_rewards"]]
        self.best_cycles = meta["best_cycles"]
        self.best_sequence = [int(a) for a in meta["best_sequence"]]
        self.vec.evaluations = int(meta["evaluations"])
        return self
