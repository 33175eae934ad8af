"""The contract the evaluation engine's no-op-aware trie rests on.

``Pass.run`` / ``PassManager.run`` returning ``False`` must mean the
module is *exactly* as it was: the engine drops such a pass from the key
of every result, failure sentinel and feature vector (``engine/trie.py``),
so a pass that mutates and still says ``False`` turns into stale cache
hits. First tier-1 slice of ROADMAP open item 1's fuzz campaign: every
registry pass x the nine CHStone programs and a dozen generated ones
(default generator config, so ``invoke`` appears) x states reached by
random prefixes with repeated passes. Fixed seeds.
"""

import random

import pytest

from repro.ir.instructions import InvokeInst
from repro.passes import PASS_TABLE, PassManager
from repro.programs import chstone
from repro.programs.generator import RandomProgramGenerator, passes_hls_filter
from repro.toolchain import clone_module
from tests.conftest import module_state, run_passes_checked

_TRANSFORMS = [n for n in dict.fromkeys(PASS_TABLE) if n != "-terminate"]
_GENERATED = 12
_STATES = 2  # per program, besides the unoptimized one


@pytest.fixture(scope="module")
def generated():
    corpus, seed = [], 100
    while len(corpus) < _GENERATED:
        module = RandomProgramGenerator(seed).generate(name=f"contract{seed}")
        if passes_hls_filter(module):
            corpus.append(module)
        seed += 1
    assert any(isinstance(inst, InvokeInst) for module in corpus
               for func in module.defined_functions()
               for bb in func.blocks for inst in bb.instructions)
    return corpus


def _check_every_pass(base, seed):
    """At the unoptimized program and at ``_STATES`` states behind random
    prefixes (drawn with replacement from a small pool, so passes repeat):
    every registry pass, each on its own clone of the state."""
    rng = random.Random(seed)
    for state_index in range(_STATES + 1):
        state = clone_module(base)
        if state_index:
            pool = rng.sample(_TRANSFORMS, 6)
            run_passes_checked(
                state, [rng.choice(pool) for _ in range(rng.randint(3, 12))])
        # every clone of one state prints the same, so one dump serves
        before = module_state(clone_module(state))
        for name in _TRANSFORMS:
            module = clone_module(state)
            if not PassManager().run(module, [name]):
                assert module_state(module) == before, \
                    f"{name} returned False but changed the module"


@pytest.mark.parametrize("name", chstone.BENCHMARK_NAMES)
def test_unchanged_means_identical_on_chstone(benchmarks, name):
    _check_every_pass(benchmarks[name], seed=chstone.BENCHMARK_NAMES.index(name))


@pytest.mark.parametrize("index", range(_GENERATED))
def test_unchanged_means_identical_on_generated(generated, index):
    _check_every_pass(generated[index], seed=1000 + index)


def test_metadata_only_passes_report_their_change(generated):
    """``-strip``/``-strip-nondebug`` mutate nothing the printer shows;
    they must still say ``True`` — and ``False`` once nothing is left."""
    module = clone_module(generated[0])
    assert module.metadata
    assert run_passes_checked(module, ["-strip"])
    assert not run_passes_checked(module, ["-strip", "-strip-nondebug"])
