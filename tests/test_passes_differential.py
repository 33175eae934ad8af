"""Property-based differential testing: the master correctness harness.

For arbitrary generator seeds and arbitrary pass sequences, the
observable behaviour (return value, output stream, external-global
memory) must be invariant and the IR must stay verifier-clean. This is
the single most load-bearing test in the repository: it is how every
pass proves semantic preservation in combination with every other pass.
Every pass run here is also held to the ``changed`` contract the
engine's trie rests on (``run_passes_checked``: ``False`` means the
module is exactly as it was).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.interp import run_module
from repro.ir import verify_module
from repro.passes import PASS_TABLE
from repro.programs import chstone
from repro.programs.generator import RandomProgramGenerator, passes_hls_filter
from repro.toolchain import clone_module
from tests.conftest import run_passes_checked

_TRANSFORMS = [n for n in dict.fromkeys(PASS_TABLE) if n != "-terminate"]
_MAX_STEPS = 3_000_000

# Cache generated programs per seed so hypothesis shrinking stays fast.
_PROGRAM_CACHE = {}


def _program(seed: int):
    if seed not in _PROGRAM_CACHE:
        module = RandomProgramGenerator(seed).generate(name=f"hyp{seed}")
        ok = passes_hls_filter(module)
        ref = run_module(module, max_steps=_MAX_STEPS).observable() if ok else None
        _PROGRAM_CACHE[seed] = (module, ok, ref)
    return _PROGRAM_CACHE[seed]


@st.composite
def pass_sequences(draw):
    length = draw(st.integers(min_value=1, max_value=10))
    return [draw(st.sampled_from(_TRANSFORMS)) for _ in range(length)]


class TestRandomProgramsRandomSequences:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.data_too_large])
    @given(seed=st.integers(min_value=0, max_value=25), seq=pass_sequences())
    def test_observable_behaviour_invariant(self, seed, seq):
        base, ok, ref = _program(seed)
        if not ok:
            return  # the paper's filter would have dropped it
        m = clone_module(base)
        run_passes_checked(m, seq)
        verify_module(m)
        assert run_module(m, max_steps=_MAX_STEPS).observable() == ref

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=25))
    def test_clone_module_is_faithful(self, seed):
        base, ok, ref = _program(seed)
        if not ok:
            return
        clone = clone_module(base)
        verify_module(clone)
        assert run_module(clone, max_steps=_MAX_STEPS).observable() == ref
        # and the clone is independent: optimizing it leaves the base alone
        run_passes_checked(clone, ["-mem2reg", "-simplifycfg"])
        assert run_module(base, max_steps=_MAX_STEPS).observable() == ref


class TestBenchmarksUnderSequences:
    """The nine kernels under targeted loop-pipeline orderings."""

    SEQUENCES = [
        ["-mem2reg", "-loop-rotate", "-loop-unroll", "-simplifycfg", "-adce"],
        ["-sroa", "-early-cse", "-licm", "-gvn", "-dse"],
        ["-inline", "-mem2reg", "-sccp", "-simplifycfg", "-instcombine"],
        ["-tailcallelim", "-mem2reg", "-loop-simplify", "-loop-rotate", "-licm",
         "-loop-idiom", "-gvn", "-adce", "-simplifycfg"],
        ["-lowerswitch", "-break-crit-edges", "-jump-threading", "-simplifycfg",
         "-correlated-propagation", "-sccp"],
        ["-mem2reg", "-reassociate", "-loop-reduce", "-indvars", "-lcssa",
         "-loop-unswitch", "-simplifycfg", "-adce"],
        ["-ipsccp", "-deadargelim", "-globalopt", "-globaldce", "-constmerge",
         "-memcpyopt", "-dse"],
    ]

    @pytest.mark.parametrize("name", chstone.BENCHMARK_NAMES)
    def test_sequences_preserve_benchmark(self, benchmarks, name):
        base = benchmarks[name]
        ref = run_module(base, max_steps=_MAX_STEPS).observable()
        for seq in self.SEQUENCES:
            m = clone_module(base)
            run_passes_checked(m, seq)
            verify_module(m)
            got = run_module(m, max_steps=_MAX_STEPS).observable()
            assert got == ref, f"{name} broken by {seq}"

    @pytest.mark.parametrize("name", chstone.BENCHMARK_NAMES)
    def test_idempotent_double_application(self, benchmarks, name):
        """Applying a sequence twice must also be safe (the RL agent
        repeats passes freely)."""
        base = benchmarks[name]
        ref = run_module(base, max_steps=_MAX_STEPS).observable()
        seq = self.SEQUENCES[0] * 2
        m = clone_module(base)
        run_passes_checked(m, seq)
        verify_module(m)
        assert run_module(m, max_steps=_MAX_STEPS).observable() == ref
