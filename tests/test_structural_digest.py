"""Cache keys are 16-byte digests of the structural key tuples.

Every key-addressed cache — schedules, kernels, block plans, features,
execution signatures — keys a function body on
``module_structural_keys``, which returns a blake2b digest of
``repr(structural_key(func))``. The tuple stays the definition of body
equality, so the digest must partition function bodies exactly as the
tuples do: equal tuples give equal digests (a split would only cost cache
hits), and equal digests come from equal tuples (a merge would be a stale
hit). The digests must not depend on the process's string hash seed, and
the persistent store's program fingerprints, which hash the tuples, must
not move.
"""

import os
import random
import subprocess
import sys

from repro.hls.hashing import module_structural_keys, structural_key
from repro.passes import PASS_TABLE, PassManager
from repro.programs.chstone import BENCHMARK_NAMES, build
from repro.programs.generator import generate_corpus
from repro.service.fingerprint import program_fingerprint
from repro.toolchain import clone_module

# program_fingerprint of each CHStone program, as built: the store's
# shard names derive from these.
_FINGERPRINTS = {
    "adpcm": "ba1af6e6ce53c20a066ca2ed31208991e3f2329fed828d3d99141130e2001fc0",
    "aes": "c6fb065153b41410ad2821ae562ea0f2922dfc87a0c7038c10fb96a43c6dbea7",
    "blowfish": "93033acea41f5be06e4a501e9fa2e7f1bb5a0d00226c841a1d3310941930d70b",
    "dhrystone": "9a5be0e90ea2d0948d1b1cfeaff867e4acce672b290028c9b8a467a5e63fc399",
    "gsm": "23aa5c46906148d5a032e841954a7fd03383ea11e45b4b37ec7056d976be008a",
    "matmul": "324636fe27bf3c0f179526354615ad83a6ca0d5e83a180799147462db3cc548e",
    "mpeg2": "84313e97134e5a3a83ddd8bc63599b4419f9c521d0f4696a775774fe31501dda",
    "qsort": "9d611fc75783ff70c03f56bab68256b47ad88e1cc52818513bbfba97af72afa5",
    "sha": "db930db07cffadee750a373e1de06411071275ff9ea1d1b54c765a209122780f",
}

_PRINT_CHSTONE_DIGESTS = """
from repro.hls.hashing import module_structural_keys
from repro.programs.chstone import BENCHMARK_NAMES, build
for name in BENCHMARK_NAMES:
    for func, key in module_structural_keys(build(name)).items():
        print(name, func.name, key.hex())
"""


def _states():
    """Module states: the nine CHStone programs and both smoke corpora,
    each behind 6 random sequences of up to 20 passes (every
    intermediate state). Fixed seed."""
    rng = random.Random(39)
    transforms = [n for n in dict.fromkeys(PASS_TABLE) if n != "-terminate"]
    bases = ([build(name) for name in BENCHMARK_NAMES] + generate_corpus(6, seed=0)
             + generate_corpus(8, seed=10_000))
    for base in bases:
        for _ in range(6):
            module = clone_module(base)
            yield module
            for name in rng.choices(transforms, k=rng.randint(1, 20)):
                if PassManager().run(module, [name]):
                    yield module


def test_digests_partition_bodies_exactly_as_the_tuples_do():
    digest_of = {}  # structural_key tuple -> digest
    tuple_of = {}  # digest -> structural_key tuple
    states = 0
    for module in _states():
        states += 1
        keys = module_structural_keys(module)
        assert list(keys) == list(module.defined_functions())
        clone_keys = module_structural_keys(clone_module(module))
        assert list(clone_keys.values()) == list(keys.values())
        for func, digest in keys.items():
            assert type(digest) is bytes and len(digest) == 16
            key = structural_key(func)
            assert digest_of.setdefault(key, digest) == digest, func.name
            assert tuple_of.setdefault(digest, key) == key, func.name
    assert len(digest_of) == len(tuple_of) > 600
    assert states > 600


def test_digests_do_not_depend_on_the_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.append(subprocess.run(
            [sys.executable, "-c", _PRINT_CHSTONE_DIGESTS], env=env,
            capture_output=True, text=True, check=True).stdout)
    assert outputs[0] == outputs[1]
    here = "".join(f"{name} {func.name} {key.hex()}\n" for name in BENCHMARK_NAMES
                   for func, key in module_structural_keys(build(name)).items())
    assert outputs[0] == here


def test_program_fingerprints_are_pinned():
    assert {name: program_fingerprint(build(name))
            for name in BENCHMARK_NAMES} == _FINGERPRINTS
