"""The product imports the standard library and numpy, nothing else.

A fresh interpreter imports every public layer; each top-level module it
loads beyond what the bare interpreter already had must be stdlib,
numpy or repro itself. A heavy dependency that slips back in (a graph
library once cost every process ~14 MB and ~0.2 s of start-up for call
graphs of four nodes) fails here.
"""

import json
import os
import subprocess
import sys

_LAYERS = ("repro", "repro.engine", "repro.service", "repro.deploy",
           "repro.rl.trainer", "repro.search", "repro.experiments")

_PROBE = f"""
import importlib, json, sys
bare = {{name.partition(".")[0] for name in sys.modules}}
for layer in {_LAYERS!r}:
    importlib.import_module(layer)
loaded = {{name.partition(".")[0] for name in sys.modules}} - bare
print(json.dumps(sorted(loaded)))
"""


def test_only_stdlib_and_numpy_are_imported():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert "repro" in loaded and "numpy" in loaded
    foreign = [name for name in loaded
               if name not in sys.stdlib_module_names and name not in ("numpy", "repro")]
    assert foreign == []
