"""No module under ``src/`` imports a name it never uses.

A stdlib ``ast`` scan (no linter is installed or needed): a name bound by
an ``import`` counts as used when the module reads it anywhere — code,
annotations (string ones included) — or lists it in ``__all__``. What a
module imports on purpose without reading it is named in ``_ALLOWED``
with the reason.
"""

import ast
import pathlib

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# path under src/ -> (names imported for a side effect or re-export, why)
_ALLOWED = {
    "repro/passes/__init__.py": (
        {"adce", "codegenprepare", "correlated_propagation", "deadargelim",
         "dse", "earlycse", "functionattrs", "globals_opt", "gvn", "indvars",
         "inline", "instcombine", "ipsccp", "jump_threading", "lcssa", "licm",
         "loop_deletion", "loop_idiom", "loop_reduce", "loop_rotate",
         "loop_simplify", "loop_unroll", "loop_unswitch", "lowering",
         "mem2reg", "memcpyopt", "reassociate", "scalarrepl", "sccp",
         "simplifycfg", "sink", "strip", "tailcallelim"},
        "importing a pass module runs its @register_pass decorators, which "
        "fill the pass registry"),
}


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str):
    """``(line, name)`` of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expr = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, not a type
                    continue
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from typing import List, Literal, Optional, TYPE_CHECKING\n"
        "from .a import b as c, d, e, f\n"
        "if TYPE_CHECKING:\n"
        "    from .m import Module\n"
        "__all__ = ['d']\n"
        "x: List[int] = []\n"
        "def g(m: 'Optional[Module]') -> None:\n"
        "    return np.zeros(c)\n"
        "def h(mode: Literal['a b']) -> None: ...\n"
    )
    assert unused_imports(source) == [(2, "os"), (5, "e"), (5, "f")]


def test_src_has_no_unused_imports():
    found = {}
    for path in sorted(_SRC.rglob("*.py")):
        rel = path.relative_to(_SRC).as_posix()
        allowed = _ALLOWED.get(rel, (set(), ""))[0]
        names = [f"{name} (line {line})" for line, name in unused_imports(path.read_text())
                 if name not in allowed]
        if names:
            found[rel] = names
    assert found == {}


def test_allowlist_is_still_needed():
    for rel, (names, reason) in _ALLOWED.items():
        assert reason
        unused = {name for _, name in unused_imports((_SRC / rel).read_text())}
        assert names <= unused, f"{rel}: {sorted(names - unused)} are used now"
