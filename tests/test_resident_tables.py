"""Every table that outlives a call into quiltops, pinned by name.

A memo table keeps what it holds for the life of the process, so each
one is a deliberate choice: a new one must be added to the list below.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quiltops"

_CACHES = {"lru_cache", "cache"}
_WRITES = {"setdefault", "update", "pop", "popitem", "clear", "add", "append", "extend",
           "insert", "discard", "remove", "__setitem__"}
_CONTAINERS = {"dict", "set", "list", "defaultdict", "OrderedDict"}


def _names(node):
    return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}


def _resident_tables(source):
    """(name, kind) in source order: every function under a cache decorator
    and every module-level name bound to a cache ("lru_cache"), and every
    module-level dict, set or list that some statement writes into by
    subscript or by a mutating method ("table")."""
    module = ast.parse(source)
    found, containers = [], {}
    for node in ast.walk(module):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and any(_names(d) & _CACHES for d in node.decorator_list)):
            found.append((node.lineno, node.name, "lru_cache"))
    for node in module.body:
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        value = node.value
        if _names(value) & _CACHES:
            found += [(node.lineno, t, "lru_cache") for t in targets]
        elif (isinstance(value, (ast.Dict, ast.Set, ast.List))
              or isinstance(value, ast.Call) and _names(value.func) & _CONTAINERS):
            containers.update((t, node.lineno) for t in targets)
    written = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            written.add(getattr(node.value, "id", None))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _WRITES):
            written.add(getattr(node.func.value, "id", None))
    found += [(line, name, "table") for name, line in containers.items() if name in written]
    return [(name, kind) for _, name, kind in sorted(found)]


def test_detector_finds_each_kind_of_resident_table():
    source = """
import functools
from functools import lru_cache

shared = lru_cache(maxsize=None)(tuple)
LABELS = {"a": 1}
TABLE = {}
SEEN = set()
ROWS = []


@functools.cache
def f(x):
    local = {}
    local[x] = 1
    return local


@lru_cache(maxsize=None)
def g(x):
    ROWS.append(x)
    return LABELS[x]


def h(x):
    SEEN.add(x)
    TABLE[x] = x
"""
    assert _resident_tables(source) == [
        ("shared", "lru_cache"), ("TABLE", "table"), ("SEEN", "table"), ("ROWS", "table"),
        ("f", "lru_cache"), ("g", "lru_cache")]


def test_resident_tables_are_pinned():
    # the tree caches of trees.py and quilts.py are gone: enumerate_quilts
    # shares trees through a per-call orbit table
    paths = sorted(SRC.glob("*.py"))
    assert paths
    tables = [(path.name, name, kind) for path in paths
              for name, kind in _resident_tables(path.read_text())]
    assert tables == [
        ("cochains.py", "_delta_H_element", "lru_cache"),
        ("linfty.py", "P0_m", "lru_cache"), ("linfty.py", "P_full", "lru_cache"),
        ("mquilt.py", "_families", "lru_cache"), ("mquilt.py", "_ECHELONS", "table"),
        ("mquilt.py", "_NORMAL_FORMS", "table"), ("mquilt.py", "m_element", "lru_cache"),
        ("mquilt.py", "delta_element", "lru_cache"),
        ("mquilt.py", "gerstenhaber_element", "lru_cache"),
        ("rings.py", "_FP_CACHE", "table")]
