"""No computed result is cached between requests: the only functools
caches in the package hold the frozen clean bracket tables and the
argparse parser.  A request must not get faster only because an earlier
one computed the same value."""

import ast
from pathlib import Path

import ncspacetime

SRC = Path(ncspacetime.__file__).resolve().parent
CACHES = {"lru_cache", "cache", "cached_property"}
ALLOWED = {"algebra._deformed_table", "algebra._so6_table",
           "cli._build_parser"}


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_only_the_shared_tables_and_the_parser_are_cached():
    decorated, uses = set(), 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) \
                    and _name(node) in CACHES:
                uses += 1
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_name(d) in CACHES for d in node.decorator_list):
                    decorated.add(f"{path.stem}.{node.name}")
    assert decorated == ALLOWED
    # every other mention (a call such as lru_cache()(f)) would be a cache
    # the decorator scan misses
    assert uses == len(decorated)
