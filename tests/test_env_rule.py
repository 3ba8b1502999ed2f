"""No module of the package reads the process environment: every setting
is a command-line option or a spec-file field, so a report depends only
on its command line and its files.  A new environment knob has to be
added here deliberately."""

import ast
from pathlib import Path

import ncspacetime

SRC = Path(ncspacetime.__file__).resolve().parent
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in ENV_NAMES:
                reads.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert reads == []
