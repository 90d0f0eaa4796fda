"""No module of the package or of its tests imports a name it never uses.

No linter is among the test dependencies, so this reads each module's syntax
tree with the standard library's ``ast``: every name an ``import`` binds
must be read somewhere in the module, as a name or as the base of an
attribute.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "dpcfocus").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    "(line, name) of each imported name that ``source`` never reads, by line."
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_finds_an_unused_import():
    source = "import cmath\nimport math\nimport os.path\nfrom a import b as c, d\n"
    source += "def f():\n    return math.pi, os.path.sep, d\n"
    assert unused_imports(source) == [(1, "cmath"), (4, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
