"""No module imports a name it never uses, the package defines none that nothing reads,
and only its complex channel imports numpy.

No linter is among the test dependencies, so this reads each module's syntax
tree with the standard library's ``ast``. Every name an ``import`` binds
must be read somewhere in its module, as a name or as the base of an
attribute. Every function, class and assigned name at the top level of a
package module must be read somewhere in the package, as a name, an
attribute, an imported name or a string, or be public: the keys of
``dpcfocus._HOME_OF``, which make up ``dpcfocus.__all__``, are such strings.
The tests do not count as readers, since a name only they read belongs in
the tests. Dunder names are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dpcfocus").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def top_level_names(source: str) -> list[tuple[int, str]]:
    "(line, name) of each function, class and assigned name at the top level of ``source``."
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined += [(node.lineno, name) for name in names
                    if not (name.startswith("__") and name.endswith("__"))]
    return defined


def names_read(source: str) -> set[str]:
    "Every name ``source`` reads: as a name, an attribute, an imported name or a string."
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def dead_names(source: str, readers) -> list[tuple[int, str]]:
    "(line, name) of each top-level name of ``source`` that none of the sources ``readers`` reads."
    read = set().union(*map(names_read, readers))
    return [(line, name) for line, name in top_level_names(source) if name not in read]


def test_the_check_finds_a_dead_name():
    source = "import math\nA = 1\nB: int = 2\n__all__ = []\ndef f():\n    return g\n"
    source += "def g():\n    return math.pi\nclass C:\n    pass\n"
    reader = "from m import f\nx = {'B': 1}\n"
    assert dead_names(source, [source, reader]) == [(2, "A"), (9, "C")]
    assert dead_names(source, [source, reader, "import m\nm.A, m.C\n"]) == []


@pytest.mark.parametrize(
    "source, names",
    [
        ("def f():\n    pass\n", ["f"]),
        ("async def f():\n    pass\n", ["f"]),
        ("class C:\n    pass\n", ["C"]),
        ("A = 1\n", ["A"]),
        ("A: int = 1\n", ["A"]),
        ("A, (B, C) = 1, (2, 3)\n", ["A", "B", "C"]),
        ("A = B = 1\n", ["A", "B"]),
    ],
    ids=["function", "async-function", "class", "assign", "annotated", "unpacked", "chained"],
)
def test_the_check_flags_each_kind_of_definition(source, names):
    assert dead_names("\n" * 2 + source, []) == [(3, name) for name in names]


@pytest.mark.parametrize(
    "reader",
    [
        "print(A)\n",
        "import m\nm.A\n",
        "from m import A\n",
        "HOME = {'A': 'm'}\n",
        "def g():\n    def h():\n        return A\n    return h\n",
    ],
    ids=["name", "attribute", "imported-name", "string-key", "nested-read"],
)
def test_the_check_counts_each_kind_of_read(reader):
    assert dead_names("A = 1\n", [reader]) == []


@pytest.mark.parametrize(
    "reader",
    ["A = 2\n", "def A():\n    pass\n", "f(A=1)\n", "del A\n"],
    ids=["store", "redefinition", "keyword", "delete"],
)
def test_the_check_does_not_count_what_is_not_a_read(reader):
    assert dead_names("A = 1\n", [reader]) == [(1, "A")]


def test_the_check_exempts_dunders_and_names_below_the_top_level():
    source = "__all__ = []\n__version__: str = '1'\nclass C:\n    X = 1\n    def m(self):\n"
    source += "        y = 2\n        return y\n"
    assert dead_names(source, [source]) == [(3, "C")]


def package_dead_names(path: Path, source: str) -> list[tuple[int, str]]:
    "``dead_names`` of ``source``, standing for the package module ``path``, read by the package."
    return dead_names(source, [source] + [module.read_text() for module in PACKAGE
                                          if module != path])


def test_the_check_flags_a_leftover_series_width_in_channel():
    # the fixed-point width the run-time pattern series used, left behind once the
    # series became a constant, is read by nothing
    channel = ROOT / "src" / "dpcfocus" / "channel.py"
    source = channel.read_text() + "\n_SERIES_BITS = 600\n"
    assert package_dead_names(channel, source) == [(source.count("\n"), "_SERIES_BITS")]


def test_the_check_flags_a_name_only_the_tests_read():
    # the config echo's renderer, read by test_cli.py alone, belongs there
    cli = ROOT / "src" / "dpcfocus" / "cli.py"
    stub = "\n\ndef mapping_to_config_text(mapping):\n    return ''\n"
    source = cli.read_text() + stub
    line = source.count("\n") - 1
    assert "mapping_to_config_text" in names_read((ROOT / "tests" / "test_cli.py").read_text())
    assert package_dead_names(cli, source) == [(line, "mapping_to_config_text")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_dead_names(path):
    assert package_dead_names(path, path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    "The top-level package of each module that ``source`` imports."
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_check_finds_each_form_of_a_numpy_import():
    for source in ("import numpy as np\n", "import numpy.linalg\n", "from numpy import ones\n",
                   "def f():\n    import numpy\n"):
        assert "numpy" in imported_modules(source)
    assert "numpy" not in imported_modules("from . import numpy_like\nimport numbers\n")


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_only_the_complex_channel_imports_numpy(path):
    # the library runs on the standard library and its compiled kernel; numpy is the
    # tests' and the complex channel's, the reference route no run loads
    assert ("numpy" in imported_modules(path.read_text())) == (path.name == "channel.py")
