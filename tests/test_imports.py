"""Package hygiene: every name a source module imports is used in it,
no source module reaches for another one's underscore names, every error
type the package declares is raised by one of its modules, every name
the package exports is used outside the unit tests, and every field of
its dataclasses is read there."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "torusmf"
# the package's own imports are its public names, used by its importers
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no expression reads."""
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
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_finds_an_unused_import():
    source = ("from dataclasses import dataclass, field\n"
              "import numpy as np\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(source) == [(1, "field")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_reaches(source: str) -> list[tuple[int, str]]:
    """(line, name) of each underscore name, dunders aside, that
    ``source`` imports from a torusmf module or reads as an attribute of
    one it imports whole."""
    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("torusmf")):
            found += [(node.lineno, a.name) for a in node.names
                      if private(a.name)]
            if node.module in (None, "torusmf"):
                modules |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name.split(".")[0] for a in node.names
                        if a.name.split(".")[0] == "torusmf"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_finds_a_private_reach():
    source = ("from numpy.linalg._umath_linalg import solve1 as _lu\n"
              "from . import __version__, density as dens\n"
              "from .flow import RecordPolicy, _modes\n"
              "import torusmf.io\n"
              "dens._check(1)\nRecordPolicy._cache\n"
              "torusmf.io._helper\nself._x\n")
    assert private_reaches(source) == [(3, "_modes"), (5, "dens._check"),
                                       (7, "torusmf.io._helper")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_reach_into_another_module(path):
    # a helper another module needs is public in its own module
    assert private_reaches(path.read_text()) == []


def unraised_errors(errors: str, modules: list[str]) -> list[str]:
    """Classes of ``errors`` derived, at any depth, from TorusMFError that
    no ``raise`` statement of ``modules`` names."""
    found = {"TorusMFError"}
    for node in ast.parse(errors).body:  # a base comes before its subclasses
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in found for b in node.bases):
            found.add(node.name)
    for node in (n for m in modules for n in ast.walk(ast.parse(m))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = getattr(node.exc, "func", node.exc)
            found.discard(getattr(exc, "id", getattr(exc, "attr", None)))
    return sorted(found - {"TorusMFError"})


def test_finds_an_error_type_nothing_raises():
    errors = ("class TorusMFError(Exception): pass\n"
              "class A(TorusMFError): pass\nclass B(A): pass\n")
    module = "def f(x):\n    raise errors.A('a')\n"
    assert unraised_errors(errors, [module, "raise ValueError"]) == ["B"]


def test_every_error_type_is_raised():
    assert unraised_errors((SRC / "errors.py").read_text(),
                           [p.read_text() for p in MODULES]) == []


ROOT = SRC.parents[1]
#: where a package name counts as used: its modules (the definition itself
#: is no use), the demos, the benchmark and the acceptance criteria
USERS = [p.read_text() for p in [*MODULES, *ROOT.glob("demos/*.py"),
                                 *ROOT.glob("perfbench/*.py"),
                                 ROOT / "tests" / "test_acceptance.py"]]


def used_names(source: str) -> set[str]:
    """Names that ``source`` reads bare, imports from torusmf, or reads as
    an attribute of a torusmf module: one the source imports from the
    package, or ``tm``, the name that the tests, the demos and the
    benchmark (as a parameter) give the package."""
    tree = ast.parse(source)
    modules, used = {"tm"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name.split(".")[0] == "torusmf"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("torusmf")):
            used |= {a.name for a in node.names}
            modules |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                used.add(node.attr)
    return used


def unused_exports(init: str, users: list[str]) -> list[str]:
    """Names that the package ``init`` imports from its modules and that
    no source of ``users`` uses."""
    exports = {a.asname or a.name for node in ast.parse(init).body
               if isinstance(node, ast.ImportFrom) and node.level
               for a in node.names}
    return sorted(exports.difference(*map(used_names, users)))


def test_finds_an_export_only_tests_use():
    init = "from .a import f, g, h, k, n\n"
    users = ["def f(): pass\ndef g(): pass\nh = k = n = 1\nprint(n)\n",
             "import numpy as np\nfrom . import a as mod\nmod.g()\nnp.h()\n",
             "import torusmf as tm\nk = tm.a.k\n"]
    assert unused_exports(init, users) == ["f", "h"]


def test_no_test_only_exports():
    assert unused_exports((SRC / "__init__.py").read_text(), USERS) == []


def unread_fields(modules: list[str], users: list[str],
                  exempt: frozenset[str] = frozenset()) -> list[str]:
    """``Class.field`` of each field of a ``@dataclass`` in ``modules``
    (outside the ``exempt`` classes) whose name no source of ``users``
    reads as an attribute.

    The check goes by name alone, so it misses a field read only to be
    copied into another instance of its class (as the ``renormalized``
    flag of ``Density`` once was) and a field whose name another class's
    read attribute shares (as ``ParticleTrajectory``'s ``meta`` shared
    ``FlowTrace.meta``).
    """
    fields = []
    for node in (n for m in modules for n in ast.walk(ast.parse(m))):
        if isinstance(node, ast.ClassDef) and node.name not in exempt and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            fields += [(node.name, f.target.id) for f in node.body
                       if isinstance(f, ast.AnnAssign)]
    read = {node.attr for u in users for node in ast.walk(ast.parse(u))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return sorted(f"{c}.{f}" for c, f in fields if f not in read)


def test_finds_an_unread_field():
    module = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n"
              "@dataclass\nclass B:\n    z: int\n"
              "class C:\n    v: int\n")
    users = ["def f(a):\n    a.y = a.x\n    return B(z=1)\n"]
    assert unread_fields([module], users) == ["A.y", "B.z"]
    assert unread_fields([module], users, frozenset({"B"})) == ["A.y"]


def test_every_dataclass_field_is_read():
    # ``cmd_verify`` writes a SuiteReport whole, through its ``__dict__``
    assert unread_fields([p.read_text() for p in MODULES], USERS,
                         frozenset({"SuiteReport"})) == []


def test_flow_oracles_build_their_own_symbols():
    # the critical flow's oracles build their transport symbols from the
    # kernel spectrum, so a wrong factor in the flow's symbols cannot move
    # the flow and its oracle together; they take the step and its tables
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    taken = set()
    for node in ast.walk(oracles):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        names = {a.name for a in node.names}
        module = getattr(node, "module", None)
        if module == "torusmf.flow":
            taken |= names
        elif module == "torusmf":
            assert "flow" not in names
        else:
            assert "torusmf.flow" not in names
    assert taken == {"_PHI3_SERIES", "_etd_tables", "_Split"}
