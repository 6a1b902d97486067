"""Source rules that no linter enforces here: every module-level import
is used, imports sit at module level, checks raise exceptions instead of
using ``assert`` (which ``python -O`` strips), importing the command
line does not load scipy, which is not a dependency, every public
function, method and class is used in the package itself (a short list
of functions that only tests call aside), and the term layout of a
polynomial form stays inside ``forms``.  The command line maps only
input faults to exit 2.  The layers import one way: the data and
identities over Q (``flatsys``) know nothing of forms, and the instance
generator and the smoothing each reach only the layer they need."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "flatforms"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(node):
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = _tree(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in _bound_names(node):
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert unused == []


def _package_imports(path):
    """The package modules that ``path`` imports at module level."""
    return {node.module for node in _tree(path).body
            if isinstance(node, ast.ImportFrom) and node.level == 1}


@pytest.mark.parametrize("module, forbidden", [
    ("flatsys", {"forms", "mixed"}),
    ("instances", {"forms", "mixed"}),
    ("smoothing", {"flatsys"}),
], ids=["flatsys", "instances", "smoothing"])
def test_layering(module, forbidden):
    assert _package_imports(SRC / f"{module}.py") & forbidden == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_module_level(path):
    tree = _tree(path)
    top = {id(node) for node in tree.body}
    nested = sorted(node.lineno for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and id(node) not in top)
    assert nested == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = sorted(node.lineno for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Assert))
    assert lines == []


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import flatforms.cli, sys; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def _names(tree, skip=None):
    """Every identifier named in ``tree``, outside the subtree ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        stack.extend(ast.iter_child_nodes(node))


# public functions with no caller in src, kept because the acceptance
# criteria and the tests call them
TEST_API = {
    "phibar", "partition_linear", "vertex_linearization", "lyapunov_rate",
    "face_restriction_check", "poincare_contract", "designed_instance",
    "strip_to_dim", "corrupt_random_entry", "CWBoundary.is_differential",
}


def test_public_functions_are_referenced():
    """Every public function and method is named somewhere in src
    outside its own definition, or is on the ``TEST_API`` list, so a
    helper that only its tests use does not linger."""
    trees = {path: _tree(path) for path in MODULES}
    defined = {name for tree in trees.values()
               for name, _node in _public_definitions(tree)}
    assert TEST_API - defined == set()
    names = Counter(name for tree in trees.values() for name in _names(tree))
    unused = sorted(
        f"{path.name}: {name} (line {node.lineno})"
        for path, tree in trees.items()
        for name, node in _public_definitions(tree)
        if name not in TEST_API
        and names[name.split(".")[-1]]
        == Counter(_names(node))[name.split(".")[-1]])
    assert unused == []


# the Fraction view of a form's terms and its private int storage:
# numerators and the one denominator
FORM_STORAGE = {"terms", "_num", "_den"}


def _term_sites(tree):
    """Lines that read or assign ``.terms`` or a form's private storage
    (``._num``, ``._den``), call ``PolyForm`` with a term dict, or call
    ``_form``, which builds a form from that storage."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FORM_STORAGE:
            yield node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name == "_form" or (
                    name == "PolyForm"
                    and len(node.args) + len(node.keywords) > 1):
                yield node.lineno


def test_term_sites_sees_every_kind_of_access():
    lines = ["f.terms", "f._num", "g._den = 1", "_form(k, {})",
             "forms._form(k, {}, 2)", "PolyForm(k, t)", "PolyForm.zero(k)",
             "f.numerators"]
    found = set(_term_sites(ast.parse("\n".join(lines))))
    assert found == {1, 2, 3, 4, 5, 6}


def test_form_terms_stay_in_forms():
    """Only ``forms`` knows how a ``PolyForm`` stores its terms; every
    other module goes through its methods, so the layout can change in
    one module."""
    sites = sorted(f"{path.name}: line {line}" for path in MODULES
                   if path.name != "forms.py"
                   for line in set(_term_sites(_tree(path))))
    assert sites == []


def test_public_classes_are_used_in_src():
    """Every public class is named somewhere in src outside its own
    body, so a type that only its tests use does not linger."""
    trees = [_tree(path) for path in MODULES]
    unused = sorted(
        f"{path.name}: {node.name} (line {node.lineno})"
        for path, tree in zip(MODULES, trees)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        and not any(node.name in _names(t, skip=node) for t in trees))
    assert unused == []


def test_one_class_defines_compose():
    """Exactly one class in src composes matrices of forms, so the
    polynomial values and their partition pullbacks share one algebra
    and cannot drift apart."""
    owners = sorted(f"{path.name}: {node.name}" for path in MODULES
                    for node in ast.walk(_tree(path))
                    if isinstance(node, ast.ClassDef)
                    and any(isinstance(item, ast.FunctionDef)
                            and item.name == "compose" for item in node.body))
    assert owners == ["mixed.py: FormMatrix"]


def test_cli_main_maps_only_input_faults_to_exit_2():
    """``cli.main`` turns ``ParseError`` and ``OSError`` into exit 2 and
    nothing broader: a file the parsers reject is a ``ParseError`` by
    the time it leaves ``load_instance``, and a KeyError, TypeError or
    ValueError raised inside an algorithm is a bug to surface, not
    malformed input."""
    tree = _tree(SRC / "cli.py")
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [node for node in ast.walk(main)
                if isinstance(node, ast.ExceptHandler)]
    named = {n.id for h in handlers if h.type is not None
             for n in ast.walk(h.type) if isinstance(n, ast.Name)}
    assert all(h.type is not None for h in handlers)
    assert named & {"KeyError", "TypeError", "ValueError", "LookupError",
                    "Exception", "BaseException"} == set()
