"""Source rules that no linter enforces here: every module-level import
is used, imports sit at module level (apart from the imports named in
``NESTED_IMPORTS``, which ``cli`` makes inside the commands that use
them), checks raise exceptions instead of using ``assert`` (which
``python -O`` strips), a command loads only the layers it runs
(``validate``, ``extend``, ``igusa``, ``holonomy`` and ``homology``
load no module of the form layer, ``forms``, ``mixed`` or
``smoothing``, unless the file has a partition to parse;
``build-aprime`` and ``build-iprime`` load ``mixed`` and ``forms``,
``smooth`` all three, and importing ``cli`` loads neither
``dataclasses`` nor ``inspect``; no module imports ``dataclasses``), no
module imports anything outside the
standard library and the package, no module imports another's private
name, every public function, method and class is
used in the package itself (a short list of functions that only tests
call aside), the term layout of a
polynomial form stays inside ``forms``, a module-level cache is keyed on
ints and tuples only, no float is rounded to a rational with
``limit_denominator``, no module applies ``/`` (an exact quotient goes
through ``qdiv``), ``wkflow`` imports no Fraction type, no module asks
``json`` for indented text (its indented path is its pure-Python
encoder; ``cli.json_text`` writes that text), and an exception class
exists only where an ``except`` tells it apart.  The command line maps
only input faults to exit 2.  The
layers import one way: the data and identities over Q (``flatsys``)
know nothing of forms, and the instance generator and the smoothing
each reach only the layer they need."""

import ast
import builtins
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from flatforms.cli import save_instance
from flatforms.instances import generate, strip_to_dim
from flatforms.morse import LeafSystem
from flatforms.smoothing import partition_default

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


def test_no_module_imports_a_private_name():
    """A name with a leading underscore stays in the module that
    defines it; what another module needs is public."""
    found = sorted(f"{path.name}: {alias.name} (line {node.lineno})"
                   for path in MODULES for node in ast.walk(_tree(path))
                   if isinstance(node, ast.ImportFrom)
                   and node.module != "__future__"
                   for alias in node.names if alias.name.startswith("_"))
    assert found == []


# the imports kept out of module level, as (function, module): only
# the commands that build forms load the form layer (a file's partition
# is parsed and validated with ``smoothing``)
NESTED_IMPORTS = {"cli.py": [
    ("load_instance", "smoothing"),
    ("cmd_validate", "smoothing"),
    ("cmd_build_aprime", "mixed"),
    ("cmd_build_iprime", "mixed"),
    ("cmd_smooth", "mixed"),
    ("cmd_smooth", "smoothing"),
]}


def _nested_imports(tree):
    """(enclosing function, module) of every import below module level,
    in source order."""
    top = {id(node) for node in tree.body}
    parent = {id(child): node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and id(node) not in top):
            outer = parent.get(id(node))
            while outer is not None and not isinstance(outer, ast.FunctionDef):
                outer = parent.get(id(outer))
            module = (node.module if isinstance(node, ast.ImportFrom)
                      else ",".join(alias.name for alias in node.names))
            yield (node.lineno, getattr(outer, "name", None), module)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_module_level(path):
    nested = [(func, module) for _line, func, module
              in sorted(_nested_imports(_tree(path)))]
    assert nested == NESTED_IMPORTS.get(path.name, [])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = sorted(node.lineno for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Assert))
    assert lines == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_rational_approximation(path):
    """No float is rounded to a nearby rational with
    ``Fraction.limit_denominator``: an exact value is computed as one
    (sweep starts are ints over their sum), never approximated."""
    lines = sorted(node.lineno for node in ast.walk(_tree(path))
                   if getattr(node, "attr", getattr(node, "id", None))
                   == "limit_denominator")
    assert lines == []


def _fraction_imports(tree):
    """Lines that import ``fractions``, or ``Q`` from ``linalg``,
    anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "fractions"
                   for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[0] == "fractions" and node.level == 0:
                yield node.lineno
            elif module[-1] == "linalg" and any(
                    alias.name == "Q" for alias in node.names):
                yield node.lineno


def test_fraction_imports_sees_every_kind():
    lines = ["import fractions", "from fractions import Fraction",
             "from .linalg import Q", "from flatforms.linalg import Q as R",
             "import fractions as f", "from .linalg import qint",
             "from math import gcd"]
    assert set(_fraction_imports(ast.parse("\n".join(lines)))) == \
        {1, 2, 3, 4, 5}


def test_wkflow_imports_no_fraction():
    """A point of the simplex flow is int weights over one denominator:
    ``wkflow`` imports neither ``fractions`` nor ``linalg``'s ``Q``, and
    Fractions appear only where ``cli`` reads a point from text."""
    assert sorted(_fraction_imports(_tree(SRC / "wkflow.py"))) == []


@pytest.mark.parametrize("module", [path.stem for path in MODULES])
def test_no_true_division_of_entries(module):
    """No ``/`` or ``/=`` in any module: an exact value is an int when
    it is integral, and an int over an int is a float, so an exact
    quotient goes through ``qdiv``."""
    lines = sorted(node.lineno for node in ast.walk(_tree(SRC / f"{module}.py"))
                   if isinstance(node, (ast.BinOp, ast.AugAssign))
                   and isinstance(node.op, ast.Div))
    assert lines == []


def _indented_json_calls(tree):
    """Lines that call ``json.dump`` or ``json.dumps`` with an
    ``indent`` keyword (their only way to take one) or with ``**``
    keywords, which may hold it."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and node.func.attr in ("dump", "dumps")
                and any(kw.arg in ("indent", None) for kw in node.keywords)):
            yield node.lineno


def test_indented_json_calls_sees_every_kind():
    lines = ["json.dumps(r, indent=2)", "json.dump(r, f, indent=1)",
             "json.dumps(r, **options)", "json.dumps(r)", "json.dump(r, f)",
             "json.dumps(r, sort_keys=True)", "text(r, indent=2)",
             "json.loads(s, **options)"]
    assert set(_indented_json_calls(ast.parse("\n".join(lines)))) == \
        {1, 2, 3}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_indented_json_calls(path):
    """No module asks ``json`` for indented text: any ``indent`` sends
    json down its pure-Python encoder, several times slower than its C
    one.  Every report and instance file goes through ``cli.json_text``,
    which writes the same bytes."""
    assert sorted(_indented_json_calls(_tree(path))) == []


def _imported_modules(node):
    """The absolute module names that an import node names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_no_module_imports_outside_the_standard_library():
    """The package is exact throughout and has no dependencies: every
    absolute import in ``src``, at module level or inside a function,
    names a module of the standard library."""
    found = sorted(f"{path.name}: {module} (line {node.lineno})"
                   for path in MODULES for node in ast.walk(_tree(path))
                   for module in _imported_modules(node)
                   if module.split(".")[0] not in sys.stdlib_module_names)
    assert found == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    """Classes are plain classes: ``dataclasses`` pulls in ``inspect``,
    which costs a command milliseconds of start-up."""
    found = [node.lineno for node in ast.walk(_tree(path))
             if "dataclasses" in _imported_modules(node)]
    assert found == []


def _fresh_process(script, *args):
    """The JSON that ``script`` prints, run with ``args`` in a new
    interpreter that imports the package from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


# run in a fresh interpreter: the commands whose argument lists are
# given as JSON, then their exit codes and checks and the modules of the
# form layer that the process holds
COMMANDS_THEN_MODULES = """
import contextlib, io, json, sys
from flatforms import cli
codes, checks = [], []
for argv in map(json.loads, sys.argv[1:]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(cli.main(argv))
    checks.append(json.loads(out.getvalue())["checks"])
print(json.dumps({"codes": codes, "checks": checks,
                  "loaded": [name for name in ("forms", "mixed", "smoothing")
                             if f"flatforms.{name}" in sys.modules]}))
"""


def _run_commands(*argvs):
    return _fresh_process(COMMANDS_THEN_MODULES, *map(json.dumps, argvs))


def test_only_form_commands_load_the_form_layer(tmp_path):
    """``validate``, ``extend``, ``igusa``, ``holonomy`` and ``homology``
    run without ``forms``, ``mixed`` or ``smoothing`` in the process;
    ``build-aprime`` loads ``mixed`` and ``forms``, ``smooth`` all
    three, and a file with a partition loads ``smoothing`` to parse it,
    so ``validate`` reports its partition check."""
    inst = generate(3)
    skeleton = tmp_path / "skeleton.json"
    save_instance(skeleton, inst.S, inst.L, strip_to_dim(inst.A, 1))
    first = _run_commands(
        *([command, "--seed", "3"]
          for command in ("validate", "igusa", "holonomy", "homology")),
        ["extend", "--instance", str(skeleton)])
    assert first["codes"] == [0] * 5 and first["loaded"] == []
    assert "partition" not in first["checks"][0]
    everything = ["forms", "mixed", "smoothing"]
    for command, loaded in (("build-aprime", everything[:2]),
                            ("smooth", everything)):
        run = _run_commands([command, "--seed", "3"])
        assert run["codes"] == [0] and run["loaded"] == loaded, command
    with_partition = tmp_path / "partition.json"
    save_instance(with_partition, inst.S, inst.L, inst.A,
                  {"partition": partition_default(inst.S).to_json()})
    run = _run_commands(["validate", "--instance", str(with_partition)])
    assert run["codes"] == [0] and run["loaded"] == everything
    assert run["checks"][0]["partition"] == "ok"


def test_cli_import_loads_no_dataclasses():
    """``import flatforms.cli``, which every command pays, loads neither
    ``dataclasses`` nor the ``inspect`` module it pulls in: the classes
    of the layers it imports are plain classes."""
    loaded = _fresh_process(
        "import json, sys; import flatforms.cli; "
        "print(json.dumps([m for m in ('dataclasses', 'inspect') "
        "if m in sys.modules]))")
    assert loaded == []


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
    "face_restriction_check", "poincare_contract",
    "designed_instance", "corrupt_random_entry",
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


# exception classes that no ``except`` in src names, each with the
# reason it is a class of its own
UNCAUGHT_EXCEPTIONS = {
    "ExponentOverflow": "its ValueError base makes an exponent past the key "
                        "layout in an instance file an input fault (exit 2), "
                        "where as a CheckFailed it fails a check (exit 1)",
}


def _exception_classes(trees):
    """The classes defined in ``trees`` that derive, by name, from a
    builtin exception or from another class found here."""
    builtin = {name for name, obj in vars(builtins).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)}
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    found: set[str] = set()
    while new := {node.name for node in classes if node.name not in found
                  and any(getattr(base, "id", None) in builtin | found
                          for base in node.bases)}:
        found |= new
    return found


def test_every_exception_class_is_told_apart():
    """An exception class is kept only where a caller tells it apart:
    some ``except`` in src names it, or ``UNCAUGHT_EXCEPTIONS`` gives
    its reason.  Every other failure is a ``CheckFailed`` or a builtin
    exception, carrying its message."""
    trees = [_tree(path) for path in MODULES]
    caught = {n.id for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    defined = _exception_classes(trees)
    assert sorted(defined - caught - set(UNCAUGHT_EXCEPTIONS)) == []
    # a listed class that is gone, or that an except now names, is stale
    assert set(UNCAUGHT_EXCEPTIONS) <= defined - caught
    assert sorted(defined) == ["CheckFailed", "ExponentOverflow",
                               "IncompatibleBoundaryData", "ParseError"]


def _is_cache(decorator):
    """``@cache``, ``@functools.cache`` or ``@lru_cache(...)``."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = getattr(decorator, "id", getattr(decorator, "attr", None))
    return name in {"cache", "lru_cache"}


def _int_or_tuple(annotation):
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return isinstance(annotation, ast.Name) and annotation.id in {"int", "tuple"}


def test_caches_take_only_ints_and_tuples():
    """A module-level cache lives as long as the process.  Keyed on ints
    and tuples only, it never holds a form, a matrix or a leaf system
    from one command-line call into the next, and it grows with the
    shapes met, not with the instances.  The heights of a leaf system,
    which its int table copies at construction, are read-only."""
    cached, offending = [], []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not (isinstance(node, ast.FunctionDef)
                    and any(map(_is_cache, node.decorator_list))):
                continue
            cached.append(node.name)
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                      *filter(None, [a.vararg, a.kwarg])]
            offending += [f"{path.name}: {node.name}({p.arg})"
                          for p in params if not _int_or_tuple(p.annotation)]
    assert cached and offending == []
    L = LeafSystem([("a", 0, 1)], {("a", 0): 0}, 1)
    with pytest.raises(TypeError):
        L.heights[("a", 0)] = 7
