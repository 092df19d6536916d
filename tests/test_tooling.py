"""The repository itself: pytest run under its settings, and what its source
defines but never uses."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    assert True
"""


def test_a_failing_property_test_fails_alone(tmp_path):
    # hypothesis prints a failing example through libcst, which warns on
    # import; under filterwarnings = error that warning must not abort the run
    (tmp_path / "pyproject.toml").write_bytes((ROOT / "pyproject.toml").read_bytes())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


# Module-level functions, classes and constants that nothing in src/ refers
# to, each kept for a reason outside the package. Code that only tests call
# lives in tests/, so a new name here is either moved, deleted or given its
# reason.
UNREFERENCED_IN_SRC = {"__version__": "the package version, read by its users"}


def _src_trees():
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "icdlab").glob("*.py"))]


def _loaded_names(tree) -> set[str]:
    """The names a module reads: as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_src_defines_nothing_it_does_not_use_but_the_listed_names():
    defined, referred = set(), set()
    for tree in _src_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        referred |= _loaded_names(tree)
    assert defined - referred == set(UNREFERENCED_IN_SRC)


def test_each_src_module_uses_every_name_it_imports():
    unused = {}
    for path in sorted((ROOT / "src" / "icdlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


def test_every_error_class_is_handled_by_name():
    # an exception class earns its place by some `except` that acts on it
    # (an exit code, a fallback); one that nothing catches folds into its base
    errors = ast.parse((ROOT / "src" / "icdlab" / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    caught = set()
    for tree in _src_trees():
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                caught.update(node.id for node in ast.walk(handler.type)
                              if isinstance(node, ast.Name))
    assert classes and classes <= caught, sorted(classes - caught)


def _object_dtype_calls(tree) -> list[int]:
    """The lines of calls that pass `object` (or "O", "object") as an argument
    or as dtype=, the ways numpy is asked for an object array."""
    def is_object(node):
        return ((isinstance(node, ast.Name) and node.id == "object")
                or (isinstance(node, ast.Constant) and node.value in ("O", "object")))

    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (any(map(is_object, node.args))
                 or any(k.arg == "dtype" and is_object(k.value) for k in node.keywords))]


def test_src_builds_no_object_array():
    # a split and a set of predictions are numpy columns, none of Python objects
    found = {path.name: lines for path in sorted((ROOT / "src" / "icdlab").glob("*.py"))
             if (lines := _object_dtype_calls(ast.parse(path.read_text(encoding="utf-8"))))}
    assert found == {}
    assert _object_dtype_calls(ast.parse("a = np.empty(3, dtype=object)\nb = f(x, 'O')")) == [1, 2]
