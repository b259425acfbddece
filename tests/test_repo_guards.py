"""Checks on the repository itself that the slower CI steps would
otherwise be the first to catch."""

import ast
import importlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

from planelift import cli, probes

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tracing_targets():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_probe_suite_lists_agree():
    """probes.SUITES, the choices of `verify` and the `verify` row of
    README.md's command table name the same suites in the same order."""
    verify = cli.build_parser().commands["verify"]
    choices = [a.choices for a in verify._actions if a.dest == "suite"]
    row = re.search(r"^\| `verify` +\|([^(]*)",
                    (ROOT / "README.md").read_text(), re.M).group(1)
    assert choices == [tuple(probes.SUITES)]
    assert re.findall(r"`([^`]+)`", row) == list(probes.SUITES)


def test_traced_names_resolve():
    # bench/tracing.py wraps each of these; install() raises on a name
    # the package no longer has.
    for name, funcs in _tracing_targets():
        for modname, attr in funcs:
            module = importlib.import_module("planelift." + modname)
            if attr.startswith("Poly."):
                assert attr[len("Poly."):] in module.Poly.__dict__, name
            else:
                assert callable(getattr(module, attr)), name


def test_sources_parse_as_python_3_10():
    """Every .py file parses with the grammar of Python 3.10, the oldest
    version pyproject.toml claims.  This checks syntax only: a library
    call that 3.10 lacks is not caught."""
    files = sorted(p for d in ("src/planelift", "tests", "bench")
                   for p in (ROOT / d).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=(3, 10))


def _unused_imports(tree):
    """The names that the module's import statements bind and that no
    Name node of the module reads, with the line of each import."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    """Every name imported under src/planelift and tests is used in its
    module.  Package __init__ files are exempt: they import to
    re-export."""
    files = sorted(p for d in ("src/planelift", "tests")
                   for p in (ROOT / d).rglob("*.py")
                   if p.name != "__init__.py")
    assert files
    unused = ["%s:%d: %s" % (path.relative_to(ROOT), line, name)
              for path in files
              for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []


def test_unused_import_scan_sees_every_import_form():
    tree = ast.parse("import os\nimport a.b\nfrom c import d, e as f\n"
                     "from g import h\nos.getcwd()\nf(h)\n")
    assert _unused_imports(tree) == [(2, "a"), (3, "d")]


def test_ideals_imports_no_higher_layer():
    """ideals builds its generators from config, linalg and poly: no
    dotted part of a module or name that its imports mention is
    lifting, probes or cli."""
    tree = ast.parse((ROOT / "src" / "planelift" / "ideals.py").read_text())
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            for name in names:
                parts.update(name.split("."))
    assert "config" in parts
    assert not parts & {"lifting", "probes", "cli"}


def test_poly_imports_no_package_module():
    """poly is the bottom layer: it imports nothing from planelift,
    neither relatively nor by the package name."""
    tree = ast.parse((ROOT / "src" / "planelift" / "poly.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, node.lineno
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any(name.split(".")[0] == "planelift" for name in names)


def test_classes_with_eq_define_hash():
    """Every class under src/planelift that defines __eq__ also defines
    __hash__: defining __eq__ alone sets __hash__ to None, so its
    instances, and every record holding one, could not be hashed."""
    missing = []
    for path in sorted((ROOT / "src" / "planelift").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                defined = {item.name for item in node.body
                           if isinstance(item, ast.FunctionDef)}
                if "__eq__" in defined and "__hash__" not in defined:
                    missing.append("%s:%d" % (path.name, node.lineno))
    assert missing == []


def test_only_lifting_reads_the_line_basis():
    """The rank test at a tuple has one owner, lifting.rank_test: no
    other module reads a collinearity matrix's line_basis or writes the
    threshold n - 3."""
    for path in sorted((ROOT / "src" / "planelift").glob("*.py")):
        if path.name == "lifting.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            assert not (isinstance(node, ast.Attribute)
                        and node.attr == "line_basis"), where
            assert not (isinstance(node, ast.BinOp)
                        and isinstance(node.op, ast.Sub)
                        and isinstance(node.left, ast.Attribute)
                        and node.left.attr == "n"
                        and isinstance(node.right, ast.Constant)
                        and node.right.value == 3), where


def _table_codes(text, row):
    """The codes of the table rows in text that match the regex row,
    whose one group is the code."""
    return sorted(int(code) for code in re.findall(row, text, re.M))


def test_exit_code_tables_agree():
    """cli's EX_* constants, the exit table of cli's docstring and the
    exit-code table of README.md list the same codes."""
    constants = sorted(value for name, value in vars(cli).items()
                       if name.startswith("EX_"))
    docstring = _table_codes(cli.__doc__, r"^  (\d+)  ")
    readme = _table_codes((ROOT / "README.md").read_text(),
                          r"^\| (\d+) +\|")
    assert len(set(constants)) == len(constants)
    assert docstring == constants
    assert readme == constants


def test_imports_load_no_dataclasses_or_inspect():
    """Importing the command line, or lifting alone, loads neither
    dataclasses nor the inspect module it pulls in: every `planelift`
    process pays for its imports before it answers.  The child runs
    with -S, so that no site hook loads them first."""
    code = ("import sys, %s; print(sorted({'dataclasses', 'inspect'}"
            " & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for module in ("planelift.cli", "planelift.lifting"):
        out = subprocess.run([sys.executable, "-S", "-c", code % module],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        assert out == "[]\n", module
