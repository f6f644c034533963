"""Source hygiene: no module imports a name it never reads, and no package
function takes a parameter its body never reads."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src/okubo", "tests", "tools")
# Segment.velocity keeps Arc.velocity's signature: the transport calls
# piece.velocity(s) on either kind of path piece.
UNREAD_ALLOWED = {"src/okubo/verify.py": ["Segment.velocity.s"]}


def unused_imports(path):
    """Names bound by the module-level imports of ``path`` that the module
    never reads, as 'name (line N)'."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def unread_parameters(path):
    """Parameters of the functions in ``path`` that their bodies (nested
    functions included) never read, as 'qualname.parameter'."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg,
                                          *a.kwonlyargs, a.kwarg) if p]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                out.extend(f"{prefix}{child.name}.{p}" for p in params
                           if p not in read)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return out


def scanned_files():
    for sub in SCANNED:
        for path in sorted((ROOT / sub).glob("*.py")):
            if not (sub == "src/okubo" and path.name == "__init__.py"):
                yield path


def test_scan_covers_the_package_tests_and_tools():
    names = {path.relative_to(ROOT).as_posix() for path in scanned_files()}
    assert "src/okubo/core.py" in names
    assert "src/okubo/__init__.py" not in names
    assert "tests/test_hygiene.py" in names
    assert "tools/compare_ops.py" in names


def test_unused_import_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n"
                    "import math\nimport os.path\n"
                    "from json import dumps, loads as ld\n"
                    "print(os.path.sep, ld)\n")
    assert unused_imports(path) == ["dumps (line 4)", "math (line 2)"]


def test_no_unused_module_level_imports():
    found = {path.relative_to(ROOT).as_posix(): unused_imports(path)
             for path in scanned_files()}
    assert {k: v for k, v in found.items() if v} == {}


def test_unread_parameter_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("class C:\n"
                    "    def f(self, a, *args, b, **kw):\n"
                    "        def g(c):\n"
                    "            return a\n"
                    "        return g, kw\n")
    assert unread_parameters(path) == ["C.f.self", "C.f.args", "C.f.b",
                                       "C.f.g.c"]


def test_every_package_parameter_is_read():
    found = {path.relative_to(ROOT).as_posix(): unread_parameters(path)
             for path in sorted((ROOT / "src/okubo").glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == UNREAD_ALLOWED
