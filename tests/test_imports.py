"""Every name a paleykit module imports is used in that module, and every
top-level definition is used somewhere."""

import ast
import pathlib
import re

import pytest

import paleykit

PACKAGE = pathlib.Path(paleykit.__file__).parent
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def unused_imports(source):
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector_flags_an_unused_name():
    source = "import os\nfrom math import pi, tau\nprint(tau, os.sep)\n"
    assert unused_imports(source) == [(2, "pi")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_definitions(sources, exported, named):
    """(module, line, name) for each top-level function or class of the
    modules in sources (name -> source text) that no expression in any of
    them reads, by name or as an attribute, unless it is in exported or
    named."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.lineno, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    keep = read | set(exported) | set(named)
    return sorted(d for d in defined if d[2] not in keep)


def identifiers(source):
    """Every name a source mentions in code: names, attributes, imported
    names, and the parts of string constants that are dotted names, such
    as "TrigPoly.evaluate" (not of docstrings or other prose)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.]+", node.value)):
            out.update(node.value.split("."))
    return out


def test_dead_definition_detector_flags_an_unread_def():
    sources = {
        "a": "def used():\n    pass\n\n\ndef dead():\n    pass\n\n\n"
             "def exported():\n    pass\n\n\nclass Named:\n    pass\n",
        "b": "from .a import used, dead\n\n\ndef main():\n    return used()\n",
    }
    named = identifiers('"""Not dead."""\nimport x\nx.run("paleykit.a", "Named.go")\n')
    assert dead_definitions(sources, {"exported"}, named) == [
        ("a", 5, "dead"), ("b", 4, "main")]


def test_no_dead_definitions():
    sources = {p.stem: p.read_text() for p in SOURCES}
    exported = identifiers((PACKAGE / "__init__.py").read_text())
    named = set().union(*(identifiers(p.read_text())
                          for p in PERFBENCH.glob("*.py")))
    assert dead_definitions(sources, exported, named) == []
