"""`src/` holds only what the program runs.

Every public top-level function or class in `src/centerpolar/*.py`, and
every public method of those classes, must be referenced by name from code
in `src/`, `scripts/` or `perfbench/`: as a name, an attribute or an
imported name.  Docstrings, comments and other strings do not count, and
neither does the definition itself.  A helper that only tests call belongs
in `tests/`, beside the oracles.

The check reads names, not bindings, so it cannot tell `Tensor.sum` from
`np.sum`: a method that shares its name with anything the program calls,
such as numpy's `dot` or `tanh`, passes whether or not the method itself
is called.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "centerpolar"
CODE_DIRS = ("src", "scripts", "perfbench")


def _public_definitions(tree: ast.Module):
    """Dotted names of the public top-level functions and classes of a
    module, and of the public methods of its classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                is_method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                if is_method and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _names_in(tree: ast.AST) -> set:
    """Every name the code of `tree` reads, binds, imports or looks up as
    an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _unused(tree: ast.Module, referenced: set) -> list:
    return [dotted for dotted, name in _public_definitions(tree) if name not in referenced]


REFERENCED = set().union(
    *(
        _names_in(ast.parse(path.read_text(), str(path)))
        for folder in CODE_DIRS
        for path in sorted((ROOT / folder).rglob("*.py"))
    )
)


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_public_name_is_used_by_the_program(module):
    unused = _unused(ast.parse(module.read_text(), str(module)), REFERENCED)
    assert unused == [], f"{module.name}: only tests use {unused}; move them to tests/"


_SNIPPET = '''
"""helper and unused_method are named in this docstring."""


def helper():  # and helper in this comment
    return "helper"


class Kept:
    def unused_method(self):
        """unused_method"""
        return "unused_method"

    def run(self):
        return self.run


def _private():
    pass
'''


def test_docstrings_comments_and_strings_are_not_references():
    tree = ast.parse(_SNIPPET)
    assert _unused(tree, _names_in(tree)) == ["helper", "Kept", "Kept.unused_method"]
