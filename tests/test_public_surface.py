"""The package's public surface: every public module-level function and
class is reached from outside its own definition, every schema a run
writes is the one docs/output_schema.md documents, and the CLI sizes no
array.

A name counts as reached when the syntax tree of the package, of the
acceptance gate (``tests/test_acceptance.py``) or of the benchmark's
workloads (``bench/workloads.py``) uses it as a name or an attribute, or
when the benchmark's traced ``LAYERS`` list it.  Unit tests do not count:
a result only they reach shows in no run report.  Uses inside the name's
own definition do not count, and neither do the re-export lists of
``qscontrol.ito``, which are imports and strings, not uses.  No name is
exempt: the rejected sign candidate ``stirling1_unsigned`` is reached by
the benchmark's cache reset, the console entry point ``main`` by cli's
``__main__`` block.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qscontrol"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions():
    """{(module path, name): definition node} of every public module-level
    function and class of the package."""
    return {
        (path, node.name): node
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _uses(tree, skip=()):
    """Names used as a name or an attribute in ``tree``, outside the nodes
    in ``skip``."""
    skipped = {id(inner) for node in skip for inner in ast.walk(node)}
    used = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _bench_layers():
    """The function names ``bench/spans.py`` lists in ``LAYERS``, read off
    the syntax tree (the file is not imported)."""
    for node in _tree(ROOT / "bench" / "spans.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets):
            layers = ast.literal_eval(node.value)
            return {name for _, names in layers.values() for name in names}
    raise AssertionError("bench/spans.py has no LAYERS")


def _unreached():
    """The public names no use reaches, as "module:name"."""
    definitions = _definitions()
    reached = _bench_layers()
    for path in (ROOT / "tests" / "test_acceptance.py", ROOT / "bench" / "workloads.py"):
        reached |= _uses(_tree(path))
    trees = {path: _tree(path) for path in sorted(PACKAGE.rglob("*.py"))}
    everywhere = {path: _uses(tree) for path, tree in trees.items()}
    unreached = set()
    for (home, name), node in definitions.items():
        uses = set(reached)
        for path, tree in trees.items():
            uses |= _uses(tree, skip=[node]) if path == home else everywhere[path]
        if name not in uses:
            unreached.add(f"{home.relative_to(PACKAGE).as_posix()}:{name}")
    return unreached


def test_every_public_name_is_reached_outside_unit_tests():
    stray = sorted(_unreached())
    assert not stray, stray


def test_schema_names_in_code_match_the_documented_ones():
    in_code = {
        name
        for path in PACKAGE.rglob("*.py")
        for name in re.findall(r'"schema":\s*"([\w-]+/\d+)"', path.read_text())
    }
    documented = set(
        re.findall(r"^## `([\w-]+/\d+)`", (ROOT / "docs" / "output_schema.md").read_text(),
                   flags=re.MULTILINE)
    )
    assert in_code == documented


def test_cli_sizes_no_array():
    # every array is admitted against the size budget by the function that
    # allocates it, so the CLI restates no array shape: it neither imports
    # nor uses the budget check or the budget
    tree = _tree(PACKAGE / "cli.py")
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not (_uses(tree) | imported) & {"require_budget", "STACK_BUDGET"}
