"""Every randposet name that the benchmark in perfbench/ uses must exist.

The benchmark runs the package from its checkout, so a change that deletes
or renames a name it calls breaks the benchmark, not tier-1. This test
reads the benchmark's sources with ``ast`` (it imports nothing from
perfbench/) and resolves each name against the package.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _chain(node):
    """The dotted name of a Name/Attribute chain, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def benchmark_names(paths):
    """Dotted randposet names imported or reached through attributes in paths."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        # Local name -> the dotted randposet name it is bound to.
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "randposet":
                        names.add(alias.name)
                        if alias.asname:
                            bound[alias.asname] = alias.name
                        else:
                            bound["randposet"] = "randposet"
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module.split(".")[0] == "randposet":
                    for alias in node.names:
                        full = node.module + "." + alias.name
                        names.add(full)
                        bound[alias.asname or alias.name] = full
        # Only the longest chains: their prefixes resolve on the way.
        inner = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                inner.add(id(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and id(node) not in inner:
                chain = _chain(node)
                if chain is not None:
                    head, _, rest = chain.partition(".")
                    if head in bound:
                        names.add(bound[head] + "." + rest)
    return names


def resolve(dotted):
    """The object a dotted randposet name names; raises if any part is missing."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    prefix = parts[0]
    for part in parts[1:]:
        prefix += "." + part
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            obj = importlib.import_module(prefix)
    return obj


def test_every_name_the_benchmark_uses_resolves():
    names = benchmark_names(sorted(PERFBENCH.glob("*.py")))
    # The collector must see the names the cstar workloads time by hand.
    assert {
        "randposet.threshold.ExponentTable.build",
        "randposet.threshold.antichain_symmetry_group",
        "randposet.threshold.classify",
        "randposet.cli.main",
    } <= names
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert not missing, "perfbench/ uses names the package no longer has: %s" % missing


def test_the_collector_follows_aliases_and_from_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import randposet.posets as P\n"
        "from randposet import threshold\n"
        "from randposet.ramsey import arrows as arr\n"
        "x = P.catalog('v').n\n"
        "threshold.ExponentTable.build(p)\n"
        "other.threshold.values\n",
        encoding="utf-8",
    )
    assert benchmark_names([probe]) == {
        "randposet.posets",
        "randposet.posets.catalog",
        "randposet.threshold",
        "randposet.threshold.ExponentTable.build",
        "randposet.ramsey.arrows",
    }
