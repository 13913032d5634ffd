"""Every public mechanism has a caller in the product.

A caller census over the syntax tree, nothing timed and nothing run.
Tests do not count as callers — a mechanism only its tests use is the
thing this file exists to catch.  A name must be read somewhere under
``src/repro``, ``hostbench/workloads`` or ``examples`` (an import or an
``__all__`` entry is not a read).  The match is by name, so it can miss
an unused member that shares a name with a used one; it cannot flag a
used one.

Two rules, neither with an allow-list:

* the event kernel and the bench harness — each public method and
  property of ``Environment``, ``Resource``, ``EventPopulation``,
  ``Tally`` / ``TimeWeighted``, ``Sweep`` and ``CoreMeter`` is read as
  an attribute *outside its own class body*, and each public
  module-level function or class of ``sim/stats.py``,
  ``bench/harness.py``, ``bench/reporting.py`` and every
  ``bench/experiments_*.py`` is read by name outside its own
  definition.  A class whose whole interface is inherited
  (``EventPopulation`` is an ``Event`` with a constructor) passes
  until it grows a public member of its own;
* the product packages ``netstack``, ``hardware``, ``fs``,
  ``workloads``, ``cluster``, ``faults``, ``query``, ``baselines``,
  ``obs`` and ``units.py`` — every public method and property of every
  module-level class, and every public module-level function and
  class, is read outside its own definition (a sibling method is a
  caller: these classes use their own public surface).

Three surfaces stay outside the second rule, each for a stated reason:

* ``repro.core`` — PAPER.md §1 names the DFI-style flow interface and
  sproc pipelines, so ``DfiFlow`` / ``NetworkEngine.flow`` and
  ``Pipeline`` / ``DpdpuRuntime.pipeline`` stay with only tests
  calling them; ``core`` joins the census when an example does;
* ``repro.algos`` — its public members are known-answer surfaces
  (``Aes128.encrypt_block`` against FIPS-197 vectors) that the golden
  tests, not the product, are the callers of;
* ``Process.interrupt`` / ``Interrupt`` in ``repro.sim`` — ROADMAP
  item 4's restart path is their caller.
"""

import ast
import collections
import functools
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent
_CALLER_ROOTS = ("src/repro", "hostbench/workloads", "examples")

_KERNEL_CLASSES = (
    ("src/repro/sim/core.py", "Environment"),
    ("src/repro/sim/resources.py", "Resource"),
    ("src/repro/sim/batch.py", "EventPopulation"),
    ("src/repro/sim/stats.py", "Tally"),
    ("src/repro/sim/stats.py", "TimeWeighted"),
    ("src/repro/bench/harness.py", "Sweep"),
    ("src/repro/bench/harness.py", "CoreMeter"),
)

_PRODUCT_MODULES = (
    "src/repro/units.py",
    *sorted(str(path.relative_to(_REPO))
            for package in ("netstack", "hardware", "fs", "workloads",
                            "cluster", "faults", "query", "baselines",
                            "obs")
            for path in (_REPO / "src/repro" / package).rglob("*.py")),
)

_HARNESS_MODULES = (
    "src/repro/bench/harness.py",
    "src/repro/bench/reporting.py",
    *sorted(str(path.relative_to(_REPO)) for path in
            (_REPO / "src/repro/bench").glob("experiments_*.py")),
)


@functools.lru_cache(maxsize=None)
def _caller_trees():
    """Every module under the caller roots, parsed once: {path: tree}."""
    return {source: ast.parse(source.read_text())
            for root in _CALLER_ROOTS
            for source in sorted((_REPO / root).rglob("*.py"))}


def _class_node(path, name):
    for node in _caller_trees()[_REPO / path].body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    raise AssertionError(f"{path} defines no class {name}")


def _public_api(class_node):
    """Names of the public methods and properties in the class body."""
    return sorted(
        node.name for node in class_node.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_"))


def _reads(root):
    """``(attributes, names)``: every ``<expr>.attr`` name and every
    bare name loaded under ``root``."""
    attributes, names = collections.Counter(), collections.Counter()
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif isinstance(node, ast.Name) \
                and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        stack.extend(ast.iter_child_nodes(node))
    return attributes, names


@functools.lru_cache(maxsize=None)
def _all_reads():
    """:func:`_reads` summed over every caller module, walked once."""
    attributes, names = collections.Counter(), collections.Counter()
    for tree in _caller_trees().values():
        tree_attributes, tree_names = _reads(tree)
        attributes.update(tree_attributes)
        names.update(tree_names)
    return attributes, names


def _reads_outside(definition):
    """``(attributes, names)`` read anywhere in the caller roots other
    than inside ``definition`` (a node of one of the caller trees)."""
    return tuple({name for name, count in everywhere.items()
                  if count > inside[name]}
                 for everywhere, inside in zip(_all_reads(),
                                               _reads(definition)))


@pytest.mark.parametrize("path,name", _KERNEL_CLASSES)
def test_every_public_kernel_member_has_a_product_caller(path, name):
    class_node = _class_node(path, name)
    api = _public_api(class_node)
    used, _ = _reads_outside(class_node)
    unused = [member for member in api if member not in used]
    assert not unused, (
        f"{name} members with no caller under {_CALLER_ROOTS}: {unused} "
        "— delete them, or the caller that justified them is gone")


def _unread_module_names(path):
    """The public module-level functions and classes of ``path`` that
    nothing under the caller roots reads by name."""
    return [node.name for node in _caller_trees()[_REPO / path].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and not any(node.name in reads
                        for reads in _reads_outside(node))]


def _assert_none_unread(path, unused):
    assert not unused, (
        f"{path} names with no caller under {_CALLER_ROOTS}: "
        f"{unused} — delete them, or the caller that justified them "
        "is gone")


@pytest.mark.parametrize("path", _HARNESS_MODULES)
def test_every_public_harness_function_has_a_product_caller(path):
    _assert_none_unread(path, _unread_module_names(path))


def test_every_public_stats_collector_has_a_product_caller():
    path = "src/repro/sim/stats.py"
    _assert_none_unread(path, _unread_module_names(path))


@pytest.mark.parametrize("path", _PRODUCT_MODULES)
def test_every_public_product_name_has_a_product_caller(path):
    unread_members = [
        f"{node.name}.{member.name}"
        for node in _caller_trees()[_REPO / path].body
        if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
        and member.name not in _reads_outside(member)[0]]
    _assert_none_unread(path,
                        _unread_module_names(path) + unread_members)
