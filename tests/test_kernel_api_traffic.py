"""Every public mechanism has a caller in the product.

A caller census over the syntax tree, nothing timed and nothing run.
Tests do not count as callers — a mechanism only its tests use is the
thing this file exists to catch.  A name must be read somewhere under
``src/repro``, ``hostbench/workloads`` or ``examples`` (an import or an
``__all__`` entry is not a read).  The match is by name, so it can miss
an unused member that shares a name with a used one; it cannot flag a
used one.

Three rules; only the third has an exception table, and its reasons
come from a closed list:

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
  caller: these classes use their own public surface);
* every defaulted parameter of every function and method under
  ``src/repro`` (``core`` and ``algos`` included) is set — by keyword,
  or positionally far enough — by at least one call site under
  ``src/repro``, ``hostbench`` or ``examples``; tests do not count
  here either.  A default no product caller overrides is a constant
  with a second spelling: it becomes the module constant it already
  equals, or goes with the branch only another value reached.  The
  one exception table, ``KEPT_PARAMETERS``, gives each survivor a
  reason from a closed list (``REASONS``): (a) a PAPER.md-named
  interface, (b) a known-answer ``algos`` surface, (c) a seam where a
  test substitutes a fake, (d) a ROADMAP item that names its future
  product caller, (f) a guard on degenerate input whose caller is the
  tier-1 test it names (the execution census's arms only).  An entry the product now sets, or whose
  parameter is gone, fails as well.  ``python
  tests/test_kernel_api_traffic.py`` prints the counts.  Dunder
  methods other than ``__init__`` are outside this rule — no call
  site names them.

What no name census can see — a dead method whose name a live one
shares — the execution census sees: ``python tests/traffic_census.py``.

Two surfaces stay outside the second rule, each for a stated reason:

* ``repro.core`` — PAPER.md §1 names the DFI-style flow interface and
  sproc pipelines, so ``DfiFlow`` / ``NetworkEngine.flow`` and
  ``Pipeline`` / ``DpdpuRuntime.pipeline`` stay with only tests
  calling them; ``core`` joins the census when an example does;
* ``repro.algos`` — its public members are known-answer surfaces
  (``Aes128.encrypt_block`` against FIPS-197 vectors) that the golden
  tests, not the product, are the callers of.
"""

import ast
import builtins
import collections
import functools
import re
import textwrap
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


# -- the parameter census ---------------------------------------------------

_PARAMETER_ROOTS = ("src/repro", "hostbench", "examples")

#: the only reasons a defaulted parameter may go without product traffic
REASONS = {
    "a": "a PAPER.md-named interface, tests are its callers",
    "b": "a known-answer repro.algos surface",
    "c": "a seam where a test substitutes a fake",
    "d": "a ROADMAP item names its future product caller",
    "f": "a guard on degenerate input; the named tier-1 test is its caller",
}

#: defaulted parameters no product call site sets: (reason, detail)
KEPT_PARAMETERS = {
    "core/dds.py:DdsServer.__init__(udf=)":
        ("a", "the offload engine's user UDF (PAPER.md s1, SE)"),
    "core/dpdpu.py:DpdpuRuntime.pipeline(depth=)":
        ("a", "sproc pipelines (PAPER.md s1, CE)"),
    "core/dpdpu.py:DpdpuRuntime.pipeline(name=)":
        ("a", "sproc pipelines (PAPER.md s1, CE)"),
    "core/pipeline.py:Pipeline.add_stage(workers=)":
        ("a", "sproc pipelines (PAPER.md s1, CE)"),
    "core/network.py:NetworkEngine.flow(depth=)":
        ("a", "the DFI-style flow interface (PAPER.md s1, NE)"),
    "core/wire.py:encode_sproc(arg=)":
        ("a", "a sproc's argument on a remote invocation (PAPER.md "
              "s1, CE)"),
    "algos/crc.py:Crc32.__init__(data=)":
        ("b", "checked against zlib.crc32"),
    "algos/dedup.py:chunk_stream(avg_size=)":
        ("b", "content-defined chunking against its size bounds"),
    "algos/dedup.py:chunk_stream(max_size=)":
        ("b", "content-defined chunking against its size bounds"),
    "algos/dedup.py:chunk_stream(min_size=)":
        ("b", "content-defined chunking against its size bounds"),
    "obs/artifact.py:make_artifact(provenance=)":
        ("c", "tests pin the host provenance of hand-built artifacts"),
    "obs/claims.py:evaluate_all(claims=)":
        ("c", "tests evaluate hand-built claim tables"),
    "core/compute.py:ComputeEngine.__init__(host_spillover_backlog=)":
        ("d", "ROADMAP 5(b): the host spill-over knockout"),
    "core/dds.py:DdsServer.__init__(offload_enabled=)":
        ("d", "ROADMAP 5(b): the SE offload-engine knockout"),
}


def _functions(tree):
    """``(def node, enclosing class node or None)`` for every function
    and method in ``tree``, nested ones included."""
    stack = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, owner
                stack.append((child, None))
            else:
                stack.append(
                    (child, child if isinstance(child, ast.ClassDef)
                     else owner))


def _name_of(node):
    return node.id if isinstance(node, ast.Name) \
        else node.attr if isinstance(node, ast.Attribute) else None


def _is_super_init(call):
    function = call.func
    return isinstance(function, ast.Attribute) \
        and function.attr == "__init__" \
        and isinstance(function.value, ast.Call) \
        and _name_of(function.value.func) == "super"


def _passed(trees):
    """``{callee name: [most positional arguments, keywords]}`` over
    every call site in ``trees``.  A constructor is filed under its
    class; ``super().__init__(...)`` under the enclosing class's bases;
    ``partial(f, ...)`` under ``f``; a class with no ``__init__`` hands
    its call sites to its bases, and ``g(**kwargs)`` forwarding its own
    ``**kwargs`` to ``f`` hands ``f`` the keywords ``g`` is called
    with.  A keyword spread from any other mapping (``f(**limits)``)
    names nothing: pass what a call sets by name."""
    passed = collections.defaultdict(lambda: [0, set()])
    hands = []              # (from, to, positionals too)

    def file(names, arguments, keywords):
        starred = any(isinstance(argument, ast.Starred)
                      for argument in arguments)
        for name in names:
            entry = passed[name]
            entry[0] = max(entry[0],
                           10 ** 6 if starred else len(arguments))
            entry[1].update(keyword.arg for keyword in keywords)

    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and not any(
                    getattr(member, "name", "") == "__init__"
                    for member in node.body):
                hands += [(node.name, _name_of(base), True)
                          for base in node.bases]
            if not isinstance(node, ast.Call) or _is_super_init(node):
                continue
            name, arguments = _name_of(node.func), node.args
            if name == "partial" and arguments:
                name, arguments = _name_of(arguments[0]), arguments[1:]
            file([name], arguments, node.keywords)
        for function, owner in _functions(tree):
            forwarder = owner.name if owner and \
                function.name == "__init__" else function.name
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                if _is_super_init(node) and owner:
                    file([_name_of(base) for base in owner.bases],
                         node.args, node.keywords)
                if function.args.kwarg and any(
                        keyword.arg is None
                        and _name_of(keyword.value)
                        == function.args.kwarg.arg
                        for keyword in node.keywords):
                    target = owner.bases[0] if _is_super_init(node) \
                        and owner else node.func
                    hands.append((forwarder, _name_of(target), False))
    for _ in range(3):      # chains are short: heir -> base -> base
        for giver, taker, positionals in hands:
            if positionals:
                passed[taker][0] = max(passed[taker][0],
                                       passed[giver][0])
            passed[taker][1] |= passed[giver][1]
    return passed


def _defaulted_parameters(trees):
    """``(path:Qual.name, callee name, parameter, positional index or
    None)`` for every defaulted parameter in ``trees`` (``{path:
    tree}`` under ``src/repro``).  Dunder methods other than
    ``__init__`` are outside the rule: no call site names them."""
    for source, tree in trees.items():
        where = source.relative_to(_REPO / "src/repro")
        for function, owner in _functions(tree):
            name = function.name
            if name == "__init__" and owner:
                callee = owner.name
            elif name.startswith("__"):
                continue
            else:
                callee = name
            label = f"{where}:{owner.name + '.' if owner else ''}{name}"
            bound = owner is not None and not any(
                _name_of(decorator) == "staticmethod"
                for decorator in function.decorator_list)
            arguments = function.args
            positional = arguments.posonlyargs + arguments.args
            first = len(positional) - len(arguments.defaults)
            for index, argument in enumerate(positional[first:], first):
                yield label, callee, argument.arg, index - bound
            for argument, default in zip(arguments.kwonlyargs,
                                         arguments.kw_defaults):
                if default is not None:
                    yield label, callee, argument.arg, None


def _never_set(definitions, callers):
    """Labels ``label(parameter=)`` of the ``definitions`` parameters
    no call site in ``callers`` (parsed trees) sets."""
    passed = _passed(callers)
    return [f"{label}({parameter}=)"
            for label, callee, parameter, index in definitions
            if parameter not in passed[callee][1]
            and (index is None or passed[callee][0] <= index)]


@functools.lru_cache(maxsize=None)
def _parameter_census():
    """``(defaulted, never set by product traffic)`` under src/repro."""
    sources = {source: tree for source, tree in _caller_trees().items()
               if source.is_relative_to(_REPO / "src/repro")}
    callers = [ast.parse(source.read_text())
               for root in _PARAMETER_ROOTS
               for source in sorted((_REPO / root).rglob("*.py"))]
    defaulted = list(_defaulted_parameters(sources))
    return defaulted, _never_set(defaulted, callers)


def parameter_table():
    """The census as a Markdown table: product-set, kept with a
    reason, and the total."""
    defaulted, never = _parameter_census()
    kept = sum(1 for label in never if label in KEPT_PARAMETERS)
    rows = [("set by product traffic", len(defaulted) - len(never)),
            ("kept with a reason", kept),
            ("neither (fails tier-1)", len(never) - kept),
            ("defaulted parameters under src/repro", len(defaulted))]
    return "\n".join(["| parameters | count |", "|---|---:|"]
                     + [f"| {name} | {count} |" for name, count in rows])


def test_every_defaulted_parameter_is_set_by_some_caller():
    """A default no product call site overrides is a constant with a
    second spelling: it becomes the constant it already equals, or
    goes with the branch only another value reached.  Tests are not
    callers; :data:`KEPT_PARAMETERS` holds each exception with its
    reason, and an entry the product now sets, or whose parameter is
    gone, fails too, so the table cannot rot."""
    _defaulted, never = _parameter_census()
    print(parameter_table())
    unlisted = sorted(set(never) - set(KEPT_PARAMETERS))
    rotten = sorted(set(KEPT_PARAMETERS) - set(never))
    assert not unlisted, (
        f"{len(unlisted)} defaulted parameters no call site in "
        f"{_PARAMETER_ROOTS} sets — make each the constant it already "
        "equals, or delete it with the branch only another value "
        "reached:\n" + "\n".join(unlisted))
    assert not rotten, (
        "KEPT_PARAMETERS entries the product now sets, or that no "
        "longer exist — delete them:\n" + "\n".join(rotten))


def test_every_kept_parameter_has_a_closed_reason():
    assert {reason for reason, _detail in KEPT_PARAMETERS.values()} \
        <= set(REASONS)
    assert all(detail for _reason, detail in KEPT_PARAMETERS.values())


def test_every_kept_arm_has_a_closed_reason():
    from tests import traffic_census
    kept = traffic_census.KEPT_ARMS.values()
    assert {reason for reason, _detail in kept} <= set(REASONS)
    assert all(detail for _reason, detail in kept)


def _defines(tree, names):
    """Whether ``tree`` defines the class/function path ``names``."""
    body = tree.body
    for name in names:
        found = [node for node in body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_guard_arm_names_an_existing_test():
    """A reason-(f) arm's caller is a tier-1 test: its detail names it
    as a pytest node id, and that test function exists."""
    from tests import traffic_census
    guards = {key: detail for key, (reason, detail)
              in traffic_census.KEPT_ARMS.items() if reason == "f"}
    assert guards
    missing = []
    for key, detail in sorted(guards.items()):
        node_ids = re.findall(r"(tests/[\w/]+\.py)::([\w:]+)", detail)
        if not node_ids or not all(
                (_REPO / path).is_file()
                and _defines(ast.parse((_REPO / path).read_text()),
                             names.split("::"))
                for path, names in node_ids):
            missing.append(f"{key}: {detail}")
    assert not missing, ("(f) rows whose named test does not exist:\n"
                         + "\n".join(missing))


def test_every_cited_roadmap_item_is_open():
    """A kept function, arm or parameter that names a ROADMAP item as
    its future caller names an open one: item numbers are never reused,
    so a citation of a closed or renumbered item is a stale reason."""
    from tests import traffic_census
    roadmap = (_REPO / "ROADMAP.md").read_text()
    section = roadmap.split("\n## Open items", 1)[1].split("\n## ", 1)[0]
    open_items = set(re.findall(r"^(\d+)\. \*\*", section, re.M))
    reasons = [*traffic_census.KEPT.values(), traffic_census._MISMATCH,
               *(detail for _reason, detail in KEPT_PARAMETERS.values()),
               *(detail for _reason, detail
                 in traffic_census.KEPT_ARMS.values())]
    cited = {(number, reason) for reason in reasons
             for number in re.findall(r"ROADMAP (?:item )?(\d+)", reason)}
    assert cited, "no ROADMAP citation found: the pattern is stale"
    stale = sorted(f"ROADMAP {number}: {reason}"
                   for number, reason in cited if number not in open_items)
    assert not stale, (
        f"cited ROADMAP items that are not open (open: "
        f"{sorted(open_items, key=int)}):\n" + "\n".join(stale))


def test_forwarded_keywords_reach_the_constructor():
    """``register(name, **kwargs)`` handing its keywords to ``Tenant``
    counts the keywords its callers name; a spread mapping names
    none."""
    tree = ast.parse(textwrap.dedent("""
        class Tenant:
            def __init__(self, name, rate=None, burst=None):
                pass
        class Registry:
            def register(self, name, **kwargs):
                return Tenant(name, **kwargs)
        registry.register("batch", rate=100.0)
        registry.register("pro", **limits)
    """))
    definitions = [("t.py:Tenant.__init__", "Tenant", parameter, index)
                   for index, parameter in ((1, "rate"), (2, "burst"))]
    assert _never_set(definitions, [tree]) \
        == ["t.py:Tenant.__init__(burst=)"]


# -- the reader census ------------------------------------------------------

_READER_ROOTS = ("src/repro", "hostbench", "examples", "benchmarks")
_BLIND_WRITES = ("add", "observe")


def _is_self_attribute(node):
    return isinstance(node, ast.Attribute) \
        and isinstance(node.value, ast.Name) and node.value.id == "self"


def _attributes_read(tree):
    """Every attribute name ``tree`` loads for its value.  Feeding a
    collector is not a read: ``<x>.name.add(...)``,
    ``<x>.name.observe(...)`` and ``<x>.name.value += ...`` only write
    through ``name``.  ``getattr(<x>, "name")`` is one."""
    written_through = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            function = node.func
            if isinstance(function, ast.Attribute) \
                    and function.attr in _BLIND_WRITES:
                written_through.add(id(function.value))
            elif _name_of(function) in ("getattr", "hasattr") \
                    and len(node.args) > 1 \
                    and isinstance(node.args[1], ast.Constant):
                read.add(node.args[1].value)
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Attribute) \
                and node.target.attr == "value":
            written_through.add(id(node.target.value))
    read.update(node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in written_through)
    return read


def _is_exception_class(name, classes, seen=()):
    builtin = getattr(builtins, name, None)
    if isinstance(builtin, type) and issubclass(builtin, BaseException):
        return True
    return name in classes and name not in seen and any(
        _is_exception_class(_name_of(base), classes, seen + (name,))
        for base in classes[name].bases)


def test_every_instance_attribute_has_a_reader():
    """``self.x = ...`` is invisible to a member census.  Every
    instance attribute a ``src/repro`` class assigns is read somewhere
    in the product — by name, so the rule can miss an unread attribute
    that shares a name with a read one and cannot flag a read one.  A
    counter nobody reads is paid for per event and printed by no
    report: it goes, with its updates.  Outside the rule: the fields of
    exception classes, which exist for the handler that catches one."""
    read = set()
    sources = {}
    for root in _READER_ROOTS:
        for source in sorted((_REPO / root).rglob("*.py")):
            if "tests" in source.relative_to(_REPO).parts:
                continue
            tree = ast.parse(source.read_text())
            read |= _attributes_read(tree)
            if root == "src/repro":
                sources[source] = tree
    classes = {node.name: node for tree in sources.values()
               for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    assigned, unread = 0, []
    for source, tree in sources.items():
        where = source.relative_to(_REPO / "src/repro")
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) \
                    or _is_exception_class(node.name, classes):
                continue
            names = {target.attr for target in ast.walk(node)
                     if _is_self_attribute(target)
                     and isinstance(target.ctx, ast.Store)}
            assigned += len(names)
            unread += [f"{where}:{node.name}.{name}"
                       for name in sorted(names - read)]
    print(f"{assigned} instance attributes assigned under src/repro, "
          f"{len(unread)} never read")
    assert not unread, (
        f"{len(unread)} instance attributes nothing under "
        f"{_READER_ROOTS} reads — delete each with its updates, or "
        "the reader that justified it is gone:\n" + "\n".join(unread))


if __name__ == "__main__":
    print(parameter_table())
