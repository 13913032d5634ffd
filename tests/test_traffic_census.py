"""The execution census's arm finder and its exemption rules, on a
small synthetic module: no traffic runs here, only the module.

The census reads what ``traced`` recorded of the module's traffic;
``ENTERED`` and ``EXECUTED`` are that record, so the arm finder is
tested on every interpreter, and on 3.12+ (``sys.monitoring``) one
test holds ``traced`` to it."""

import ast
import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

from tests import traffic_census
from tests.traffic_census import (
    REPO,
    defined_arms,
    defined_functions,
    exempt_arm,
    render_tables,
    sources,
    traced,
    unrun_arms,
)

MODULE = '''
def served(x, request):
    """Docstring."""
    if x > 0:
        y = x
    elif x < -10:
        y = 0
    else:
        y = -x
    if x > 100:
        raise ValueError("too big")
    if x == 99:
        request.span.annotate(error="x")
        request.fail(ValueError("x"))
        return
    if x == 98:
        return None
    try:
        y += 1
    except TypeError:
        y = 0
    for i in range(0):
        y += i
        if i:
            y = 1
    return y


def helper():
    return 1


def worker():
    try:
        yield 1
    finally:
        helper()


def swallows():
    try:
        yield 1
    except GeneratorExit:
        pass
    helper()


def never():
    return 2
'''

#: what ``traced`` records of ``_traffic``: the first line of every
#: function entered, and every line run outside teardown
ENTERED = {2, 33, 40}
EXECUTED = {4, 5, 6, 9, 10, 12, 16, 18, 19, 22, 26, 34, 35, 41, 42}


def _root(tmp_path):
    root = tmp_path / "repro"
    root.mkdir()
    (root / "mod.py").write_text(MODULE)
    (root / "algos").mkdir()
    (root / "algos" / "golden.py").write_text("def f():\n    return 1\n")
    return root


def _traffic(module):
    module.served(5, None)
    for generator in (module.swallows(), module.worker()):
        next(generator)
        generator.close()    # teardown: helper() is not traffic
    module.served(-3, None)  # traffic again once swallows() returned


def _census(tmp_path):
    root = _root(tmp_path)
    path = str(root / "mod.py")
    return (list(sources(root)), {(path, line) for line in ENTERED},
            {path: EXECUTED})


@pytest.mark.skipif(sys.version_info < (3, 12),
                    reason="the census runs under sys.monitoring (3.12+)")
def test_traced_records_traffic_and_not_teardown(tmp_path):
    root = _root(tmp_path)
    spec = importlib.util.spec_from_file_location("mod", root / "mod.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    entered, executed = traced(lambda: _traffic(module), root)
    path = str(root / "mod.py")
    assert entered == {(path, line) for line in ENTERED}
    assert executed == {path: EXECUTED}


def test_functions_and_arms_nothing_ran(tmp_path):
    modules, entered, executed = _census(tmp_path)
    functions = defined_functions(modules)
    assert {key for where, (key, _lines, _exempt) in functions.items()
            if where not in entered} == {"mod.py:helper", "mod.py:never"}
    unrun = sorted(arm for where, arms in defined_arms(modules).items()
                   if where in entered
                   for arm in unrun_arms(arms, executed[where[0]]))
    assert [(key, kind, rule) for key, kind, _count, rule in unrun] == [
        ('mod.py:served:raise ValueError("too big")', "if",
         "only raises or fails"),
        ('mod.py:served:request.span.annotate(error="x")', "if",
         "only raises or fails"),
        ("mod.py:served:return None", "if", "returns a literal"),
        ("mod.py:served:y += i", "for", None),     # inner if with it
        ("mod.py:served:y = 0", "elif", None),
        ("mod.py:served:y = 0 #2", "except", "except body"),
        ("mod.py:swallows:pass", "except", "except body"),
        # run only while the generator was being closed
        ("mod.py:worker:helper()", "finally", "finally body"),
    ]


def _rule(where, source, kind="if"):
    return exempt_arm(Path(where),
                      kind, ast.parse(textwrap.dedent(source)).body)


def test_exemption_rules():
    assert _rule("x.py", "raise KeyError(k)") == "only raises or fails"
    assert _rule("x.py", """
        event.fail(exc)
        span.finish()
        return""") == "only raises or fails"
    assert _rule("x.py", "span.finish()") is None     # fails nothing
    assert _rule("x.py", "return ()") == "returns a literal"
    assert _rule("x.py", "return -1.0") == "returns a literal"
    assert _rule("x.py", "return x") is None
    assert _rule("x.py", "x = 1\nreturn None") is None
    assert _rule("x.py", "pass", kind="finally") == "finally body"
    assert _rule("bench/__main__.py", """
        print("usage", file=sys.stderr)
        return 2""") == "validates outside input"
    assert _rule("bench/__main__.py", "return 0") == "returns a literal"
    assert _rule("bench/__main__.py",
                 'return "(no results)"') == "returns a literal"
    assert _rule("bench/__main__.py", "run()\nreturn 0") is None
    assert _rule("obs/artifact.py", """
        errors.append("no experiments")
        return""") == "validates outside input"
    assert _rule("obs/artifact.py", "rows.append(row)") is None
    assert _rule("obs/claims.py",
                 "status = FAIL") == "validates outside input"
    assert _rule("obs/claims.py", "status = PASS") is None


def test_check_fails_an_unlisted_arm_and_a_rotten_row(tmp_path,
                                                      monkeypatch):
    modules, entered, executed = _census(tmp_path)
    tables = (defined_functions(modules), defined_arms(modules),
              entered, executed, True)
    monkeypatch.setattr(traffic_census, "KEPT", {
        "mod.py:helper": "reached only at teardown",
        "mod.py:never": "no caller"})
    kept_arms = {"mod.py:served:y += i": ("d", "an empty range"),
                 "mod.py:served:y = 0": ("d", "never below -10")}
    monkeypatch.setattr(traffic_census, "KEPT_ARMS", kept_arms)
    assert traffic_census.report(*tables) == 0
    # an arm that ran, listed
    monkeypatch.setitem(kept_arms, "mod.py:served:y = x", ("d", "x"))
    assert traffic_census.report(*tables) == 1
    del kept_arms["mod.py:served:y = x"]
    # an arm that never ran, unlisted
    del kept_arms["mod.py:served:y = 0"]
    assert traffic_census.report(*tables) == 1


def test_robustness_doc_shows_the_kept_tables_as_they_are():
    """docs/ROBUSTNESS.md's census tables are ``render_tables()``: the
    ``KEPT`` and ``KEPT_ARMS`` rows with the lines each holds today."""
    rendered = render_tables()
    assert rendered in (REPO / "docs" / "ROBUSTNESS.md").read_text(), (
        "paste this over the tables in docs/ROBUSTNESS.md (print it "
        "with: PYTHONPATH=src python -c 'from tests.traffic_census "
        "import render_tables; print(render_tables())'):\n" + rendered)
