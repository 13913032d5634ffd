"""The execution census's arm finder and its exemption rules, on a
small synthetic module: no traffic runs here, only the module."""

import ast
import importlib.util
import textwrap
from pathlib import Path

from tests import traffic_census
from tests.traffic_census import (
    defined_arms,
    defined_functions,
    exempt_arm,
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


def never():
    return 2
'''


def _census(tmp_path):
    root = tmp_path / "repro"
    root.mkdir()
    (root / "mod.py").write_text(MODULE)
    (root / "algos").mkdir()
    (root / "algos" / "golden.py").write_text("def f():\n    return 1\n")
    spec = importlib.util.spec_from_file_location("mod", root / "mod.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def traffic():
        module.served(5, None)
        module.served(-3, None)
        process = module.worker()
        next(process)
        process.close()      # teardown: helper() is not traffic

    entered, executed = traced(traffic, root)
    modules = list(sources(root))
    return modules, entered, executed


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
