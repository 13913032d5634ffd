"""Every interpreter CI runs reproduces the blessed numbers.

CPython 3.12's builtin ``sum`` adds floats with compensated summation,
so one float sequence totals differently there than on 3.11.  Every
sum under ``src/repro`` therefore goes through
``repro.sim.stats.fold_sum``, a left fold on every interpreter.  The
syntax-tree check below bans the builtin there (``algos`` keeps it:
its sums are over integers and lists, held to known answers), and
the ``query`` experiment — whose partial aggregates are float sums in
shard order — is run and held exactly to ``BENCH_baseline.json``, so
CI's 3.12 leg catches the next builtin ``sum`` that changes a
simulated number.
"""

import ast
from pathlib import Path

from repro.bench.__main__ import main

_REPO = Path(__file__).resolve().parent.parent
_SRC = _REPO / "src" / "repro"

#: where the builtin stays: the helper itself, and the known-answer
#: kernels, which sum no floats
_EXEMPT = (_SRC / "sim" / "stats.py", _SRC / "algos")


def _builtin_sums(path):
    """``line`` of every read of the name ``sum`` in ``path``."""
    tree = ast.parse(path.read_text())
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "sum"
                  and isinstance(node.ctx, ast.Load))


def test_no_builtin_sum_outside_the_fold():
    found = [f"{path.relative_to(_REPO)}:{line}"
             for path in sorted(_SRC.rglob("*.py"))
             if not any(path == exempt or exempt in path.parents
                        for exempt in _EXEMPT)
             for line in _builtin_sums(path)]
    assert not found, (
        f"builtin sum at {found}: use repro.sim.stats.fold_sum, which "
        "adds floats in the same order on every interpreter")


def test_the_check_sees_a_builtin_sum(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("total = sum(x for x in (0.1, 0.2))\n"
                      "fold = sum\n"
                      "def f(values):\n    return values.sum()\n")
    assert _builtin_sums(module) == [1, 2]


def test_query_reproduces_the_blessed_rows_exactly():
    assert main(["query", "--identity",
                 str(_REPO / "BENCH_baseline.json")]) == 0
