"""Source checks that need no linter: every name a module imports is used,
only the command line prints, and the utility family and behaviour names
are written out in one module each."""

import ast
from pathlib import Path

import pytest

from netalloc.game import BEHAVIORS
from netalloc.utility import FAMILIES

SRC = Path(__file__).resolve().parent.parent / "src" / "netalloc"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node):
    """Names inside string annotations ("FrequencyProfile")."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _annotation_names(node.returns)
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_a_leftover():
    source = (
        "from .game import outcome_summary, social_welfare\n"
        "import math\n"
        "def f(x: 'Sequence') -> float:\n"
        "    return social_welfare(x)\n"
    )
    assert unused_imports(source) == ["line 1: outcome_summary", "line 2: math"]


def print_calls(source: str) -> list[int]:
    """Lines that call the builtin ``print``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "cli.py")
)
def test_only_the_cli_prints(module):
    assert print_calls((SRC / module).read_text(encoding="utf-8")) == []


def test_print_check_sees_a_call():
    assert print_calls("x = 1\nif x:\n    print(x, file=None)\n") == [3]
    assert print_calls("log.print(1)\n") == []


# Built-in ``sum`` calls that add ints only, each with its reason.  A float
# sum that reaches an output or a decision goes through ``game.left_sum``,
# whose bits do not depend on the CPython version (3.12's ``sum`` is
# compensated).
INT_SUMS = {
    ("analysis.py", "sum(self.ranks[k] for k in neighbors[i])"): "rank sums",
    ("bestresponse.py", "sum(alloc)"): "spare quanta of an int allocation",
    ("dynamics.py", "sum(alloc)"): "spare quanta of an int allocation",
    ("dynamics.py", "sum(br.proposals)"): "quanta of an int row",
    ("experiment.py", "sum(window)"): "histogram counts",
    ("experiment.py", "sum(1 for o in outcomes if not o.converged)"): "run count",
}


def sum_uses(source: str) -> list[str]:
    """The source of every call to the builtin ``sum``, and the line of
    every other use of the name (``map(sum, rows)``, ``total = sum``)."""
    tree = ast.parse(source)
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]
    called = {id(call.func) for call in calls}
    return [ast.get_source_segment(source, call) for call in calls] + [
        f"line {node.lineno}: sum"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "sum" and id(node) not in called
    ]


def test_builtin_sums_add_ints_only():
    found = {
        (module, use)
        for module in MODULES + ["__init__.py"]
        for use in sum_uses((SRC / module).read_text(encoding="utf-8"))
    }
    assert found - INT_SUMS.keys() == set(), "use game.left_sum for float sums"
    assert INT_SUMS.keys() - found == set(), "stale allowlist entry"


def test_sum_check_sees_a_call():
    source = "total = sum(w * u for w, u in pairs)\nx = np.sum(y)\n"
    assert sum_uses(source) == ["sum(w * u for w, u in pairs)"]
    assert sum_uses("totals = list(map(sum, rows))\n") == ["line 1: sum"]


def family_literals(source: str) -> list[str]:
    """String literals that spell a utility family's name."""
    return [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and node.value in FAMILIES
    ]


def test_only_utility_names_a_family_by_string():
    # the other modules read each family through the constants in utility.py
    found = {
        module: family_literals((SRC / module).read_text(encoding="utf-8"))
        for module in MODULES + ["__init__.py"]
        if module != "utility.py"
    }
    assert {m: names for m, names in found.items() if names} == {}


def test_family_literal_check_sees_a_name():
    source = '"""A sqrt edge."""\nif u.family in ("sqrt", POWER):\n    pass\n'
    assert family_literals(source) == ["sqrt"]


# Literal lists of every behaviour name outside game.BEHAVIORS, each with
# its reason.
BEHAVIOR_LISTS = {
    ("verify.py", '("optimistic", "pessimistic")'): (
        "criterion 8 runs the optimistic batch first, as its messages read"
    ),
}


def behavior_lists(source: str) -> list[str]:
    """The source of every tuple, list or set literal that holds every
    behaviour name."""
    return [
        ast.get_source_segment(source, node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set))
        and set(BEHAVIORS)
        <= {e.value for e in node.elts if isinstance(e, ast.Constant)}
    ]


def test_behavior_names_are_listed_once():
    found = {
        (module, literal)
        for module in MODULES + ["__init__.py"]
        for literal in behavior_lists((SRC / module).read_text(encoding="utf-8"))
    }
    assert found - BEHAVIOR_LISTS.keys() == set(), "use game.BEHAVIORS"
    assert BEHAVIOR_LISTS.keys() - found == set(), "stale allowlist entry"


def test_behavior_list_check_sees_a_list():
    source = (
        'kinds = ["pessimistic", "optimistic", "mixed"]\n'
        'default = ("optimistic",)\n'
        'seen = {None, *BEHAVIORS}\n'
    )
    assert behavior_lists(source) == ['["pessimistic", "optimistic", "mixed"]']


# numpy calls that may hand the work to BLAS, whose bits depend on its
# kernel (and which, threaded, can cost more than the work on a small system)
BLAS = {"linalg", "dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def blas_uses(source: str) -> set[str]:
    """The source of every ``np.linalg``, ``dot``-like or ``matmul`` name
    read as an attribute, and of every ``@``."""
    return {
        ast.get_source_segment(source, node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in BLAS
        or isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
    }


def test_the_optimum_makes_no_blas_call():
    # its CG dot products are math.fsum of elementwise products
    assert blas_uses((SRC / "analysis.py").read_text(encoding="utf-8")) == set()


def test_blas_check_sees_a_call():
    source = "d = np.linalg.solve(h, g)\nq = x.dot(y) + np.matmul(h, y)\nv = lam @ budgets\n"
    assert blas_uses(source) == {
        "np.linalg", "x.dot", "np.matmul", "lam @ budgets"
    }
    assert blas_uses("d = _dot(r, z)\nt = math.fsum(v)\n") == set()


# numpy reductions in the lockstep engine that add ints or bools only, each
# with its reason.  Its float sums that reach a decision or an output are
# ``game.left_sum``'s adds from 0.0 over an array's first axis, or the TwoSum
# adds of ``_fits``; numpy's own float reductions sum pairwise, in another
# order.
INT_REDUCTIONS = {
    "eff.sum(1)": "capped targets: int amounts",
    "np.where(leave >= hi[:, None], eff, 0).sum(1)": "caps that bind: int amounts",
    "alloc.sum(1)": "spare or spent quanta of an int allocation",
    "(first & (gains > bestresponse.POLISH_MIN_GAIN)).sum(2)": "adds to each neighbor",
    "count.sum(1)": "adds placed: int amounts",
    "np.maximum(caps - alloc, 0).cumsum(1)": "room up to each cap, ascending: int amounts",
    "lose.sum(1)": "count of matched neighbors",
    "lose.cumsum(1)": "rank among matched neighbors",
    "alloc.sum(2)": "spare quanta of an int random start",
    "start.sum(2)": "spent quanta of an int start",
    "agreed.sum(1)": "realized quanta: int amounts",
    "(own < caps).sum(1)": "win count",
    "(alloc < caps).sum(1)": "win count",
    "(movers := grid[rr]).sum(1)": "mover count",
    "counts.cumsum()": "movers of the runs before",
    "moved.sum(1)": "change of slack: int amounts",
    "slack.reshape(-1, n)[rr[k]].sum()": "total slack: int amounts",
}
REDUCTIONS = {"sum", "cumsum", "nansum", "mean", "average", "reduce", "accumulate",
              "dot", "matmul", "einsum", "inner", "prod", "cumprod", "std", "var"}


def reductions(source: str) -> list[str]:
    """The source of every call of a numpy reduction by name (``np.sum(x)``,
    ``x.sum(1)``, ``np.add.reduce(x)``), and of every ``@``."""
    tree = ast.parse(source)
    return [
        ast.get_source_segment(source, node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in REDUCTIONS
        or isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
    ]


def test_lockstep_reduces_ints_only():
    found = set(reductions((SRC / "lockstep.py").read_text(encoding="utf-8")))
    assert found - INT_REDUCTIONS.keys() == set(), "add floats with game.left_sum"
    assert INT_REDUCTIONS.keys() - found == set(), "stale allowlist entry"


def test_reduction_check_sees_a_float_sum():
    source = (SRC / "lockstep.py").read_text(encoding="utf-8")
    injected = source.replace(
        "return alloc, terms, left_sum(terms[0].T)", "return alloc, terms, terms[0].sum(1)"
    )
    assert injected != source
    assert set(reductions(injected)) - INT_REDUCTIONS.keys() == {"terms[0].sum(1)"}
    assert set(reductions("y = np.sum(x) + np.add.reduce(x, 1) + a @ b\n")) == {
        "np.sum(x)", "np.add.reduce(x, 1)", "a @ b"
    }
