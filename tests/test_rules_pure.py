"""Source guard: :mod:`repro.core.rules` stays pure.

Each rule Sift's safety rests on is a pure function there, which is what
lets ``tests/test_rules_exhaustive.py`` run the rules with no simulator.
This guard turns "pure" from a convention into a check: the module may
not ``yield``, may not import the simulator, the network, the verbs, the
observability layer or the KV store (directly, relatively or through
``import_module``), and may not keep state in a class with methods.
"""

import ast
from pathlib import Path

RULES = Path(__file__).resolve().parents[1] / "src" / "repro" / "core" / "rules.py"
PACKAGE = ("repro", "core")
FORBIDDEN = ("repro.sim", "repro.net", "repro.rdma", "repro.obs", "repro.kv")


def modules_of(node):
    """Every dotted module name *node* may import, made absolute."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = list(PACKAGE[: len(PACKAGE) + 1 - node.level]) if node.level else []
        module = ".".join(base + ([node.module] if node.module else []))
        return [module] + [f"{module}.{alias.name}" for alias in node.names]
    if isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)
    ) in ("import_module", "__import__"):
        return [arg.value for arg in node.args if isinstance(arg, ast.Constant)]
    return []


def impurities(source):
    """``(line, finding)`` for everything that makes *source* impure."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            found.append((node.lineno, "yield"))
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) for item in node.body
        ):
            found.append((node.lineno, f"class {node.name} has methods"))
        bad = [
            module
            for module in modules_of(node)
            if any(module == prefix or module.startswith(prefix + ".") for prefix in FORBIDDEN)
        ]
        if bad:
            found.append((node.lineno, f"imports {bad[0]}"))
    return sorted(found)


def test_rules_module_is_pure():
    assert impurities(RULES.read_text(encoding="utf-8")) == []


def test_guard_flags_each_impurity():
    source = (
        "from repro.sim.engine import Event\n"
        "import repro.rdma.qp\n"
        "from ..kv import store\n"
        "from repro import obs\n"
        "from . import cpu_node\n"
        "from repro.storage.admin import AdminWord\n"
        "net = importlib.import_module('repro.net.fabric')\n"
        "def rule(x):\n"
        "    yield x\n"
        "class Verdict:\n"
        "    WON = 'won'\n"
        "class Holder:\n"
        "    def decide(self):\n"
        "        return 1\n"
    )
    assert impurities(source) == [
        (1, "imports repro.sim.engine"),
        (2, "imports repro.rdma.qp"),
        (3, "imports repro.kv"),
        (4, "imports repro.obs"),
        (7, "imports repro.net.fabric"),
        (9, "yield"),
        (12, "class Holder has methods"),
    ]
