"""Source guard: nothing under ``src/repro`` works out what kind of
cluster it was handed.

The four cluster classes say what they are through one set of members
(the table in :mod:`repro.bench.systems`), so a ``hasattr`` /
``getattr`` / ``isinstance`` on a cluster is a consumer re-deriving an
answer the cluster already gives.  The one allowed site is
``adapter_for``'s "is this a cluster at all" check.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBES = {"hasattr", "getattr", "isinstance"}
#: How consumers spell "the cluster I was handed".
CLUSTER_EXPRESSIONS = {
    "cluster", "inner", "self.cluster", "self.inner", "runner.cluster",
}
ALLOWED = {("repro/chaos/adapters.py", "adapter_for")}


def probes_in(source: str):
    """``(enclosing function, line)`` of every type probe of a cluster."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in PROBES
            and node.args
            and ast.unparse(node.args[0]) in CLUSTER_EXPRESSIONS
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_no_module_probes_a_clusters_type():
    violations = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for function, line in probes_in(path.read_text(encoding="utf-8")):
            if (relative, function) not in ALLOWED:
                violations.append(f"{relative}:{line}")
    assert violations == [], (
        "cluster type probe (read the member the cluster provides "
        "instead; see repro.bench.systems): " + ", ".join(violations)
    )


def test_guard_flags_a_probe():
    source = (
        "def pick(cluster):\n"
        "    if hasattr(cluster, 'groups'):\n"
        "        return getattr(self.inner, 'pool', None)\n"
        "    return getattr(sampler, 'n_shards', None)\n"
    )
    assert probes_in(source) == [("pick", 2), ("pick", 3)]
