"""Source guard: nothing under ``src/repro`` works out what kind of
cluster it was handed.

The four cluster classes say what they are through one set of members
(the table in :mod:`repro.bench.systems`), so a ``hasattr`` /
``getattr`` / ``isinstance`` on a cluster is a consumer re-deriving an
answer the cluster already gives; no site is exempt.

Two sibling guards keep the layer above the clusters single-pathed:
only :mod:`repro.api` stands up a ``Simulator`` under ``src/`` (the
test scaffolding in ``tests/testing.py`` is outside it), so every
driver boots through ``Cluster``; and only
:mod:`repro.bench.lincheck` records an ``Op``, so every checked history
comes from its ``RecordingClient``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBES = {"hasattr", "getattr", "isinstance"}
#: How consumers spell "the cluster I was handed".
CLUSTER_EXPRESSIONS = {
    "cluster", "inner", "self.cluster", "self.inner", "runner.cluster",
}
ALLOWED = set()
#: The modules that may construct a ``Simulator``.
SIMULATOR_BUILDERS = {"repro/api.py"}


def sources():
    for path in sorted((SRC / "repro").rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text(encoding="utf-8")


def calls_in(source: str, name: str):
    """Line of every call of *name* (``name(...)`` or ``x.name(...)``)."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]


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
    for relative, source in sources():
        for function, line in probes_in(source):
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


def test_only_the_front_door_builds_a_simulator():
    builders = {
        relative for relative, source in sources() if calls_in(source, "Simulator")
    }
    assert builders == SIMULATOR_BUILDERS, (
        "stand the system up through repro.api.Cluster instead"
    )


def test_only_lincheck_records_an_op():
    recorders = [
        relative
        for relative, source in sources()
        for call in ast.walk(ast.parse(source))
        if isinstance(call, ast.Call)
        and getattr(call.func, "attr", None) == "record"
        and call.args
        and isinstance(call.args[0], ast.Call)
        and getattr(call.args[0].func, "id", None) == "Op"
    ]
    assert set(recorders) == {"repro/bench/lincheck.py"}


def test_guard_flags_a_simulator_call():
    assert calls_in("sim = Simulator()\nx = engine.Simulator()\ny: Simulator\n",
                    "Simulator") == [1, 2]
