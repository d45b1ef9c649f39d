"""Source guard: a figure's inputs are stated once, in its ``params``.

``--smoke`` is read by a figure's ``params(smoke, scale)`` callable and
by nothing downstream of it: a point builder or point function that
took ``smoke`` again would re-derive a schedule the artifact's
``params`` section already records, and a gate would then read a copy
of what ran.  Likewise only :func:`repro.bench.cli.main`,
``_run_one`` and the three commands that are not figures see the
argparse namespace or print; renderers return strings and
``run_figure`` is callable from a test or a sweep.
"""

import ast
import inspect

from repro.bench import cli, points

#: ``points.py`` functions that may take ``smoke``: every figure's
#: ``params`` callable (``functools.partial`` unwrapped), and the helper
#: three of them share.
PARAMS_CALLABLES = {
    getattr(figure.params, "func", figure.params).__name__
    for figure in cli.FIGURES.values()
    if isinstance(figure, cli.Figure)
}
MAY_TAKE_SMOKE = PARAMS_CALLABLES | {"saturation_clients"}

#: ``cli.py`` functions that may read ``args.<flag>`` and ``print``.
MAY_SEE_ARGS = {"main", "_run_one", "cmd_table1", "cmd_table2", "cmd_throughput"}


def takes_smoke(source: str):
    """Every function of *source* with a parameter named ``smoke``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            spec = node.args
            names = [a.arg for a in spec.posonlyargs + spec.args + spec.kwonlyargs]
            if "smoke" in names:
                found.append(getattr(node, "name", "<lambda>"))
    return found


def args_reads_and_prints(source: str):
    """``(top-level function, what, line)`` for every ``args.<x>`` read
    and ``print(`` call of *source*; ``None`` for module level."""
    found = []

    def visit(node, function):
        if function is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        ):
            found.append((function, "args", node.lineno))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            found.append((function, "print", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_params_callables_take_smoke():
    assert len(PARAMS_CALLABLES) == 13  # fifteen figures, two shared pairs
    offenders = set(takes_smoke(inspect.getsource(points))) - MAY_TAKE_SMOKE
    assert not offenders, (
        f"{sorted(offenders)} take `smoke`: take the field of `params` it "
        "selected instead (see repro.bench.points)"
    )


def test_only_the_entry_points_see_args_or_print():
    sites = args_reads_and_prints(inspect.getsource(cli))
    offenders = [site for site in sites if site[0] not in MAY_SEE_ARGS]
    assert not offenders, (
        "only main, _run_one and the non-figure commands read `args.` or "
        f"print (renderers return strings): {offenders}"
    )
    assert {function for function, _what, _line in sites} == MAY_SEE_ARGS


def test_run_figure_is_the_only_caller_of_run_points():
    calls = [
        node
        for node in ast.walk(ast.parse(inspect.getsource(cli)))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "run_points"
    ]
    assert len(calls) == 1
    assert "run_points(" in inspect.getsource(cli.run_figure)


def test_guards_flag_what_they_guard():
    source = (
        "def fig_points(params, scale, seed, smoke):\n"
        "    pass\n"
        "def render(simulated, params):\n"
        "    print(args.jobs)\n"
        "    return lambda smoke: smoke\n"
    )
    assert takes_smoke(source) == ["fig_points", "<lambda>"]
    assert args_reads_and_prints(source) == [("render", "print", 4), ("render", "args", 4)]
