#!/usr/bin/env python
"""Lint: no bare ``print`` in library code under ``src/repro/``.

Library modules publish through :mod:`repro.obs` (metrics, tracer,
artifacts); stdout belongs to the CLI entry points.  A ``print`` call
is *bare* when it writes to stdout — i.e. has no ``file=`` keyword.
Explicit ``print(..., file=sys.stderr)`` diagnostics are allowed
anywhere; bare prints are allowed only in the CLI modules listed in
``CLI_MODULES``.

Run from the repo root (CI does)::

    python tools/check_no_print.py

Exit status 1 lists every violation as ``path:line``.  The tier-1 test
``tests/test_no_bare_print.py`` runs the same scan so violations fail
locally before CI.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Iterator, List, Tuple

#: Modules whose job is terminal output: argparse CLIs and the report
#: helpers they print through.
CLI_MODULES = frozenset(
    {
        "repro/bench/cli.py",
        "repro/obs/compare.py",
        "repro/obs/export.py",
    }
)


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _iter_sources(root: str) -> Iterator[Tuple[str, str]]:
    """(relative-to-src path, absolute path) for every library module."""
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(os.path.join(src, "repro")):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            absolute = os.path.join(dirpath, filename)
            yield os.path.relpath(absolute, src).replace(os.sep, "/"), absolute


def _bare_prints(tree: ast.AST) -> List[int]:
    """Line numbers of ``print(...)`` calls with no ``file=`` argument."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "print"):
            continue
        if any(keyword.arg == "file" for keyword in node.keywords):
            continue
        lines.append(node.lineno)
    return lines


def scan(root: str) -> List[str]:
    """Every violation in *root* as ``src/<module>:<line>`` strings."""
    violations = []
    for relative, absolute in _iter_sources(root):
        if relative in CLI_MODULES:
            continue
        with open(absolute, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=absolute)
        for line in _bare_prints(tree):
            violations.append(f"src/{relative}:{line}")
    return sorted(violations)


def main() -> int:
    violations = scan(_repo_root())
    if violations:
        print(
            f"{len(violations)} bare print(s) in library code "
            "(route output through repro.obs, print(file=sys.stderr), "
            "or add the module to CLI_MODULES if it is a CLI):",
            file=sys.stderr,
        )
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
