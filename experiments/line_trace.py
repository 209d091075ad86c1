"""List the statements of ``src/pimlite`` that the test suite never runs.

No coverage package is needed: the script runs the suite (``tests/``) in
this process under a ``sys.settrace`` / ``threading.settrace`` hook that
records the lines executed in ``src/pimlite``, then parses every module there
and reports each statement (docstrings excluded) none of whose own lines ran.
A compound statement's own lines are its header: decorators up to the line
before its body.  Statements reached only in a child process, such as the
demos that ``tests/test_demos.py`` starts, count as never run::

    python3 experiments/line_trace.py            # the whole suite
    python3 experiments/line_trace.py -x         # extra arguments go to pytest

Exit status: pytest's, when a test fails; 1 when a statement that never ran
is missing from ``ALLOWLIST`` or an allowlisted statement now runs; else 0.
Tracing roughly doubles the suite's wall time, which is why the script is
not part of the suite.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pimlite"

_MODEL_WRONG = ("reached only when the model is wrong; the check's pass and "
                "report paths are tested with stubs")

# (module, statement source with each line stripped and joined by one space)
# -> why the suite cannot or need not run it
ALLOWLIST = {
    ("harness.py", "sys.exit(main())"):
        "runs only as a script; tests call main() directly",
    ("harness.py",
     'failures.append(f"{name} cores={cores} total={total} seed={spec.seed}")'):
        _MODEL_WRONG,
    ("harness.py", 'failures.append(f"roundtrip ts={ts} len={length} cores={cores}")'):
        _MODEL_WRONG,
    ("harness.py", "continue"): _MODEL_WRONG,
    ("harness.py", 'failures.append(f"allgather ts={ts} len={length} core={core}")'):
        _MODEL_WRONG,
    ("harness.py", "break"): _MODEL_WRONG,
    ("harness.py", 'problems.append(f"{name}: oracle mismatch during audit run")'):
        _MODEL_WRONG,
    ("harness.py", 'failures.append(f"bins={bins}")'): _MODEL_WRONG,
    ("harness.py", 'problems.append(f"weak per-core traffic varies: {per_core}")'):
        _MODEL_WRONG,
    ("harness.py",
     'problems.append( f"strong total {total} deviates from {totals[0]} beyond {bound}")'):
        _MODEL_WRONG,
}

_BODIES = ("body", "orelse", "finalbody", "handlers", "cases")


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            and getattr(parent, "body", [None])[0] is node)


def statements(source: str):
    """``(first line, own lines, key text)`` of every statement in ``source``
    except docstrings, in line order."""
    lines = source.splitlines()
    tree = ast.parse(source)
    found = []
    for parent in ast.walk(tree):
        for field in _BODIES:
            children = getattr(parent, field, [])
            for node in children if isinstance(children, list) else []:
                if not isinstance(node, ast.stmt) or _is_docstring(node, parent):
                    continue
                first = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", [])])
                body = [child.lineno for f in _BODIES
                        for child in getattr(node, f, [])]
                last = min(body) - 1 if body else node.end_lineno
                own = range(first, last + 1)
                text = " ".join(lines[i - 1].strip() for i in own).rstrip(":")
                found.append((node.lineno, own, text))
    return sorted(found)


def trace_suite(pytest_args) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``tests/`` in this process; return its exit code and the
    lines executed per file of the package."""
    root = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    sys.path.insert(0, str(ROOT / "src"))  # this checkout's package
    import pytest

    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv=None) -> int:
    code, hits = trace_suite(sys.argv[1:] if argv is None else argv)
    if code:
        print(f"pytest exited {code}; no trace report", file=sys.stderr)
        return code
    never = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        for line, own, text in statements(path.read_text()):
            if ran.isdisjoint(own):
                never.append((path.name, text))
                mark = "allowed" if (path.name, text) in ALLOWLIST else "NEW"
                print(f"{mark:8s}{path.name}:{line}: {text}")
    new = [key for key in never if key not in ALLOWLIST]
    stale = sorted(ALLOWLIST.keys() - set(never))
    for name, text in stale:
        print(f"RUNS    {name}: {text} (allowlisted, but the suite now runs it)")
    print(f"{len(never)} statements never ran, {len(new)} of them not "
          f"allowlisted; {len(stale)} allowlisted statements ran")
    return 1 if new or stale else 0

if __name__ == "__main__":
    sys.exit(main())
