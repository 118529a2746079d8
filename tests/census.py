"""Statement census: which statements of ``src/repro`` does a test run reach?

Standard library only (``sys.settrace``); loading the plugin is the opt-in::

    python -m pytest -p tests.census -q                      # per-module table
    python -m pytest -p tests.census -q tests/test_engine.py \\
        --census-require src/repro/sim/engine.py             # must be 100 %
    python -m pytest -p tests.census -q --census-require src/repro  # every module

A *statement* is an ``ast.stmt`` whose first line carries bytecode (which
leaves out docstrings, ``global`` and bare annotations); it is *executed*
when the tracer sees a line event on that line.  Tracing starts before any
test module imports ``repro``, so module-level statements count too.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PREFIX = str(ROOT / "src" / "repro")
_seen: set = set()  # (filename, line) of every line event under PREFIX


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None  # no line events for frames outside the package
    _seen.add((filename, frame.f_lineno))
    return _trace


def statements(path: Path) -> set:
    """First lines of the executable statements of one source file."""
    source = path.read_text(encoding="utf-8")
    coded, pending = set(), [compile(source, str(path), "exec")]
    while pending:
        code = pending.pop()
        coded.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    nodes = ast.walk(ast.parse(source))
    return {n.lineno for n in nodes if isinstance(n, ast.stmt)} & coded


def pytest_addoption(parser):
    parser.addoption(
        "--census-require",
        action="append",
        default=[],
        metavar="PATH",
        help="fail unless every statement of PATH (a file, or every .py file "
        "under a directory) was executed (repeatable)",
    )


def pytest_configure(config):
    sys.settrace(_trace)


def pytest_sessionfinish(session):
    sys.settrace(None)
    config = session.config
    report = config.pluginmanager.get_plugin("terminalreporter")
    report.write_line("")
    required = []
    for name in config.getoption("--census-require"):
        path = ROOT / name
        required.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    missed_total = total = 0
    for path in required or sorted(Path(PREFIX).rglob("*.py")):
        lines = statements(path)
        missed = sorted(n for n in lines if (str(path), n) not in _seen)
        missed_total += len(missed)
        total += len(lines)
        if missed:
            where = f": lines {missed}" if required else ""
            report.write_line(
                f"census {path.relative_to(ROOT)} {len(missed)}/{len(lines)}{where}"
            )
    report.write_line(f"census: {missed_total} of {total} statements never executed")
    if required and missed_total:
        session.exitstatus = 1
