"""Library lines that no test executes: a pytest plugin that tier-1 never
loads.  Run it from the repository root with

    PYTHONPATH=src:tests python -m pytest -q -p linecov

After the run it prints, for each module of ``src/permdeg``, the lines
inside functions that no test phase executed, with their source.

The tracer is ``sys.settrace`` and ``threading.settrace``, armed again at
every test phase (setup, call and teardown): a test that installs a tracer
of its own, or clears it, would otherwise end the recording for the rest
of the run.  Two kinds of lines read as unexecuted though they run:

- code run in a fresh interpreter is not traced: ``tests/test_source.py``'s
  ``_fresh`` and the tests that start the CLI or the benchmark as a
  subprocess;
- module-level lines (imports, constants, class bodies, the ``def`` lines
  of methods) run once, at import, before the first test phase is traced.
  They are left out of the report; only lines of function bodies, lambdas
  and comprehensions are listed.
"""

from __future__ import annotations

import importlib.util
import inspect
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

_PACKAGE = "permdeg"

# absolute file -> lines executed there
_executed: dict[str, set[int]] = defaultdict(set)
# co_filename -> the absolute file when it is a library module, else None
_library: dict[str, str | None] = {}
_files: set[str] = set()


def _library_file(name: str) -> str | None:
    if name not in _library:
        path = os.path.realpath(name)
        _library[name] = path if path in _files else None
    return _library[name]


def _trace(frame, event, arg):
    path = _library_file(frame.f_code.co_filename)
    if path is None:
        return None
    lines = _executed[path]
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _arm() -> None:
    sys.settrace(_trace)
    threading.settrace(_trace)


def pytest_configure(config):
    spec = importlib.util.find_spec(_PACKAGE)
    directory = Path(next(iter(spec.submodule_search_locations)))
    _files.update(os.path.realpath(path) for path in directory.glob("*.py"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    _arm()
    return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    _arm()
    return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    _arm()
    return (yield)


def _function_lines(path: str) -> set[int]:
    """The lines of every function, lambda and comprehension code object
    compiled from ``path``: those with ``CO_OPTIMIZED`` set, which module
    and class bodies lack."""
    source = Path(path).read_text(encoding="utf-8")
    stack = [compile(source, path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        stack.extend(const for const in code.co_consts if inspect.iscode(const))
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    terminalreporter.section("library lines no test executed")
    for path in sorted(_files):
        lines = _function_lines(path)
        missed = sorted(lines - _executed[path])
        source = Path(path).read_text(encoding="utf-8").splitlines()
        write(f"{Path(path).name}: {len(missed)} of {len(lines)} lines unexecuted")
        for line in missed:
            write(f"  {line:5}  {source[line - 1].strip()}")
