"""The lines of the package that no tier-1 test runs.

    python tests/unreached_lines.py                 # the whole tier-1 suite
    python tests/unreached_lines.py tests/test_seed.py ...   # pytest arguments

Runs pytest in this process, on the test paths that pyproject.toml names
unless arguments are given, under a sys.settrace line tracer, and prints
every executable line under src/yperiod that no test ran, one per line as
path:line and the line's text.  A line is executable when the compiler
gives it an instruction, read from the code objects of its module.  Code
that runs only in a child process is not traced, so it is listed.  The
traced suite takes about a minute, so this runs on request and not in
tier-1.  Exits with pytest's status.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path
from typing import Dict, List, Optional, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "yperiod"


def executable_lines(path: Path) -> Set[int]:
    """The lines of a module that some instruction of its code belongs to."""
    lines: Set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the package comes from this checkout, whatever PYTHONPATH says
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    ran: Dict[str, Set[int]] = {str(p): set() for p in sorted(PACKAGE.glob("*.py"))}
    # co_filename -> the lines run in that file, or None outside the package
    by_name: Dict[str, Optional[Set[int]]] = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(os.path.realpath(name))
        lines = by_name[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    for path, lines in ran.items():
        text = Path(path).read_text().splitlines()
        for line in sorted(executable_lines(Path(path)) - lines):
            print(f"{Path(path).relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
