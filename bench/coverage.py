"""Line coverage of src/rtpshape by tier-1: the function-body lines no test
runs. Standard library and pytest only; not part of the tests, and run as
its own CI step.

    python3 bench/coverage.py [--out unreached.json]

Runs tier-1 in this process under a sys.settrace hook that records lines in
src/rtpshape frames only, then writes JSON: `unreached`, the count, and
`lines`, the unreached line numbers by file. It exits 1 when any line is
unreached or any test fails, and 0 when every line ran and every test
passed. A function body's lines are those its code objects (nested ones
too) map an instruction to, but for the `def` line; a docstring maps none.
Subprocesses (the demos, the scale bench's child) are not followed. Traced,
tier-1 takes a few minutes. This run deselects
`tests/test_acceptance.py::test_7_determinism_and_scale`: under the tracer
its `best < 5.0` s wall-time bound always fails, and every line it runs is
reached by other tests. Tier-1 run untraced keeps it.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rtpshape"
sys.path.insert(0, str(PACKAGE.parent))


def body_lines(code) -> set[int]:
    """The lines of every function body in `code`, a module's or a function's."""
    lines = set()
    if code.co_flags & inspect.CO_OPTIMIZED:  # a function's code, not a module's or a class's
        lines = {line for _, _, line in code.co_lines() if line} - {code.co_firstlineno}
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= body_lines(const)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the JSON here, not to stdout")
    args = parser.parse_args(argv)
    ran: dict[str, set[int]] = {str(path): set() for path in PACKAGE.glob("*.py")}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return None if lines is None else local

    import pytest
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), "--deselect",
                              "tests/test_acceptance.py::test_7_determinism_and_scale"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unreached = {}
    for name in sorted(ran):
        code = compile(Path(name).read_text(encoding="utf-8"), name, "exec")
        if missed := sorted(body_lines(code) - ran[name]):
            unreached[Path(name).relative_to(ROOT).as_posix()] = missed
    text = json.dumps({"unreached": sum(map(len, unreached.values())), "lines": unreached})
    if args.out:
        args.out.write_text(text + "\n", encoding="ascii")
    else:
        print(text)
    return 1 if unreached or status else 0


if __name__ == "__main__":
    sys.exit(main())
