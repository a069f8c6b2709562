#!/usr/bin/env python3
"""Dead-code ratchet: which functions under ``src/repro`` does tier-1 never enter?

Runs the tier-1 suite in-process under a function-entry profiler
(``sys.setprofile`` plus ``threading.setprofile`` for router-side threads;
forked pipe workers keep recording and hand their entries back when they
exit), then prints every function defined under ``src/repro`` that no
test entered, grouped by module, with its line span.

    PYTHONPATH=src python tools/never_entered.py           # report
    PYTHONPATH=src python tools/never_entered.py --check   # fail above CEILING

Arguments after ``--`` go to pytest.  Each listed function is paper
surface lacking a test (add one), an error path (fine), or dead (delete
it); when a PR removes dead code or adds the missing test, lower
``CEILING`` to the new count.  A ``[simplicity]`` PR may not raise it.
"""

from __future__ import annotations

import argparse
import inspect
import multiprocessing.util
import os
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

# Never-entered functions allowed under src/repro (the CI gate).
CEILING = 82

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

# id(code) -> code for every function entered; holding the code object
# keeps its id from being reused by another.
_entered: dict[int, object] = {}
_dump_dir: str | None = None


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _entered[id(code)] = code


def _key(code) -> tuple[str, int, str]:
    return (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)


def _src_keys() -> set[tuple[str, int, str]]:
    prefix = str(SRC.resolve())
    return {
        key for key in map(_key, list(_entered.values()))
        if key[0].startswith(prefix)
    }


def _dump_child_entries() -> None:
    sys.setprofile(None)
    path = os.path.join(_dump_dir, f"worker-{os.getpid()}.txt")
    with open(path, "w") as handle:
        for filename, line, name in _src_keys():
            handle.write(f"{filename}\t{line}\t{name}\n")


class _ForkHook:
    """Re-arms recording in a forked worker: the inherited profiler keeps
    running, and a multiprocessing finalizer (workers leave through
    ``os._exit``, which skips atexit) writes the entries out."""

    def __call__(self, _obj) -> None:
        multiprocessing.util.Finalize(None, _dump_child_entries, exitpriority=100)


_FORK_HOOK = _ForkHook()


def defined_functions() -> dict[tuple[str, int, str], tuple[str, str, int]]:
    """Every ``def`` under src/repro: key -> (module, qualname, lines)."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        filename = os.path.realpath(path)
        stack = [compile(path.read_text(), filename, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_name.startswith("<") or not code.co_flags & inspect.CO_OPTIMIZED:
                continue  # module, class body, lambda or comprehension
            last = max(
                (line for _s, _e, line in code.co_lines() if line is not None),
                default=code.co_firstlineno,
            )
            qualname = getattr(code, "co_qualname", code.co_name)
            out[_key(code)] = (module, qualname, last - code.co_firstlineno + 1)
    return out


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int, str]]]:
    import pytest

    global _dump_dir
    with tempfile.TemporaryDirectory() as dump_dir:
        _dump_dir = dump_dir
        multiprocessing.util.register_after_fork(_FORK_HOOK, _FORK_HOOK)
        threading.setprofile(_profile)
        sys.setprofile(_profile)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        entered = _src_keys()
        for name in os.listdir(dump_dir):
            with open(os.path.join(dump_dir, name)) as handle:
                for row in handle:
                    filename, line, func = row.rstrip("\n").split("\t")
                    entered.add((filename, int(line), func))
    return int(status), entered


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help=f"exit 1 when more than CEILING ({CEILING}) functions are never entered",
    )
    parser.add_argument("pytest_args", nargs="*", help="passed to pytest (after --)")
    args = parser.parse_args()
    os.chdir(ROOT)
    status, entered = run_traced(args.pytest_args)
    defined = defined_functions()
    never = sorted(
        (info for key, info in defined.items() if key not in entered),
        key=lambda info: (info[0], info[1]),
    )
    by_module = defaultdict(list)
    for module, qualname, lines in never:
        by_module[module].append((qualname, lines))
    print()
    for module, funcs in by_module.items():
        print(f"{module} ({len(funcs)})")
        for qualname, lines in funcs:
            print(f"    {qualname}  [{lines} lines]")
    total_lines = sum(lines for _m, _q, lines in never)
    print(
        f"\nnever entered: {len(never)} of {len(defined)} functions in "
        f"src/repro ({total_lines} lines); ceiling {CEILING}"
    )
    if status != 0:
        print(f"pytest exited with status {status}", file=sys.stderr)
        return status
    if args.check and len(never) > CEILING:
        print(
            f"dead-code ratchet: {len(never)} never-entered functions exceed "
            f"the ceiling of {CEILING}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
