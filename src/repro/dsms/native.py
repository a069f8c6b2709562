"""Host C-compiler probe, the last piece of the retired native tier.

Nothing in ``src/`` compiles or loads C any more; this stays only because
``benchmarks/e2e/measure.py`` imports it for its informational ``meta``
record.  Delete the module once that import goes.
"""

import shutil

__all__ = ["find_compiler"]


def find_compiler() -> str | None:
    """Path of the first of ``cc``/``gcc``/``clang`` on PATH, else None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None
