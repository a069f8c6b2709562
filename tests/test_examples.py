"""Smoke test: every ``examples/*.py`` script's ``main()`` runs to the end.

The examples are the documented entry points into the library; running
them here means an API change that breaks one fails tier-1 instead of
going unnoticed.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_main_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()
