"""The package's public names, and the README tables that name them."""

import fnmatch
import importlib
import re
from pathlib import Path

import pytest

from cilqr_drive.config import _REGISTRY

README = (Path(__file__).parent.parent / "README.md").read_text()


@pytest.mark.parametrize("module", ["cilqr_drive", "cilqr_drive.sim"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def _table(header: str) -> list[list[str]]:
    """Cells of the README table under the given header row."""
    lines = README.splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:   # past the |---| row
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert rows
    return rows


def _ticked(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def test_readme_config_examples_are_registry_keys():
    # each backticked example (the part before a "/") matches a key of
    # its row's section, so a renamed or deleted key cannot stay listed
    stale = []
    for section, _, examples in _table("| section | covers | examples |"):
        (pattern,) = _ticked(section)
        keys = [key.split(".", 1)[1] for key in _REGISTRY
                if fnmatch.fnmatch(key, pattern)]
        stale += [(pattern, name) for name in _ticked(examples)
                  if not fnmatch.filter(keys, name.split("/")[0])]
    assert stale == []


def test_readme_constants_exist_in_their_modules():
    missing = []
    for names, _, module in _table("| constant | value | module |"):
        (module,) = _ticked(module)
        mod = importlib.import_module(f"cilqr_drive.{module}")
        missing += [(module, name) for name in _ticked(names)
                    if not hasattr(mod, name)]
    assert missing == []
