"""The package's public surface: `__all__` names exactly what it exports,
and importing the CLI loads only what a CLI process needs."""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import ltqcube
from ltqcube import broadcast, cli, construction, errors, topology, verify

#: Each was one line over a name that stays; the README lists the equivalents.
REMOVED = (
    "JunctionError",
    "LtqGraph",
    "base_paths_ltq4",
    "concat_paths",
    "cross_neighbor",
    "repeat_bits",
    "reverse_path",
    "subcube_of",
    "successive_bits_property",
)


def test_all_is_every_public_name():
    public = {
        name
        for name, value in vars(ltqcube).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(ltqcube.__all__)
    assert len(ltqcube.__all__) == len(public)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert name not in ltqcube.__all__
    for module in (ltqcube, broadcast, cli, construction, errors, topology, verify):
        assert not hasattr(module, name)


def _modules_after_cli_import(*flags: str) -> list[str]:
    """The modules `import ltqcube.cli` leaves loaded in a fresh interpreter."""
    src = str(Path(ltqcube.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    probe = "import sys, ltqcube.cli; print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, *flags, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every CLI process pays for `import ltqcube.cli`, and `dataclasses`
    would add `inspect`, `ast` and `dis` to it."""
    assert not {"dataclasses", "inspect"} & set(_modules_after_cli_import())


def test_cli_import_loads_no_typing():
    """The package's annotation names come from `collections.abc`, so a plain
    interpreter (-S: no site-packages start-up hooks) loads no `typing`."""
    assert "typing" not in _modules_after_cli_import("-S")
