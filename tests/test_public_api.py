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


#: Each entry point with an argument of the wrong type, and what it raises:
#: TypeError naming the type, or LabelFormatError for a bool label value.
WRONG_TYPES = [
    pytest.param(lambda: ltqcube.neighbors_recursive((4, 0)), TypeError,
                 "^neighbors_recursive needs a NodeLabel, got tuple$", id="neighbors_recursive"),
    pytest.param(lambda: ltqcube.Edge((4, 0), (4, 1)), TypeError,
                 "^Edge needs a NodeLabel, got tuple$", id="Edge"),
    pytest.param(lambda: ltqcube.HamiltonianPair(1, 2), TypeError,
                 "^HamiltonianPair needs a Path or Cycle, got int$", id="HamiltonianPair"),
    pytest.param(lambda: ltqcube.residual_analysis(4, 3), TypeError,
                 "^residual_analysis needs a HamiltonianPair, got int$", id="residual_analysis"),
    pytest.param(lambda: ltqcube.simulate_split_broadcast(3), TypeError,
                 "^simulate_split_broadcast needs a HamiltonianPair, got int$",
                 id="simulate_split_broadcast"),
    pytest.param(lambda: ltqcube.search_third_cycle(4, [(0, 1)], 5), TypeError,
                 "^search_third_cycle needs an Edge, got tuple$", id="search_third_cycle"),
    pytest.param(lambda: ltqcube.NodeLabel(4, True), ltqcube.LabelFormatError,
                 "^value must be an integer, got True$", id="NodeLabel"),
    pytest.param(lambda: ltqcube.is_hamiltonian_cycle(4, ["0000"]), TypeError,
                 "^is_hamiltonian_cycle needs a NodeLabel, got str$", id="is_hamiltonian_cycle"),
    pytest.param(lambda: ltqcube.is_hamiltonian_path(4, [(4, 2**40)]), TypeError,
                 "^is_hamiltonian_path needs a NodeLabel, got tuple$", id="is_hamiltonian_path"),
    pytest.param(lambda: ltqcube.verify_pair(4, [1, 2], [3]), TypeError,
                 "^verify_pair needs a NodeLabel, got int$", id="verify_pair"),
    pytest.param(lambda: ltqcube.are_edge_disjoint([ltqcube.NodeLabel(4, 0)], [(4, 1)]),
                 TypeError, "^are_edge_disjoint needs a NodeLabel, got tuple$",
                 id="are_edge_disjoint"),
    pytest.param(lambda: ltqcube.ResidualAnalysis(frozenset()), TypeError,
                 "^ResidualAnalysis needs an EdgeSet, got frozenset$", id="ResidualAnalysis"),
]


@pytest.mark.parametrize("call,error,message", WRONG_TYPES)
def test_a_wrong_typed_argument_is_named(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_from_values_takes_bools_as_the_ints_they_equal():
    walk = ltqcube.Path.from_values(4, [False, True, 3])
    assert walk == ltqcube.Path.from_values(4, [0, 1, 3])
    assert {type(v) for v in walk.values} == {int}
