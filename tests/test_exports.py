"""Every public callable of the package has a caller in the program: in
``src/fklab``, a demo or the benchmark.  Names are read from the syntax tree
(names and attributes), so a mention in a docstring or comment does not count.
"""

import ast
from pathlib import Path

import fklab

ROOT = Path(__file__).resolve().parent.parent

#: Paper formulas with no caller in the program, kept as test oracles.
ORACLES = {
    "plaquette_potential": "the paper's h_p (values -16/-12/0), criterion 1 checks it on all 16 patterns",
    "nnn_potential": "the paper's distance-2 potential h_xz (values 0/-2), checked in criterion 1",
    "bosonic_plaquette_potential": "the Bose h_p, which shows staircase selection comes from Fermi statistics",
    "peierls_check": "the Peierls bound E(gamma) >= (c0/U)|gamma| behind 100 rigidity",
}


def _program_names() -> set:
    files = [*(ROOT / "src" / "fklab").glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_callable_has_a_program_caller():
    public = {name for name in fklab.__all__ if callable(getattr(fklab, name))}
    assert set(ORACLES) <= public
    uncalled = public - _program_names()
    assert uncalled == set(ORACLES), sorted(uncalled ^ set(ORACLES))
