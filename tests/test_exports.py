"""Every public callable of the package has a caller in the program: in
``src/fklab``, a demo or the benchmark.  Public callables are the callables
in ``fklab.__all__`` and every public module-level function and public method
(properties included) of a public class in ``src/fklab``.  Names are read
from the syntax tree (names and attributes), so a mention in a docstring or
comment does not count.
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

#: Public names with no caller in the program yet, kept for a stated use.
KEPT = {
    "support_vertices": "RContour.support_vertices is decompose's documented order key, "
                        "and ROADMAP item 3 reads the sum of |support|",
    "thermalization_diagnostic": "its verdict goes into run telemetry (ROADMAP item 1), "
                                 "which has no caller yet",
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


def _public_definitions() -> set:
    """The public module-level functions and public methods of public classes."""
    names = set()
    for path in (ROOT / "src" / "fklab").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) and not node.name.startswith("_") else [node]
            names.update(m.name for m in members
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
    return names


def test_every_public_callable_has_a_program_caller():
    public = {name for name in fklab.__all__ if callable(getattr(fklab, name))} | _public_definitions()
    exempt = set(ORACLES) | set(KEPT)
    assert exempt <= public
    uncalled = public - _program_names()
    assert uncalled == exempt, sorted(uncalled ^ exempt)
