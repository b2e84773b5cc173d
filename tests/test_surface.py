"""Every public function and method of the package has a caller in the package.

A public name that no code in ``src/ultrajet`` references is surface that
only tests reach, such as a one-point twin of an array function.  It is
deleted and its tests move onto what the package calls, unless it is on
``ALLOWED`` with its reason.  References are found by name in the parsed
code (docstrings and comments do not count), so a method counts as called
when any attribute of that name is read.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ultrajet"

ALLOWED = {
    "seqcore.omega_assoc": "acceptance criterion 5 compares it with counting_integral",
    "seqcore.counting_integral": "acceptance criterion 5 compares it with omega_assoc",
    "geometry.CubeDecomposition.expanded_halfwidth":
        "acceptance criterion 7 samples the expanded cubes with it",
    "geometry.CubeDecomposition.cubes_containing":
        "acceptance criteria 8 and 9 pick a point's cubes with it",
    "pou.PartitionOfUnity.bumps": "acceptance criterion 7 reads the one-axis bumps",
    "jets.taylor_grid": "the per-point Taylor field, the reference that the "
                        "Taylor-sum oracles compare the shared kernel against",
}


def _public_definitions_and_references():
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                defined += [f"{path.stem}.{node.name}.{sub.name}" for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_public_name_has_a_caller_in_src():
    defined, referenced = _public_definitions_and_references()
    uncalled = {name for name in defined if name.rsplit(".", 1)[-1] not in referenced}
    assert sorted(uncalled - ALLOWED.keys()) == []
    # an entry whose name is gone, or has gained a caller, is stale
    assert sorted(ALLOWED.keys() - uncalled) == []
