"""Every public function and method of the package has a caller in the
package, and every attribute that a class stores is read in the package.

A public name that no code in ``src/ultrajet`` references is surface that
only tests reach, such as a one-point twin of an array function.  It is
deleted and its tests move onto what the package calls, unless it is on
``ALLOWED`` with its reason.  References are found by name in the parsed
code (docstrings and comments do not count), so a method counts as called
when any attribute of that name is read.  A stored attribute (a dataclass
field, or an assignment to ``self.x``) that nothing reads is state kept for
tests only, and is deleted the same way unless it is on ``ALLOWED_UNREAD``.
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


ALLOWED_UNREAD = {
    "geometry.CubeDecomposition.collar_centers":
        "tests/test_geometry.py checks that the collar surrounds every set point",
    "geometry.CubeDecomposition.collar_sides":
        "tests/test_geometry.py checks that the collar surrounds every set point",
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _stored_attributes_and_reads():
    """The attributes each class stores, as module.Class.attr, and every
    name that is read as an attribute or passed to a call as a string
    constant (``WeightMatrix.stack("logM")`` reads its rows' tables with
    ``getattr``)."""
    stored, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            owner = f"{path.stem}.{cls.name}"
            if _is_dataclass(cls):
                stored |= {f"{owner}.{n.target.id}" for n in cls.body
                           if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    stored.add(f"{owner}.{node.attr}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Call):
                read |= {a.value for a in node.args + [k.value for k in node.keywords]
                         if isinstance(a, ast.Constant) and isinstance(a.value, str)}
    return stored, read


def test_every_stored_attribute_is_read_in_src():
    stored, read = _stored_attributes_and_reads()
    unread = {name for name in stored if name.rsplit(".", 1)[-1] not in read}
    assert sorted(unread - ALLOWED_UNREAD.keys()) == []
    assert sorted(ALLOWED_UNREAD.keys() - unread) == []
