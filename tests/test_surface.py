"""Every public function, method and property of the package has a caller
in the package, every attribute that a class stores is read in the package,
and every public name that two classes define is listed with its reason.

A public name that no code in ``src/ultrajet`` references is surface that
only tests reach, such as a one-point twin of an array function.  It is
deleted and its tests move onto what the package calls, unless it is on
``ALLOWED`` with its reason.  References are found by name in the parsed
code (docstrings and comments do not count), so a method counts as called
when any attribute of that name is read; only reads count, so the
assignment that defines a property is no reference to it.  A stored
attribute (a dataclass field, or an assignment to ``self.x``) that nothing
reads is state kept for tests only, and is deleted the same way unless it
is on ``ALLOWED_UNREAD``.  Since a read of any class's attribute counts, a
method whose name another class also defines has no caller check of its
own: each such name is on ``SHARED`` with the reason that keeps every
definition of it.  The block size of the array passes over two inputs is
bound in ``jets`` alone, so that one patch of ``jets.INCIDENCE_BLOCK``
splits every pass of a call, and the cap C <= 2^40 of the finite-range
flags and verdicts in ``seqcore`` alone.
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
    "geometry.CubeDecomposition.neighbors":
        "perfbench/tracer.py counts geometry.max_overlap of traced runs with it",
}


ALLOWED_UNREAD = {
    "geometry.CubeDecomposition.collar_centers":
        "tests/test_geometry.py checks that the collar surrounds every set point",
    "geometry.CubeDecomposition.collar_sides":
        "tests/test_geometry.py checks that the collar surrounds every set point",
}

SHARED = {
    "J": "pou.CanonicalBump stores its stage count; pou.PartitionOfUnity.J is that "
         "count for acceptance criterion 7, which replays every bump derivative below it",
    "K_max": "seqcore.WeightSequence stores its last index; fncore.WeightMatrix.K_max "
             "is its rows' for the matrix CSV and the quotient checks",
    "bound": "pou.CanonicalBump.bound feeds the tensor bump bounds; pou.Bump1D.bound "
             "is one dilated bump's, which acceptance criterion 7 replays",
    "eval": "pou.CanonicalBump.eval feeds the tensor bump tables; pou.Bump1D.eval "
            "is one dilated bump's, which acceptance criterion 7 replays",
    "dim": "jets.CompactSet.dim is its points' width; geometry.CubeDecomposition "
           "stores its cubes'",
    "flags": "a sequence's flags (seqcore.WeightSequence) and a weight's "
             "(fncore.WeightFunction), each taken at the first read: the report prints "
             "and checks read both",
    "witnesses": "a sequence's witnesses (seqcore.WeightSequence) and a weight's "
                 "(fncore.WeightFunction), each taken at the first read: the report "
                 "prints both",
    "jet": "cli._Context builds the configured jet once; extend.ExtensionField "
           "stores the jet it extends",
    "pou": "cli._Context builds the configured partition once; extend.ExtensionField "
           "stores the partition it sums over",
    "x_grid": "cli._Context.x_grid is the configured matrix grid; fncore.WeightMatrix "
              "stores the grid of its rows",
    "phi": "fncore.WeightFunction.phi is omega(e^s) for the conjugates; "
           "pou.PartitionOfUnity.phi is one partition function, whose exact supports "
           "acceptance criterion 7 checks",
    "table": "each jets.Preset1D kind tabulates its own derivatives, and jets.Tensor "
             "their products",
    "to_dict": "the report form of conditions.Verdict, conditions.ChainCertificate "
               "and jets.JetCertificate",
}


def _public_members(cls: ast.ClassDef) -> list:
    """The public methods and properties of a class: a ``def``, or a
    ``property`` or ``cached_property`` assigned in the class body."""
    names = []
    for sub in cls.body:
        if isinstance(sub, ast.FunctionDef):
            names.append(sub.name)
        elif (isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call)
              and getattr(sub.value.func, "id", None) in ("property", "cached_property")):
            names += [t.id for t in sub.targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def _public_definitions_and_references():
    """The public functions, methods and properties, and every name that is
    read (an assignment to a name is no reference to it)."""
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                defined += [f"{path.stem}.{node.name}.{name}" for name in _public_members(node)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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


def _methods_by_name():
    """The classes that define each public method or property."""
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for name in _public_members(cls):
                owners.setdefault(name, set()).add(f"{path.stem}.{cls.name}")
    return owners


def test_every_method_name_two_classes_define_is_listed():
    owners = _methods_by_name()
    for name in _stored_attributes_and_reads()[0]:
        owner, attr = name.rsplit(".", 1)
        if attr in owners:
            owners[attr].add(owner)
    shared = {name for name, classes in owners.items() if len(classes) > 1}
    assert sorted(shared - SHARED.keys()) == []
    # an entry whose name one class alone defines now is stale
    assert sorted(SHARED.keys() - shared) == []


def test_only_jets_binds_the_block_size():
    binders = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {n for a in node.names for n in (a.name.rsplit(".", 1)[-1], a.asname)}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = {node.id}
            else:
                continue
            if "INCIDENCE_BLOCK" in names:
                binders.add(path.stem)
    assert binders == {"jets"}


def test_only_seqcore_defines_the_cap():
    """No module but seqcore binds a name of the cap (C_CAP, LOG_C_CAP or
    LOG_CAP, also as an import alias), or writes the cap out as ``2.0 ** 40``
    or ``40.0 * log(2.0)``."""
    names, spelled = {"C_CAP", "LOG_C_CAP", "LOG_CAP"}, {"2.0 ** 40", "40.0 * log(2.0)"}
    definers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                hit = node.id in names
            elif isinstance(node, ast.ImportFrom):
                hit = any(a.asname in names for a in node.names)
            elif isinstance(node, ast.BinOp):
                hit = ast.unparse(node) in spelled
            else:
                continue
            if hit:
                definers.add(path.stem)
    assert definers == {"seqcore"}
