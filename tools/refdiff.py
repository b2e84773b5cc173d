"""Leaf-by-leaf difference of two output trees of ``tools/corpus.py``.

    python3 tools/refdiff.py OLD NEW

Prints one line per changed leaf: the job (its directory), the file, the
key path, the old and new values and the relative change.  A leaf of a JSON
file is a number, string, boolean or null at a key path such as
``verdicts[0].holds``; a leaf of a CSV is one cell, at ``<row>.<column>``
(row 1 is the first row under the header).  A ``holds`` that flips is
marked ``FLIP``, and a key, cell or file that appears or disappears
``ADDED`` or ``REMOVED``.  A file whose leaves agree and whose bytes do not
is one line, ``BYTES``.  Exits 0 when the trees are identical, 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

MISSING = object()


def leaves(node, path=""):
    """The (key path, value) of every leaf of a parsed JSON value; an empty
    object or list is a leaf too."""
    if isinstance(node, dict) and node:
        items = ((f"{path}.{k}" if path else k, v) for k, v in node.items())
    elif isinstance(node, list) and node:
        items = ((f"{path}[{k}]", v) for k, v in enumerate(node))
    else:
        yield path, node
        return
    for sub, child in items:
        yield from leaves(child, sub)


def file_leaves(text: str, suffix: str) -> dict:
    if suffix == ".json":
        return dict(leaves(json.loads(text)))
    if suffix == ".csv":
        header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
        return {f"{r}.{column}": cell for r, row in enumerate(rows, 1)
                for column, cell in zip(header, row)}
    return {"": text}


def relative(old, new) -> str:
    number = (int, float)
    if not (isinstance(old, number) and isinstance(new, number)) or isinstance(old, bool):
        return ""
    return f"  rel {(new - old) / abs(old):+.3g}" if old else "  rel inf"


def diff_file(job: str, name: str, old: Path | None, new: Path | None) -> list:
    if old is None or new is None:
        return [f"{job}  {name}  {'ADDED' if old is None else 'REMOVED'}"]
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return []
    la, lb = (file_leaves(x.decode(), old.suffix) for x in (a, b))
    lines = []
    for key in list(la) + [k for k in lb if k not in la]:
        u, v = la.get(key, MISSING), lb.get(key, MISSING)
        if u is MISSING or v is MISSING:
            mark = "ADDED" if u is MISSING else "REMOVED"
            lines.append(f"{job}  {name}  {key}  {mark}  {v if u is MISSING else u!r}")
        elif u != v or type(u) is not type(v):
            flip = "  FLIP" if key.rsplit(".", 1)[-1] == "holds" else ""
            lines.append(f"{job}  {name}  {key}  {u!r} -> {v!r}{relative(u, v)}{flip}")
    return lines or [f"{job}  {name}  BYTES"]


def refdiff(old_root: Path, new_root: Path) -> list:
    """The lines of every changed leaf of the two trees, in path order."""
    files = {}
    for side, root in enumerate((old_root, new_root)):
        for path in root.rglob("*"):
            if path.is_file():
                files.setdefault(path.relative_to(root), [None, None])[side] = path
    lines = []
    for rel in sorted(files):
        lines += diff_file(str(rel.parent), rel.name, *files[rel])
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/refdiff.py OLD NEW", file=sys.stderr)
        return 2
    lines = refdiff(Path(argv[0]), Path(argv[1]))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
