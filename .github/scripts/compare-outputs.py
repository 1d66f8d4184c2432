"""Compare two output trees byte for byte, apart from "timestamp" lines and
from the fields that a declared-change manifest names.

    python .github/scripts/compare-outputs.py BASE_OUT HEAD_OUT BASE_COMMIT [MANIFEST]

BASE_OUT and HEAD_OUT hold the same relative file names, written by the
base and the head tree.  Every file must match byte for byte once lines
that contain "timestamp" are dropped, unless MANIFEST applies to it.

MANIFEST is a JSON object

    {"base": "<full commit id>",
     "files": {"<glob>": {"<field or column>": <absolute bound>, ...}, ...}}

It applies only when "base" is BASE_COMMIT, the commit of the compared base
tree; otherwise it is ignored and the comparison stays byte-strict.  A glob
matches a file name relative to the output tree (``shipped/gap_kitaev_table.csv``).
In a matching file, only the named numbers may move, each by at most its
bound: in a JSON report, the numbers under a dotted key path (every entry of
a list under it); in a CSV table, the cells of a named column.  Every other
byte, the layout included, must still match.

Exits 1 and lists the files that differ beyond the manifest, or that only
one tree holds.
"""

import fnmatch
import json
import re
import sys
from pathlib import Path

# a JSON string, kept as it is, or a JSON number, replaced in the skeleton
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?')


class _Numeral(str):
    """A JSON number as it is written."""


def _kept(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if '"timestamp"' not in line)


def _moved(a: str, b: str, bound: float, where: str, problems: list, moves: dict):
    """Record |a - b| under ``where``, or a problem if it exceeds ``bound``."""
    if a == b:
        return
    try:
        move = abs(float(a) - float(b))
    except ValueError:
        move = float("nan")
    if not move <= bound:
        problems.append(f"{where}: {a} -> {b} moves beyond {bound:g}")
    moves[where] = max(moves.get(where, 0.0), move)


def _walk(a, b, path: tuple, named: dict, problems: list, moves: dict):
    if isinstance(a, dict):
        for key in a:
            _walk(a[key], b[key], path + (key,), named, problems, moves)
    elif isinstance(a, list):
        for x, y in zip(a, b):
            _walk(x, y, path, named, problems, moves)
    elif isinstance(a, _Numeral):
        field = ".".join(path)
        if field in named:
            _moved(a, b, named[field], field, problems, moves)
        elif a != b:
            problems.append(f"{field}: {a} -> {b} is not a declared field")


def _compare_json(a: str, b: str, named: dict, problems: list, moves: dict):
    def skeleton(text):
        return _TOKEN.sub(lambda m: m[0] if m[0][0] == '"' else "0", _kept(text))

    if skeleton(a) != skeleton(b):
        problems.append("text other than numbers differs")
        return
    numerals = {"parse_float": _Numeral, "parse_int": _Numeral, "parse_constant": _Numeral}
    _walk(json.loads(a, **numerals), json.loads(b, **numerals), (), named, problems, moves)


def _compare_csv(a: str, b: str, named: dict, problems: list, moves: dict):
    rows_a, rows_b = a.split("\n"), b.split("\n")
    if len(rows_a) != len(rows_b) or rows_a[0] != rows_b[0]:
        problems.append("header or row count differs")
        return
    header = rows_a[0].split(",")
    for i, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        cells_a, cells_b = row_a.split(","), row_b.split(",")
        if len(cells_a) != len(cells_b) or len(cells_a) > len(header):
            problems.append(f"row {i}: cell count differs")
            continue
        for column, x, y in zip(header, cells_a, cells_b):
            if column in named:
                _moved(x, y, named[column], column, problems, moves)
            elif x != y:
                problems.append(f"row {i}, column {column}: {x} -> {y} is not a declared column")


def main(base_out: str, head_out: str, base_commit: str, manifest_path: str = "") -> int:
    declared = {}
    manifest = Path(manifest_path) if manifest_path else None
    if manifest is not None and manifest.is_file():
        spec = json.loads(manifest.read_text())
        if spec["base"] == base_commit:
            declared = spec["files"]
            print(f"{manifest_path} applies: its base is the compared base {base_commit}")
        else:
            print(f"{manifest_path} ignored: it names base {spec['base']}, "
                  f"not the compared base {base_commit}")
    base, head = Path(base_out), Path(head_out)
    names = sorted({str(p.relative_to(root)) for root in (base, head)
                    for p in root.rglob("*") if p.is_file()})
    failed, tolerated = [], []
    for name in names:
        if not (base / name).is_file() or not (head / name).is_file():
            failed.append((name, ["written by one tree only"]))
            continue
        a, b = (base / name).read_text(), (head / name).read_text()
        if _kept(a) == _kept(b):
            continue
        named = {}
        for pattern, fields in declared.items():
            if fnmatch.fnmatch(name, pattern):
                named.update(fields)
        problems, moves = [], {}
        if not named:
            problems.append("differs and is not declared")
        elif name.endswith(".json"):
            _compare_json(a, b, named, problems, moves)
        else:
            _compare_csv(a, b, named, problems, moves)
        if problems:
            failed.append((name, problems))
        else:
            tolerated.append((name, moves))
    for name, moves in tolerated:
        print(f"declared change in {name}: "
              + ", ".join(f"{field} by at most {move:.3g}" for field, move in moves.items()))
    if failed:
        for name, problems in failed:
            print(f"DIFFERS {name}: " + "; ".join(problems[:3])
                  + (f" (and {len(problems) - 3} more)" if len(problems) > 3 else ""))
        print(f"{len(failed)} output files differ between the trees beyond the declared changes")
        return 1
    print(f"{len(names)} output files: {len(names) - len(tolerated)} identical apart from "
          f"\"timestamp\" lines, {len(tolerated)} within their declared changes")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
