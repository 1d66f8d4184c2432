"""Print the size of the package: its line total and its settable options.

    python .github/scripts/src-size.py [TREE]

TREE is a checkout of the repository (default: the one holding this
script).  The counts cover every ``*.py`` file under ``TREE/src/fermicert``.

Lines: the number of newline characters in each file, summed, as ``wc -l``
counts them.

Settable options: the names a caller may set and may also leave out.
  - A parameter of a ``def`` (positional or keyword-only) that has a default.
  - A field of a class decorated with ``dataclass`` whose annotated
    assignment has a value, unless that value is ``field(..., init=False)``:
    such a field is computed, and ``__init__`` does not take it.
Not counted:
  - Parameters of a ``lambda``.  A default there binds a value when the
    lambda is made (``lambda r, old=t.profile: ...``); it is not an option.
  - The fields of the config schemas that ``cli`` builds with
    ``make_dataclass``.  These are keys of the JSON config, documented in
    the README, not names in the code.
"""

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _takes_init(value: ast.expr) -> bool:
    """False for ``field(..., init=False)``, True for any other default."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        for kw in value.keywords:
            if kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False:
                return False
    return True


def settable_options(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         and _takes_init(stmt.value) for stmt in node.body)
    return count


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[2]
    files = sorted((root / "src" / "fermicert").glob("*.py"))
    if not files:
        print(f"no Python files under {root / 'src' / 'fermicert'}", file=sys.stderr)
        return 1
    texts = [f.read_text() for f in files]
    print(f"src/fermicert lines: {sum(t.count(chr(10)) for t in texts)}")
    print(f"settable options: {sum(settable_options(ast.parse(t)) for t in texts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
