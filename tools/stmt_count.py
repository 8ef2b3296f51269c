"""Statement count of the package: the `ast.stmt` nodes of each module of
`src/ascseq` and their total, for one source tree or two.

    python3 tools/stmt_count.py TREE [TREE2]

A tree is a source checkout (its `src/ascseq` is read) or an `ascseq`
package directory.  Each row gives a module's count in each tree and, for
two trees, the change (second minus first); a module missing from a tree
counts 0 there.  The last row is the total.  Nothing is imported.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path


def counts(tree: str) -> dict[str, int]:
    """The `ast.stmt` count of each module of a tree's package, by name."""
    root = Path(tree).resolve()
    package = root / "src" / "ascseq" if (root / "src" / "ascseq").is_dir() else root
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"{tree}: no ascseq package here")
    return {path.stem: sum(isinstance(node, ast.stmt)
                           for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
            for path in sorted(package.glob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", metavar="TREE")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    tables = [counts(tree) for tree in args.trees]
    modules = sorted(set().union(*tables))
    rows = [(name, [table.get(name, 0) for table in tables]) for name in modules]
    rows.append(("total", [sum(table.values()) for table in tables]))
    print(f"{'module':<12}" + "".join(f"{f'tree {i}':>8}" for i in range(len(tables)))
          + ("  change" if len(tables) == 2 else ""))
    for name, cells in rows:
        line = f"{name:<12}" + "".join(f"{cell:>8}" for cell in cells)
        if len(cells) == 2:
            line += f"{cells[1] - cells[0]:>+8}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
