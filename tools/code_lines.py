"""Count the code lines of each module of a Python package.

A code line is a non-blank line that is not comment-only and not inside
a docstring.  Prints one line per module and the package total:

    python tools/code_lines.py src/snndecode
"""

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, _SCOPES) and node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for n, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#")
               and n not in docstrings)


def package_lines(package) -> dict:
    """The code lines of each module of ``package``, keyed by its path
    inside the package, in path order."""
    root = Path(package)
    return {str(path.relative_to(root)):
            code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def main(package: str) -> None:
    counts = package_lines(package)
    for name, count in counts.items():
        print(f"{count:6,d}  {name}")
    print(f"{sum(counts.values()):6,d}  total")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/snndecode")
