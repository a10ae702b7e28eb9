"""Count the code lines of each module of the package.

A code line is a line of ``src/fermiorder/*.py`` that is not blank, not a
comment and not part of a docstring (the string that opens a module, a
class or a function). Run from anywhere, with no options:

    python tools/code_lines.py

It prints one line per module and then the total.
"""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "fermiorder"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers every docstring of the module spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    docs = docstring_lines(ast.parse(text, filename=str(path)))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#") and number not in docs
    )


def main() -> None:
    counts = {path.name: code_lines(path) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")


if __name__ == "__main__":
    main()
