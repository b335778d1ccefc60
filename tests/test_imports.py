"""Every imported name is used. No linter runs on this tree, so an AST
scan of the package and its tests keeps unused imports out."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "fastreadout").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(path: Path) -> list[str]:
    """Names that `path` imports and never reads; the names in `__all__`
    count as read, since a package re-exports them."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    assert len(MODULES) > 20
    unused = {str(p.relative_to(ROOT)): names for p in MODULES
              if (names := unused_imports(p))}
    assert unused == {}
