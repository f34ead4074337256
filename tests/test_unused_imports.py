"""Every name a module of ``src/``, ``tests/`` or ``tools/`` imports is read
somewhere in that module: an import that nothing reads is dead code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unread_imports(source):
    """Names bound by the imports of ``source`` (``__future__`` features
    aside) that no expression of it reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names if alias.name != "*")
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_scan_finds_unread_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport scipy.sparse\nimport numpy as np\n"
              "from a import b as c, d, e\n"
              "def f(x):\n    from g import h\n    return d(x) + scipy.k\n"
              "e = np.zeros\n")
    assert unread_imports(source) == ["c", "e", "h", "os"]


def test_no_unread_imports():
    unread = {}
    for folder in ("src", "tests", "tools"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            names = unread_imports(path.read_text())
            if names:
                unread[str(path.relative_to(ROOT))] = names
    assert unread == {}
