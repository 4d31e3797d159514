"""Every module-level import in ``src/repro``, ``tests`` and ``benchmarks`` is used.

An import binding whose name appears nowhere else in its module's text
is dead. Any other occurrence counts as a use, which keeps the check
free of false alarms: ``__all__`` entries, string annotations and names
cited in docstrings all count. Package ``__init__`` modules are skipped,
because importing a name there is how the package exports it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = (ROOT / "src" / "repro", ROOT / "tests", ROOT / "benchmarks")


def _unused_imports(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    unused = []
    for node in ast.parse(text).body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        rest = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if not re.search(rf"\b{re.escape(name)}\b", rest):
                unused.append(name)
    return unused


def test_no_module_level_import_is_unused():
    found = [
        f"{path.relative_to(ROOT)}: {name}"
        for top in SCANNED
        for path in sorted(top.rglob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(path)
    ]
    assert found == []
