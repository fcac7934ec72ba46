"""The package's exported names and the README's library example."""

import ast
import importlib
import re
from pathlib import Path

import revtime

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    assert len(revtime.__all__) == len(set(revtime.__all__))
    missing = [name for name in revtime.__all__ if not hasattr(revtime, name)]
    assert missing == []


def test_readme_library_imports_resolve():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks, "README Library section has no python block"
    imported = []
    for node in ast.walk(ast.parse("\n".join(blocks))):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                imported.append(alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                importlib.import_module(alias.name)
                imported.append(alias.name)
    assert "estimate_t60" in imported
