"""README's ``from dep import ...`` lines and ``dep.__all__`` name only what ``dep`` has."""

import re
from pathlib import Path

import dep

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_imports_from_dep_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    pattern = re.compile(r"^from dep import (?:\([^)]*\)|.*)$", flags=re.M)
    imports = [line for block in blocks for line in pattern.findall(block)]
    assert imports, "README has no `from dep import` line in a python block"
    for line in imports:
        exec(line, {})  # ImportError names a stale line


def test_every_exported_name_exists():
    assert [name for name in dep.__all__ if not hasattr(dep, name)] == []
