"""Every file under ``src/`` and ``scripts/`` parses as the oldest Python that ``requires-python`` admits, so
newer syntax fails here and not only on that Python."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_the_oldest_supported_python():
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), flags=re.M)
    version = tuple(map(int, floor.groups()))
    sources = sorted(path for folder in ("src", "scripts") for path in (ROOT / folder).rglob("*.py"))
    assert len(sources) > 5
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
