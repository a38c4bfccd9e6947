"""The package's export list covers what README's examples import."""
import re
from pathlib import Path

import ragtree

README = Path(__file__).resolve().parent.parent / "README.md"
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
_IMPORT = re.compile(r"^from ragtree import .+$", re.M)


def test_readme_imports_are_exported():
    lines = [
        line
        for block in _PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
        for line in _IMPORT.findall(block)
    ]
    assert lines, "README shows no `from ragtree import ...` line"
    for line in lines:
        namespace: dict = {}
        exec(line, namespace)
        for name in line.removeprefix("from ragtree import ").split(","):
            assert name.strip() in ragtree.__all__, name
            assert name.strip() in namespace, name
    assert all(hasattr(ragtree, name) for name in ragtree.__all__)
