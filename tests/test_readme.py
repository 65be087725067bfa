"""README's "Library tour" runs as written against the public API."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_source() -> str:
    """The first ```python block after the "## Library tour" heading."""
    text = README.read_text(encoding="utf-8")
    found = re.search(r"^## Library tour\n.*?^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert found, "README has no Library tour python block"
    return found.group(1)


def test_library_tour_runs_and_its_comments_hold():
    source = tour_source()
    namespace: dict = {}
    exec(compile(source, str(README), "exec"), namespace)
    checked = 0
    for line in source.splitlines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not code or not comment:
            continue
        value = eval(code, namespace)
        if comment.startswith("'"):
            # A quoted comment is the value the line prints.
            assert value == ast.literal_eval(comment), line
            checked += 1
        elif comment.startswith("~"):
            # ~1e-k: the value is below 10^-(k-1), and not zero.
            assert 0.0 < abs(value) < 10 * float(comment[1:]), line
            checked += 1
    assert checked == 3
