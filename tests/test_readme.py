"""README's library example names only what the package exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_point_import_runs():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    statement = re.search(r"^from ultmax import \(.*?\)", section, re.MULTILINE | re.DOTALL)
    assert statement is not None, "README's entry-point block has no `from ultmax import (...)`"
    exec(statement.group(0), {})
