"""README's library example names only what the package exports, and its CLI section matches the CLI."""

import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_point_import_runs():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    statement = re.search(r"^from ultmax import \(.*?\)", section, re.MULTILINE | re.DOTALL)
    assert statement is not None, "README's entry-point block has no `from ultmax import (...)`"
    exec(statement.group(0), {})


def cli_section():
    return README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]


def test_readme_subcommand_table_lists_exactly_the_cli_commands():
    from ultmax import cli

    rows = re.findall(r"^\| `([a-z]+)` *\|", cli_section(), re.MULTILINE)
    assert sorted(rows) == sorted(cli.COMMANDS)
    assert len(rows) == len(set(rows))


def test_readme_usage_flags_appear_in_cli_help():
    synopsis = re.search(r"^```\n(ultmax <subcommand>.*?)^```", cli_section(), re.MULTILINE | re.DOTALL)
    assert synopsis is not None, "README's CLI section has no usage synopsis"
    flags = set(re.findall(r"--[a-z][a-z-]*", synopsis.group(1)))
    assert {"--config", "--out", "--seed", "--threads"} <= flags
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "ultmax.cli", "--help"], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert sorted(f for f in flags if f not in proc.stdout) == []
