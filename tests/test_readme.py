"""README's library example names only what the package exports, and its CLI section matches the CLI."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from test_cli import SMALL_YAML

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_point_import_runs():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    statement = re.search(r"^from ultmax import \(.*?\)", section, re.MULTILINE | re.DOTALL)
    assert statement is not None, "README's entry-point block has no `from ultmax import (...)`"
    exec(statement.group(0), {})


def cli_section():
    return README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]


def table_rows(first_header):
    """The cells of each row of the CLI section's table whose first column is ``first_header``."""
    table = cli_section().split(f"\n| {first_header} |", 1)[1].split("\n\n", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()[2:]]


def test_readme_subcommand_table_lists_exactly_the_cli_commands():
    from ultmax import cli

    rows = [row[0].strip("`") for row in table_rows("subcommand")]
    assert sorted(rows) == sorted(cli.COMMANDS)
    assert len(rows) == len(set(rows))


@pytest.mark.parametrize("row", table_rows("subcommand"), ids=lambda row: row[0].strip("`"))
def test_readme_subcommand_outputs_are_the_files_it_writes(tmp_path, row):
    from ultmax import cli

    cfg = tmp_path / "small.yaml"
    cfg.write_text(SMALL_YAML)
    out = tmp_path / "out"
    assert cli.main([row[0].strip("`"), "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(re.findall(r"`([^`]+)`", row[2]) + ["run_manifest.txt"])


def test_readme_config_key_table_equals_config_keys():
    from ultmax import cli, pinned

    def literal(cell):
        """A cell's first `code` span as the value it spells: a YAML literal or a ``pinned`` name."""
        text = re.match(r"`([^`]*)`", cell).group(1)
        return getattr(pinned, text[len("pinned."):]) if text.startswith("pinned.") else yaml.safe_load(text)

    rows = table_rows("key")
    assert [row[0].strip("`") for row in rows] == list(cli.CONFIG_KEYS)
    for key, kind, default, minimum, read_by in rows:
        want_kind, want_default, want_minimum, readers = cli.CONFIG_KEYS[key.strip("`")]
        assert kind == f"`{want_kind.__name__}`", key
        assert (default == "required") if want_default is cli._REQUIRED else (literal(default) == want_default), key
        assert (minimum == "—") if want_minimum is None else (literal(minimum) == want_minimum), key
        named = set(re.findall(r"`([a-z]+)`", read_by))
        assert (set(cli.COMMANDS) - named if read_by.startswith("all") else named) == set(readers), key


def test_readme_usage_flags_appear_in_cli_help():
    synopsis = re.search(r"^```\n(ultmax <subcommand>.*?)^```", cli_section(), re.MULTILINE | re.DOTALL)
    assert synopsis is not None, "README's CLI section has no usage synopsis"
    flags = set(re.findall(r"--[a-z][a-z-]*", synopsis.group(1)))
    assert flags == {"--config", "--out", "--seed", "--threads"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "ultmax.cli", "--help"], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert set(re.findall(r"--[a-z][a-z-]*", proc.stdout)) - {"--help"} == flags
