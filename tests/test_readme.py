"""The README's library example runs and prints what its comments say,
and its CLI section and config table match the front end."""

import re
from pathlib import Path

import pytest

from zdtrade import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _value(token: str):
    try:
        return float(token)
    except ValueError:
        return token


def test_library_example_prints_its_comments(capsys):
    block = re.search(r"## Library example\n\n```python\n(.*?)```",
                      README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    calls = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(calls)
    promised = [(line.split("# ", 1)[1].split(), out)
                for line, out in zip(calls, printed) if "# " in line]
    assert [said for said, _ in promised] == [["True", "4.15"], ["4.15"]]
    for said, out in promised:
        assert list(map(_value, out.split())) == pytest.approx(
            list(map(_value, said)), rel=1e-12), out


def test_cli_section_matches_the_front_end():
    usage, commands = re.search(
        r"## CLI\n\n```\n(.*?)```\n\n`COMMAND` is one of (.*?);",
        README.read_text(), re.S).groups()
    assert usage == cli._USAGE
    assert re.findall(r"`([a-z-]+)`", commands) == list(cli._HANDLERS)


def test_config_table_matches_the_schema():
    table = re.search(r"\| section \| key \| JSON type \|\n\|---\|---\|---\|\n"
                      r"((?:\|.*\n)+)", README.read_text()).group(1)
    keys, section = {}, None
    for row in table.splitlines():
        name, names = row.split("|")[1:3]
        section = name.strip().strip("`") or section
        keys.setdefault(section, set()).update(re.findall(r"`(\w+)`", names))
    assert keys == {name: set(spec) for name, spec in cli._SCHEMA.items()}
