"""The README names exactly the problem kinds, policy kinds and subcommands that psg.cli has."""

import argparse
import pathlib
import re

import pytest

from psg.cli import POLICY_KINDS, PROBLEM_KINDS, _parser

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def table_keys(first_header_cell: str) -> list:
    """The backticked first cells of the rows of the table whose header starts so."""
    lines = README.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {first_header_cell} |"))
    keys = []
    for line in lines[start + 2:]:  # past the header and its |---| line
        if not line.startswith("|"):
            break
        keys.append(re.match(r"\| `([^`]+)` \|", line).group(1))
    return keys


@pytest.mark.parametrize("header,kinds", [("problem `kind`", PROBLEM_KINDS),
                                          ("policy `kind`", POLICY_KINDS)],
                         ids=["problem", "policy"])
def test_kind_tables_list_the_kinds(header, kinds):
    assert table_keys(header) == list(kinds)


def test_usage_block_names_the_subcommands():
    section = README[README.index("## The benchmark CLI"):]
    block = section.split("```bash\n", 1)[1].split("\n```", 1)[0]
    named = [line.split()[1] for line in block.splitlines() if line.startswith("psg ")]
    action = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(named) == sorted(action.choices) and len(named) == len(set(named))
