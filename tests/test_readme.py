"""The README's `nlbox` examples: every one parses with the CLI's own
parser, and an `oracle` example whose comment states a value prints it."""
import json
import re
import shlex
from pathlib import Path

import pytest

from nonlocality import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list:
    """(argv, comment) of each `nlbox` line in the README's sh blocks, with
    backslash continuations joined and the # comment split off."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    found = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            code, _, comment = line.partition("#")
            argv = shlex.split(code)
            if argv[:1] == ["nlbox"]:
                found.append((argv[1:], comment.strip()))
    return found


EXAMPLES = _examples()
VALUED = [
    (argv, value)
    for argv, comment in EXAMPLES
    if argv[0] == "oracle"
    for value in re.findall(r"^(\d+/\d+)\b", comment)
]


def test_the_readme_has_examples_and_stated_values():
    assert len(EXAMPLES) >= 10 and len(VALUED) >= 3


@pytest.mark.parametrize("argv", [a for a, _ in EXAMPLES], ids=" ".join)
def test_each_example_parses(argv):
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has written why to stderr
        pytest.fail(f"nlbox {' '.join(argv)} does not parse (exit {exc.code})")


@pytest.mark.parametrize("argv, value", VALUED, ids=[" ".join(a) for a, _ in VALUED])
def test_each_stated_oracle_value_is_printed(capsys, argv, value):
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["value"] == value
