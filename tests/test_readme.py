import json
import re
from pathlib import Path

import pytest

from sppal.cli import _COMMANDS, main
from sppal.config import validate_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_config_example_is_valid():
    (example,) = _blocks("json")
    validate_config(json.loads(example))


def test_subcommand_list_matches_cli():
    listed = [m.group(1) for block in _blocks("")
              for m in re.finditer(r"^sppal (\S+)", block, re.M)]
    assert listed == list(_COMMANDS)


def test_flag_list_matches_cli(capsys):
    # the optional flags are the bracketed ones of the usage line
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    offered = set(re.findall(r"\[(--[\w-]+)", usage))
    (flags,) = re.findall(r"^Flags:(.*?)\n\n", README, re.M | re.S)
    assert set(re.findall(r"`(--[\w-]+)", flags)) == offered
