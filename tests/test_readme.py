import importlib
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


def test_constant_table_matches_library():
    # every backticked ``module._NAME`` of the "constant | value | former
    # field" table exists and has the value listed beside it
    (table,) = re.findall(r"^\| constant \| value \| former field \|\n\|[-|]+\|\n(.*?)\n\n",
                          README, re.M | re.S)
    named = []
    for line in table.splitlines():
        constant, value, _ = (cell.strip() for cell in line.strip("|").split("|"))
        m = re.match(r"`(\w+)\.(_[A-Z_]+)`", constant)
        if m is None:  # a rule, such as the mutation rate 1/n_var
            continue
        module = importlib.import_module(f"sppal.{m[1]}")
        assert getattr(module, m[2]) == float(value.split()[0]), line
        named.append(m[0])
    assert named
