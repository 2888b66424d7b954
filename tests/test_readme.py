"""README's examples against the code: the library example runs, every command parses,
and README names exactly the CLI's flags and ``LesionSet``'s fields."""
import argparse
import dataclasses
import re
import shlex
from pathlib import Path

import numpy as np

from conftest import random_blob_mask
from lesioneval.cli import build_parser
from lesioneval.components import LesionSet
from lesioneval.nifti import write_volume

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def _commands() -> list[list[str]]:
    """The arguments of every ``lesioneval`` command in README's sh blocks."""
    lines = [shlex.split(l, comments=True) for b in _blocks("sh") for l in b.splitlines()]
    return [argv[1:] for argv in lines if argv[:1] == ["lesioneval"]]


def test_readme_examples_run_and_parse(tmp_path, monkeypatch):
    rng = np.random.default_rng(16)
    for name in ("gt", "pred"):
        mask = random_blob_mask(rng, (12, 12, 12), 0.2)
        write_volume(mask, str(tmp_path / f"{name}.nii.gz"))
    monkeypatch.chdir(tmp_path)
    (library,) = _blocks("python")
    exec(compile(library, str(README), "exec"), {})

    # parse only: argparse exits on an unknown subcommand, flag or choice
    commands = _commands()
    assert len(commands) >= 3  # the regex found the blocks
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_names_every_cli_flag():
    # the flags named in README's prose and commands (not those of other
    # tools, such as pip's) are exactly those of the parser and its
    # evaluate and inspect subcommands: a flag added, renamed or dropped on
    # one side only fails here
    prose = re.sub(r"^```.*?^```\n", "", README.read_text(), flags=re.M | re.S)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", prose))
    named |= {a for argv in _commands() for a in argv if a.startswith("--")}
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == ["evaluate", "inspect"]
    defined = {
        flag
        for p in (parser, *sub.choices.values())
        for action in p._actions
        for flag in action.option_strings
        if flag.startswith("--")
    }
    assert named == defined


def test_readme_names_exactly_lesion_set_fields():
    # README's LesionSet paragraph names each field in parentheses, in field
    # order, and every method it or the rest of README names exists: a field
    # or method added, renamed or dropped on one side only fails here (the
    # paragraph once documented a run(id) the class no longer had)
    text = README.read_text()
    (para,) = re.findall(r"^A `LesionSet` holds .*?(?=\n\n)", text, re.M | re.S)
    fields = [f.name for f in dataclasses.fields(LesionSet)]
    assert re.findall(r"\(`(\w+)`\)", para) == fields
    methods = set(re.findall(r"`(\w+)\(", para)) - {"len"}
    attrs = set(re.findall(r"`LesionSet\.(\w+)", text))
    assert methods and all(hasattr(LesionSet, a) or a in fields for a in methods | attrs)
