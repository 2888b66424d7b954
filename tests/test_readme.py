"""README's examples against the code: the library example runs, every command parses."""
import re
import shlex
from pathlib import Path

import numpy as np

from conftest import random_blob_mask
from lesioneval.cli import build_parser
from lesioneval.nifti import write_volume

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_examples_run_and_parse(tmp_path, monkeypatch):
    rng = np.random.default_rng(16)
    for name in ("gt", "pred"):
        mask = random_blob_mask(rng, (12, 12, 12), 0.2)
        write_volume(mask, str(tmp_path / f"{name}.nii.gz"))
    monkeypatch.chdir(tmp_path)
    (library,) = _blocks("python")
    exec(compile(library, str(README), "exec"), {})

    # parse only: argparse exits on an unknown subcommand, flag or choice
    lines = [shlex.split(l, comments=True) for b in _blocks("sh") for l in b.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["lesioneval"]]
    assert len(commands) >= 3  # the regex found the blocks
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
