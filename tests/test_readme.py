"""The README's library example runs as written against the public API."""

import re
from pathlib import Path

from svjoint.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(tmp_path, capsys):
    match = re.search(r"## Library use\s+```python\n(.*?)```", README.read_text(), re.S)
    block = match.group(1)
    assert "simdata/manifest.ini" in block
    sim = tmp_path / "sim"
    assert main([
        "simulate", "--out", str(sim), "--grid", "8x8", "--genes", "4",
        "--sv-genes", "1", "--samples", "2", "--seed", "3",
    ]) == 0
    capsys.readouterr()
    code = block.replace("simdata/manifest.ini", str(sim / "manifest.ini"))
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.strip()
    assert re.fullmatch(r"\[('g\d{5}'(, 'g\d{5}')*)?\]", printed), printed
