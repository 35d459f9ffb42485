"""Golden CLI outputs: every recorded command gives the same bytes.

The manifest ``bench/golden/commands.json`` lists each command's argv
and exit code; ``bench/golden/<name>.out`` holds its stdout.  Any change
to a printed figure, a seeded stream or the key order shows up here.
"""

import json
from pathlib import Path

import pytest

from ospclock.cli import main

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "bench" / "golden"
ENTRIES = json.loads((GOLDEN_DIR / "commands.json").read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_golden_output(entry, capsys):
    try:
        code = main(list(entry["argv"]))
    except SystemExit as exc:  # argparse refusals
        code = exc.code
    out = capsys.readouterr().out
    assert code == entry["exit"]
    assert out == (GOLDEN_DIR / f"{entry['name']}.out").read_text()
