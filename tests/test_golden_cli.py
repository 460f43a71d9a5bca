"""Golden command-line corpus: stdout, stderr and exit code, byte for byte.

``data/golden_cli.json`` holds one entry per command: its argv, the exit
code and the exact stdout and stderr text.  The corpus covers the README
examples, the acceptance-9 commands, CSV variants, the policy flags, a
field run where the coverage hypothesis holds, and precondition errors.
Refactors must keep every entry identical; regenerate the file only for a
change whose purpose is to alter the output, and say so in the change.
"""

import json
from pathlib import Path

import pytest

from shiftprod.cli import main

CORPUS = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=[f"{c['argv'][0]}-{i}"
                                              for i, c in enumerate(CORPUS)])
def test_golden_cli(case, capsys):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]
    assert code == case["exit"]
