"""The README's quick starts run as written."""

import contextlib
import io
import math
import re
from pathlib import Path

from lightningfit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    """The one fenced python block, exec'd as is: it prints the fit's
    max_err and the approximant's value at 0.3."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    max_err, value = (float(line) for line in out.getvalue().split())
    assert max_err < 1e-10
    assert abs(value - math.sqrt(0.3)) <= max_err


def test_readme_cli_quick_start_prints_what_it_shows(capsys):
    """The one fenced `$ lightningfit` block shows, byte for byte, what
    that command prints."""
    blocks = re.findall(r"^```\n\$ lightningfit (.*?)\n(.*?)^```$",
                        README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    argv, shown = blocks[0]
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == shown
