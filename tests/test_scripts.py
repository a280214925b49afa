"""The experiment scripts under `scripts/` run as `python scripts/<name>.py`
does, in-process: each exits 0 and prints exactly the output pinned here.

`rate_sweep.py` caps each rate at 30 phases; every rate but 9/10 recurs
within them, so its rows also check how a skipped copy is sized against
`max_phases`.

`code_lines.py` runs on a fixture module instead, since its count of
`src/aqsim` moves with every change to the code.
"""

import pathlib
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

RATE_SWEEP = """\
     r  worst dur  cap d/(1-r)  worst sys  cap 2d/(1-r)  growth
  1/10          7         4.44          8          8.89  BOUNDED
   1/4          7         5.33          9         10.67  BOUNDED
   1/2          7         8.00         11         16.00  BOUNDED
   2/3          9        12.00         12         24.00  BOUNDED
   4/5         15        20.00         18         40.00  BOUNDED
  9/10         29        40.00         33         80.00  BOUNDED
"""

RATE_SWEEP_16 = """\
     r  worst dur  cap d/(1-r)  worst sys  cap 2d/(1-r)  growth
  1/10         19        17.78         30         35.56  CONVERGENT
   1/4         20        21.33         33         42.67  BOUNDED
   1/2         30        32.00         45         64.00  BOUNDED
   2/3         45        48.00         60         96.00  BOUNDED
   4/5         75        80.00         90        160.00  BOUNDED
  9/10        144       160.00        159        320.00  BOUNDED
"""

DISCIPLINE_GAP = """\
222 instances (max 3 packets, 3 edges, shapes: line,tree)

discipline  optimal %  mean gap %  worst case
       FFS      79.3%       8.45%  5 vs 3 on [('e1',), ('e1',), ('e1', 'e2', 'e3')]
      FIFO      79.7%       8.30%  5 vs 3 on [('e1',), ('e1',), ('e1', 'e2', 'e3')]
       FTG     100.0%       0.00%  -
      LIFO      79.3%       8.45%  5 vs 3 on [('e1',), ('e1',), ('e1', 'e2', 'e3')]
       LIS      79.3%       8.45%  5 vs 3 on [('e1',), ('e1',), ('e1', 'e2', 'e3')]
       NTG      78.8%       8.60%  5 vs 3 on [('e1',), ('e1',), ('e1', 'e2', 'e3')]
       NTS      79.7%       8.30%  5 vs 3 on [('e1',), ('e1',), ('e1', 'e2', 'e3')]
       SIS      79.3%       8.45%  5 vs 3 on [('e1',), ('e1',), ('e1', 'e2', 'e3')]
"""

PASSTHROUGH_GAIN = """\
busy rail: 8 packets over 4 edges
side edges   off   on  speedup
         1    12    1    12.0x
         2    13    2     6.5x
         3    14    3     4.7x
         4    15    4     3.8x
         5    16    5     3.2x
         6    17    6     2.8x
"""



@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("rate_sweep", [], RATE_SWEEP),
        ("rate_sweep", ["--edges", "16"], RATE_SWEEP_16),
        ("discipline_gap", [], DISCIPLINE_GAP),
        ("passthrough_gain", [], PASSTHROUGH_GAIN),
    ],
    ids=["rate_sweep", "rate_sweep-edges16", "discipline_gap", "passthrough_gain"],
)
def test_script_prints_its_pinned_output(script, args, expected, monkeypatch, capsys):
    path = SCRIPTS / f"{script}.py"
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(path), run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == expected


CODE_LINES_FIXTURE = '''\
"""A module docstring
over two lines."""

# a comment on its own line

import os  # a comment after code


class Box:
    """A class docstring."""

    text = """a string over
two lines, not a docstring"""


def total(x):
    """A function docstring."""
    value = (x +
             1)

    return value
'''


def test_code_lines_counts_only_code(tmp_path, monkeypatch, capsys):
    # import, class, the two lines of `text`, def, the two lines of `value`
    # and the return: docstrings, comments and blank lines do not count
    (tmp_path / "fixture.py").write_text(CODE_LINES_FIXTURE)
    path = SCRIPTS / "code_lines.py"
    monkeypatch.setattr(sys, "argv", [str(path), str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(path), run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == "     8  fixture.py\n     8  total\n"
