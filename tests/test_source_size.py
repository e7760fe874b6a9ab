"""The package source stays within its line budget."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stochastica"

# a change that adds lines to the package pays for them elsewhere in it
LINE_BUDGET = 4000


def test_package_source_stays_within_its_line_budget():
    # counted as `cat src/stochastica/*.py | wc -l` counts them
    files = sorted(SRC.glob("*.py"))
    assert files
    lines = sum(path.read_bytes().count(b"\n") for path in files)
    assert lines <= LINE_BUDGET, (
        f"src/stochastica/*.py has {lines} lines, over the budget of {LINE_BUDGET}")
