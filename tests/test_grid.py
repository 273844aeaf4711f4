"""The canonical grid: every engine's output, over the grid of
``tests/golden/make_grid.py``, is the committed ``tests/golden/grid.jsonl``
line for line.  The test only reads the file; a change that alters output
on purpose regenerates it with that script.  Neither imports numpy."""

import importlib.util
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"


def _make_grid():
    # tests/golden is no package: load the script by its path
    spec = importlib.util.spec_from_file_location("make_grid", GOLDEN_DIR / "make_grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_engine_gives_the_committed_grid():
    committed = (GOLDEN_DIR / "grid.jsonl").read_text().splitlines()
    generated = list(_make_grid().grid_lines())
    for number, (want, got) in enumerate(zip(committed, generated), 1):
        if got != want:
            line = json.loads(want)
            raise AssertionError(
                f"grid.jsonl line {number}, {line['engine']} at "
                f"{json.dumps(line['config'])}, changed:\n  committed {want}\n  now       {got}")
    assert len(generated) == len(committed), "the grid has a different number of lines"
