"""Every demo runs from a copy outside the repository and prints, and writes, what its golden copy holds.

Each demo's stdout is pinned in ``golden/demos/<demo>.txt``.  Demo 05's
four files land under ``out/`` next to the copy: ``cia.v`` and
``compare.csv`` equal the goldens the exporter tests pin, and ``cia.json``
and ``cia.dot`` have their own under ``golden/demos/``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
EXPORTS = {
    "cia.json": GOLDEN / "demos" / "cia.json",
    "cia.dot": GOLDEN / "demos" / "cia.dot",
    "cia.v": GOLDEN / "cia_cla_w8_b4.v",
    "compare.csv": GOLDEN / "compare_cia_w8.csv",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    # The copy writes its outputs under tmp_path, not into demos/out.  Exit 0 alone
    # would pass a demo that prints or writes something else, so both are pinned.
    script = shutil.copy(demo, tmp_path)
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / "demos" / f"{demo.stem}.txt").read_text()
    if demo.name.startswith("05_"):
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == sorted(EXPORTS)
        for name, golden in EXPORTS.items():
            assert (tmp_path / "out" / name).read_bytes() == golden.read_bytes(), name
