"""Every meter passes its own ceilings.

Each ``scripts/*_cost.py`` prices one mechanism alone, states its
ceilings once, in its docstring and code, and exits non-zero when one is
broken or a landed byte, a record or a count is wrong; ``--smoke`` is its
small fixed pass.  The meters are found by glob, so a new one needs no
edit here.  ``scripts/kernel_events.py`` joins them at the scale that
reaches log segment recycles, where its attributed count must equal the
benchmark's ``kernel_events_per_op``.
"""

import pathlib
import subprocess
import sys

import pytest

pytestmark = pytest.mark.oracle

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
METERS = {path.stem: [path.name, "--smoke"]
          for path in sorted(SCRIPTS.glob("*_cost.py"))}
METERS["kernel_events"] = ["kernel_events.py", "gw-set", "--scale", "0.5"]


@pytest.mark.parametrize("argv", METERS.values(), ids=METERS.keys())
def test_meter_smoke(argv):
    done = subprocess.run([sys.executable, *argv], cwd=SCRIPTS,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, (
        f"{' '.join(argv)} exited {done.returncode}\n"
        f"--- stdout ---\n{done.stdout}--- stderr ---\n{done.stderr}")
