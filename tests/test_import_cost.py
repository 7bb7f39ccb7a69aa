"""``import repro`` stays light: scipy and numpy load only on demand.

scipy (which brings numpy) costs over a second to import, and only
:func:`repro.analysis.stats.confidence_interval` uses it.  The CLI, the
scenario builder, the sweep engine and the experiments must start
without it.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

#: The package, the CLI, and every module a scenario run or sweep imports.
LIGHT_MODULES = (
    "repro",
    "repro.cli",
    "repro.scenario",
    "repro.parallel",
    "repro.experiments.four_nodes",
    "repro.experiments.multihop",
    "repro.experiments.mac_surface",
)

_SCRIPT = """
import importlib
import sys

for name in sys.argv[1:]:
    importlib.import_module(name)
heavy = sorted(
    name for name in sys.modules if name.split(".")[0] in ("scipy", "numpy")
)
print("\\n".join(heavy))
"""


def test_importing_repro_loads_neither_scipy_nor_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *LIGHT_MODULES],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.split() == []
