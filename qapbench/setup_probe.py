"""Set-up as a user pays it: import the library (and numpy with it), then
build the instance from the workload's inputs. Prints "ready" when the
instance exists.

    python3 qapbench/setup_probe.py INPUTS_JSON
"""

import json
import sys
from pathlib import Path

import numpy  # noqa: F401  (the library imports it too; named as part of set-up)
import qaplandscape

inputs = json.loads(Path(sys.argv[1]).read_text())
if "gen" in inputs:
    problem = qaplandscape.generate_instance(*inputs["gen"])
else:
    problem = qaplandscape.parse_qaplib(Path(inputs["instance"]).read_text())
print("ready" if problem.n == inputs["spec"]["n"] else "wrong size", flush=True)
