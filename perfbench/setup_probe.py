"""Set-up probe: the work before the first time step, in a fresh interpreter.

    python perfbench/setup_probe.py <config.json>

Imports rodwave, resolves the config and builds the initial state, then
prints {"import_s", "build_s"} as JSON.  ``run.py`` times the whole process.
"""

import json
import sys
import time

start = time.perf_counter()
from rodwave import experiments  # noqa: E402

imported = time.perf_counter()
experiments.build_initial_state(experiments.resolve_config(sys.argv[1]))
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "build_s": built - imported}))
