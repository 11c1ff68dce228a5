"""Set-up probe: import caplora, parse the stock scenario, report, exit.

run.py times this process from spawn until its one output line arrives.
It imports nothing of the benchmark, so only interpreter start, the
package import and scenario parsing are measured.
"""

import json
import sys
import time

t0 = time.perf_counter()
import caplora  # noqa: E402

import_s = time.perf_counter() - t0
modules = len(sys.modules)
import caplora.cli  # noqa: E402,F401
from caplora.config import parse_scenario  # noqa: E402

parse_scenario("")
sys.stdout.write(json.dumps({"import_s": import_s, "modules": modules}) + "\n")
sys.stdout.flush()
