"""Time one fresh-process set-up: import folsys, then from_dict + build_bundle
for every config in the JSON list given as the only argument.

Prints one JSON object: {"setup_s": ..., "speed_factor": ..., "failed_builds": ...}.
The reference kernel runs right before and after the timed part.
"""
import json
import sys
import time
from pathlib import Path

import reference

reference.work()  # the first call in a process runs slower
before = reference.kernel_seconds()
start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from folsys import cli  # noqa: E402
from folsys.errors import FolsysError  # noqa: E402

failed = 0
for raw in json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")):
    try:
        cli.build_bundle(cli.ScenarioConfig.from_dict(raw))
    except (FolsysError, ValueError, ArithmeticError):
        failed += 1
setup_s = time.perf_counter() - start
factor = reference.speed_factor(before, reference.kernel_seconds())
print(json.dumps({"setup_s": setup_s, "speed_factor": factor,
                  "failed_builds": failed}))
