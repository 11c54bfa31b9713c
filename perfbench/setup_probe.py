"""One set-up sample, run in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py SRC_DIR 'JSON list of CLI arguments'

Times the cold import of ``archcredit.cli`` from SRC_DIR plus one CLI call
(the workload's first row at a tiny m), which pays every lazy set-up the first
row of a process pays.  Prints one JSON object: ``{"setup_s": ..., "rc": ...}``.
"""

import time

t0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
import archcredit.cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = archcredit.cli.main(json.loads(sys.argv[2]))
elapsed = time.perf_counter() - t0
print(json.dumps({"setup_s": elapsed, "rc": rc}))
