"""One timed `cubecount` command, run the way the installed console script runs it.

    python3 perfbench/child.py MARK_FILE [CLI ARGS...]

The script imports `cubecount.cli` exactly as the `cubecount` entry point
does, writes the CLOCK_MONOTONIC time (ns) at which that import finished to
MARK_FILE, then hands the remaining arguments to `cubecount.cli.main`.  The
parent measures set-up time as that mark minus the time it spawned this
process.  With no CLI arguments it stops after the import (a set-up probe).
Only the standard library is touched before the import, so the measured
set-up is the program's own.
"""

import sys
import time

import cubecount.cli

_mark = time.monotonic_ns()
with open(sys.argv[1], "w") as f:
    f.write(str(_mark))
if len(sys.argv) > 2:
    sys.exit(cubecount.cli.main(sys.argv[2:]))
