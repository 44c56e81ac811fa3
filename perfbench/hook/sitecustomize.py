"""Starts the benchmark's reference clock in every untraced child interpreter.

The runner puts this directory on ``PYTHONPATH`` and names the clock's output
file in ``PERFBENCH_REFCLOCK``; ``python -m silting_forge.cli`` then runs
unchanged, with the clock sampling from interpreter start to exit.
"""

import os

# Popped, so that a Python process the program starts does not write the
# same file.
_OUT = os.environ.pop("PERFBENCH_REFCLOCK", None)
if _OUT:
    import refclock

    refclock.start(_OUT)
