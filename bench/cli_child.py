"""Runs the pufferot CLI as ``python -m pufferot.cli`` does, then records its peak RSS.

Usage: python3 bench/cli_child.py PEAK_FILE COMMAND [ARGS...]

On Linux a child's ru_maxrss carries its parent's peak across fork and
exec, so a child of a large benchmark process would report the parent's
size. The child instead writes VmHWM, the peak resident size of its own
address space, in MB to PEAK_FILE, whatever the command's exit status.
"""

import runpy
import sys


def own_peak_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    peak_file = sys.argv[1]
    sys.argv = ["pufferot", *sys.argv[2:]]
    try:
        runpy.run_module("pufferot.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(peak_file, "w", encoding="ascii") as fh:
            fh.write(repr(own_peak_mb()))
