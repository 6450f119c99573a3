"""Run `python -m tripsynth.cli` and print its peak RSS on stderr at exit.

Usage: python3 bench/hwm.py <tripsynth arguments>

The peak comes from VmHWM in /proc/self/status, the high-water mark of
this program's own address space. `ru_maxrss` from `wait4` is not used: on
Linux it also counts the address space the child replaced at exec, which
is the benchmark process's.
"""
import atexit
import runpy
import sys


def _report_peak():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                sys.stderr.write(line)


atexit.register(_report_peak)
runpy.run_module("tripsynth.cli", run_name="__main__", alter_sys=True)
