"""Set-up time of one workload in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <workload> <seed> <work dir>

Prints the seconds spent importing sugraverify and the workload module and
generating the workload's inputs.
"""

import sys
import time

start = time.perf_counter()
src, workload, seed, workdir = sys.argv[1:5]
sys.path[:0] = [src]
import workloads  # noqa: E402  (imports sugraverify from src)

workloads.WORKLOADS[workload](int(seed), workdir)
print(time.perf_counter() - start)
