"""Set-up probe: import homhom, build one workload's inputs, report when ready.

    python3 perfbench/setup_child.py <workload> <seed>

``run.py`` starts this in a fresh interpreter to measure ``setup_s``.  It
prints ``ready <perf_counter_ns>`` once the inputs exist.  It imports only
homhom and the input builder, so the benchmark's own modules do not add to
the figure.
"""

import sys
import time

from workloads import build, import_homhom

if __name__ == "__main__":
    import_homhom()
    build(sys.argv[1], int(sys.argv[2]))
    print(f"ready {time.perf_counter_ns()}", flush=True)
