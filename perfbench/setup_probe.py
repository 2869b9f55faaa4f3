"""Child process timed for setup_s.

    python3 perfbench/setup_probe.py <workload>

Imports termrw, reads and compiles the workload's rule files, constructs
its Rewriters, and prints the seconds that took.  The clock starts before
termrw is imported and stops before the first request would be sent.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import engines  # noqa: E402

if __name__ == "__main__":
    engines.import_program()
    engines.build(sys.argv[1])
    print(repr(time.perf_counter() - T0))
