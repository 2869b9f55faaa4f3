"""Small shared helpers."""

import sys
import threading

STACK_BYTES = 256 << 20
RECURSION_LIMIT = 400_000


def run_deep(fn, *args, **kwargs):
    """Call fn in a worker thread with a large stack.

    The engine recurses on term structure, so thousand-deep cons chains need
    far more stack than the main thread's 8 MB allows.  The process-wide
    recursion limit is raised for the call and restored afterwards.
    """
    out = {}

    def runner():
        try:
            out["value"] = fn(*args, **kwargs)
        except BaseException as exc:
            out["error"] = exc

    old_limit = sys.getrecursionlimit()
    old_stack = threading.stack_size(STACK_BYTES)
    sys.setrecursionlimit(RECURSION_LIMIT)
    try:
        worker = threading.Thread(target=runner)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(old_stack)
        sys.setrecursionlimit(old_limit)
    if "error" in out:
        raise out["error"]
    return out["value"]
