"""A per-thread allocation tracer for tests that bound a run's footprint."""

import sys
import threading
import tracemalloc


def large_allocations(fn, nbytes):
    """fn's result, and for each time nbytes or more were allocated at once,
    the names of the functions on the stacks of the threads running then.

    Traced memory is read at every trace event of the calling thread and of
    the threads fn starts.  When the peak between two events rises by
    nbytes over the memory in use at the first, at least that much was
    allocated in between, whether it was kept or freed again.
    """
    found = []
    start = [None]
    stacks = {}

    def trace(frame, event, arg):
        current, peak = tracemalloc.get_traced_memory()
        if start[0] is not None and peak - start[0] >= nbytes:
            found.append(set().union(*stacks.values()))
        tracemalloc.reset_peak()
        start[0] = current
        names = stacks[threading.get_ident()] = []
        while frame is not None:
            names.append(frame.f_code.co_name)
            frame = frame.f_back
        return trace

    tracemalloc.start()
    sys.settrace(trace)
    threading.settrace(trace)
    try:
        out = fn()
    finally:
        sys.settrace(None)
        threading.settrace(None)
        tracemalloc.stop()
    return out, found
