"""List the arrays live at the traced memory peak of a dipgpe run.

    python tools/peak_lattices.py CONFIG [--min-bytes N]

Builds the run of a ``dipgpe simulate`` config as the command does
(grid, parameters, initial field, symbol), then runs classify and
evolve, all under tracemalloc; it writes no file.  It prints the traced
peak, then every allocation of at least N bytes (default 65536) that is
live at the highest traced memory seen at a profile event (a call or
return of a Python or C function, on any thread), largest first, each
with the thread that made it and its innermost dipgpe frame.  A thread
is "main", or the oldest dipgpe function on the stack of a worker
thread.  The peak itself may fall inside one call, where temporaries of
one expression live; the allocations listed are those of the event
nearest above it, with the memory live there.

The snapshot this tool holds is traced too; its bytes are left out of
the live memory and of the peak it prints.
"""

from __future__ import annotations

import argparse
import sys
import threading
import tracemalloc
import types
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import dipgpe  # noqa: E402

_PACKAGE = str(Path(dipgpe.__file__).resolve().parent)


def _qualnames() -> dict[tuple[str, int], str]:
    """The qualified name of the function each line of dipgpe's modules lies in."""
    names = {}

    def walk(code: types.CodeType) -> None:
        for _, _, line in code.co_lines():
            if line is not None:
                names[code.co_filename, line] = code.co_qualname
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const)

    for module in list(sys.modules.values()):
        path = getattr(module, "__file__", None) or ""
        if path.startswith(_PACKAGE) and path.endswith(".py"):
            walk(compile(Path(path).read_text(), path, "exec"))
    return names


def _run(text: str) -> None:
    config = dipgpe.parse_config(text)
    grid = config.grid.build()
    params = config.params.build(grid.dim)
    field0 = dipgpe.build_initial_field(config, grid)
    symbol = dipgpe.build_symbol_from_config(config, grid)
    dipgpe.classify(field0, params, symbol)
    dipgpe.evolve(field0, params, symbol, dt=config.dt, T=config.T, monitor=config.monitor)


def peak_lattices(text: str, min_bytes: int) -> tuple[int, int, list[tuple[int, str, str]]]:
    """The traced peak, the live bytes at the highest event and its large allocations.

    Each allocation is (bytes, thread, frame), largest first; frame is
    "path:line function" of its innermost dipgpe frame, relative to the
    package's parent, or of its innermost frame when no dipgpe frame made
    it.  The peak and the live bytes leave out the snapshot held here.
    """
    lock = threading.Lock()
    # held: traced bytes of the snapshot kept; top: live bytes at it
    state = {"snapshot": None, "held": 0, "top": -1, "peak": 0}

    def profile(frame, event, arg):
        with lock:
            current, peak = tracemalloc.get_traced_memory()
            state["peak"] = max(state["peak"], peak - state["held"])
            if current - state["held"] > state["top"]:
                state["snapshot"] = None
                base = tracemalloc.get_traced_memory()[0]
                state["snapshot"] = tracemalloc.take_snapshot()
                state["held"] = tracemalloc.get_traced_memory()[0] - base
                state["top"] = base
                # the snapshot's own transient is not the run's
                tracemalloc.reset_peak()

    tracemalloc.start(64)
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        _run(text)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        peak = max(state["peak"], tracemalloc.get_traced_memory()[1] - state["held"])
        tracemalloc.stop()
    snapshot = state["snapshot"]

    names = _qualnames()
    root = str(Path(_PACKAGE).parent)

    def where(f) -> str:
        path = f.filename[len(root) + 1 :] if f.filename.startswith(root) else f.filename
        return f"{path}:{f.lineno} {names.get((f.filename, f.lineno), '')}".rstrip()

    found = []
    for trace in snapshot.traces:
        if trace.size < min_bytes:
            continue
        frames = list(trace.traceback)[::-1]  # innermost first
        ours = [f for f in frames if f.filename.startswith(_PACKAGE)]
        thread = "main"
        if frames[-1].filename == threading.__file__ and ours:
            thread = names.get((ours[-1].filename, ours[-1].lineno), "worker")
        found.append((trace.size, thread, where(ours[0] if ours else frames[0])))
    found.sort(key=lambda row: -row[0])
    return peak, state["top"], found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--min-bytes", type=int, default=1 << 16)
    args = parser.parse_args(argv)
    peak, live, found = peak_lattices(Path(args.config).read_text(), args.min_bytes)
    print(f"traced peak: {peak} bytes ({peak / 1e6:.2f} MB)")
    print(f"live at the highest event: {live} bytes; {len(found)} allocations of at least "
          f"{args.min_bytes} bytes:")
    print(f"{'bytes':>12}  {'thread':<24}  frame")
    for size, thread, frame in found:
        print(f"{size:>12}  {thread:<24}  {frame}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
