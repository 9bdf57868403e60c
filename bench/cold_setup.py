"""One cold start: `python3 bench/cold_setup.py <src> <workload> <seed>`.

Times, in a fresh interpreter, `import realdp` and then the workload's
set-up (for `classify`, building the 19 catalogue models).  The harness's own
modules are imported between the two timed parts, off the clock, so that
`import realdp` is timed with nothing of the standard library preloaded
beyond what the interpreter starts with.  Prints one JSON object.
"""

import sys
import time

if __name__ == "__main__":
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import realdp  # noqa: F401
    imported = time.perf_counter()

    import json

    import workloads

    resumed = time.perf_counter()
    wl = workloads.WORKLOADS[workload](workloads.Realdp(), seed)
    wl.setup()
    ready = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": (imported - start) + (ready - resumed)}))
