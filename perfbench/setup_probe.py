"""Time proxgap's set-up in a fresh interpreter and print it as JSON.

    python3 perfbench/setup_probe.py <workload>   # {"setup_s": ...}
    python3 perfbench/setup_probe.py --imports    # {"numpy_import_ms": ..., "import_ms": ...}

The set-up is ``import proxgap`` followed by building the workload's
catalog entries.  ``--imports`` times ``import numpy`` and then
``import proxgap.cli``; ``import_ms`` covers both.  Run with ``src`` on
PYTHONPATH.
"""

import json
import sys
import time


def main(argv):
    if argv == ["--imports"]:
        start = time.perf_counter()
        import numpy  # noqa: F401

        middle = time.perf_counter()
        import proxgap.cli  # noqa: F401

        end = time.perf_counter()
        return {"numpy_import_ms": 1e3 * (middle - start), "import_ms": 1e3 * (end - start)}
    start = time.perf_counter()
    import entries

    entries.build(argv[0])
    return {"setup_s": time.perf_counter() - start}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
