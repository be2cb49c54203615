"""Time the imports a workload needs, in the fresh interpreter running this.

Usage: python3 perfbench/setup_probe.py MODULE [MODULE ...]
Prints {"import_s": seconds} on one line.
"""

import importlib
import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    for name in sys.argv[1:]:
        importlib.import_module(name)
    print(json.dumps({"import_s": time.perf_counter() - t0}))
