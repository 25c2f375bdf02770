"""Set-up probe, run in a fresh interpreter by the benchmark.

Imports cfmmrep from SRC_DIR, parses each payoff file and builds its
ReplicationProfile (numeric inversion table included), then prints one JSON
line with the time spent importing and building.

Usage: python3 setup_probe.py SRC_DIR PAYOFF_JSON...
"""

import json
import sys
import time


def main(argv):
    start = time.perf_counter()
    sys.path.insert(0, argv[0])
    import cfmmrep

    imported = time.perf_counter()
    for path in argv[1:]:
        with open(path, encoding="utf-8") as handle:
            cfmmrep.ReplicationProfile(cfmmrep.parse_payoff_file(handle.read()))
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": built - imported}))


if __name__ == "__main__":
    main(sys.argv[1:])
