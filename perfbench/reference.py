"""Fixed reference work that measures the machine's current speed.

    python3 perfbench/reference.py WORK_DIR

The benchmark runs this between CLI runs.  It uses nothing from
forcebench, so no change to the program moves its time; only the machine
does.  Its mix follows what the CLI spends time on: importing numpy,
formatting floats to ten significant digits, writing small files through
a temporary name, reading and parsing them back, tuple-keyed dict lookups
and small numpy array operations.
"""

import os
import sys

import numpy as np


def main(work: str) -> float:
    rng = np.random.default_rng(0)
    paths = [os.path.join(work, f"reference_{k}.csv") for k in range(80)]
    for path in paths:
        text = "\n".join(format(float(v) + 0.0, ".10g") for v in rng.normal(size=1200))
        with open(path + ".tmp", "w") as fh:
            fh.write(text + "\n")
        os.replace(path + ".tmp", path)
    total = 0.0
    for path in paths:
        with open(path) as fh:
            total += sum(float(token) for token in fh.read().splitlines())
        os.unlink(path)
    table: dict = {}
    for i in range(80_000):
        key = (i % 4, "outer" if i & 1 else "inner")
        table[key] = table.get(key, 0) + i
    for _ in range(400):
        a = rng.normal(size=401)
        total += float(np.cumsum(a)[-1] + np.diff(a).max())
    return total + len(table)


if __name__ == "__main__":
    main(sys.argv[1])
