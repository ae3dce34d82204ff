"""One set-up sample: seconds from the first ``import edm`` until simulation can start.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORK_DIR

Covers the imports, building and validating every config of the workload
(spec parsing) and creating its directories; prints the seconds.  Run in a
fresh interpreter so the imports are really paid.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    t0 = time.perf_counter()
    import edm  # noqa: F401  (the import is what is timed)
    from perfbench.workloads import prepare

    workload = prepare(name, seed, work_dir)
    elapsed = time.perf_counter() - t0
    workload.close()
    print(repr(elapsed))
