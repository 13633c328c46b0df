"""Run one polydet benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Workloads: ladder, anomaly, verify, expand.  The last line printed is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
see perfbench/README.md.
"""

import os
import sys
from pathlib import Path

# One BLAS thread unless the caller says otherwise: every workload is a single
# closed-loop caller, and a shared host's cores make extra threads noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "polydet" / "__init__.py").is_file():
        print(f"perfbench: no polydet sources at {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
