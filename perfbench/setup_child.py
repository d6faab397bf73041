"""Set-up time of one cold start: package import plus parsing every input.

Reads a JSON list of instance "public" blocks on stdin and prints the
seconds spent importing hullattack (as the command line tool does) and
parsing both public lattices of each block.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    publics = json.load(sys.stdin)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import hullattack.cli  # noqa: F401  everything `hullattack attack` loads
    from hullattack.lattices import LatticeBasis

    for pub in publics:
        LatticeBasis.from_dict(pub["L1"])
        LatticeBasis.from_dict(pub["L2"])
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
