"""Benchmark of loopext, end to end and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``workloads.py`` and described in ``SCHEMA.md``.
With ``--trace 0`` the run measures whole rounds of jobs, untraced, until at
least ``--seconds`` have passed and reports the end-to-end metrics.  With
``--trace 1`` it runs jobs until ``--seconds`` have passed, each once
untraced and once traced (in alternating order), and reports the per-layer
metrics.  Every output is checked against ``goldens.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Temporary files live
under ``.perfbench-tmp/`` and spans are written to ``.perfbench-out/``, both
in the repository root.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("chain-bigloop", "chain-bigaut", "fuzz-inproc")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "loopext" / "__init__.py").is_file():
        print(f"perfbench: no loopext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import phases  # needs loopext on the path
    return phases.run(args)


if __name__ == "__main__":
    sys.exit(main())
