"""rtpshape benchmark: one workload, one seed, timed for a fixed span.

    python3 perfbench/run.py --workload run_audio_leaky --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout. It imports rtpshape from ``src/``
and exits with code 2, printing no result, when that is missing. The
workloads, the metrics and the layer-to-metric predictions are described in
perfbench/README.md. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rtpshape" / "__init__.py").is_file():
        print(f"error: no rtpshape sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return harness.measure(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
