"""Time the fixed reference points that earlier notes quote, next to the benchmark.

    python3 perfbench/reference_points.py [--repeats N]

Prints one JSON object: the cold wall time of `pairpulse figure 1` and
`pairpulse validate` at default arguments, and `integrate_mode` at
beta = 0.25, 3 and 10 for Omega = 1.5 and 3 (omega0 = 3, Lambda = 2/9),
each the median of N repeats.  These points are not seeded; they exist to
reconcile the benchmark's baseline with figures recorded by hand.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import control_environment, environment

COLD_COMMANDS = {"figure1": ["figure", "1"], "validate": ["validate"]}
BETAS = (0.25, 3.0, 10.0)
OMEGAS = (1.5, 3.0)


def cold(argv: list, repeats: int) -> float:
    times = []
    for _ in range(repeats + 1):  # the first call warms the file cache and bytecode
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "pairpulse.cli", *argv], check=True,
                       capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    control_environment()
    from pairpulse import Pulse, integrate_mode

    out = {"cold_s": {name: cold(argv, args.repeats) for name, argv in COLD_COMMANDS.items()},
           "integrate_mode_s": {}}
    for om in OMEGAS:
        for beta in BETAS:
            pulse = Pulse(Lambda=2.0 / 9.0, beta=beta, omega0=3.0)
            integrate_mode(om, pulse)
            times = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                integrate_mode(om, pulse)
                times.append(time.perf_counter() - start)
            out["integrate_mode_s"][f"Omega={om},beta={beta}"] = statistics.median(times)
    out["environment"] = environment(seed=None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
