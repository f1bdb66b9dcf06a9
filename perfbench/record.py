"""Record the reference CSVs of every workload input from the checkout's sources.

    python3 perfbench/record.py [workload ...]

Writes ``perfbench/reference/<workload>/<input tag>/<command>.csv``, one
thread per command.  References are recorded once, at the commit that
defines the benchmark, and ``run.py`` compares later outputs against them at
the ROADMAP golden tolerance; re-record only when a change of values is
intended and reviewed.
"""

import os
import subprocess
import sys

from workloads import WORKLOADS, all_inputs, child_env


def main(names) -> int:
    status = 0
    for workload in names or sorted(WORKLOADS):
        for inputs in all_inputs(workload):
            os.makedirs(inputs.reference_dir, exist_ok=True)
            for cmd in inputs.commands:
                proc = subprocess.run([sys.executable, "-m", "phasebound.cli", *cmd.argv()],
                                      cwd=inputs.reference_dir, env=child_env(),
                                      capture_output=True, text=True)
                print(f"{workload}/{inputs.tag}/{cmd.name}.csv: exit {proc.returncode}"
                      + (f", stderr: {proc.stderr.strip().splitlines()[-1]}" if proc.stderr else ""))
                status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
