"""Child process timed by run.py for setup_s.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORK_DIR

Does what a fresh process does before its first run: import popbo, generate
the workload's inputs (writing the table CSV) and load the objective.
"""

import sys
from pathlib import Path

import workloads

workloads.import_popbo()
workloads.prepare(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
