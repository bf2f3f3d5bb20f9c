"""A fresh interpreter running popbo loads numpy only: no scipy, no process pool.

scipy costs over a second of import time; popbo's runtime does without it,
and the process pool is imported only when workers > 1.  The check runs in a
child process because the pytest process has imported scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import popbo


def forbidden(module: str) -> bool:
    return (module.startswith("scipy") or module.split(".")[0] == "multiprocessing"
            or module == "concurrent.futures.process")


CHILD = """
import json, sys
import popbo
from popbo.harness import ExperimentConfig, run_experiment

table, out = sys.argv[1], sys.argv[2]
run_experiment(ExperimentConfig(benchmark="branin", method="popbo-rlcb", seeds=(0,),
                                n_init=3, n_iters=2, out_dir=out))
run_experiment(ExperimentConfig(benchmark=table, method="popbo-rlcb", seeds=(0,),
                                n_init=3, n_iters=2, out_dir=out))
print(json.dumps(sorted(sys.modules)))
"""


def test_single_process_runs_load_no_scipy_or_process_pool(tmp_path):
    table = tmp_path / "grid.csv"
    rows = [f"{i},{j},{(i - 1.2) ** 2 + (j - 2.6) ** 2 + 0.01 * i * j!r}"
            for i in range(5) for j in range(5)]
    table.write_text("a,b,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    src = str(Path(popbo.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", CHILD, str(table), str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    modules = json.loads(done.stdout)
    assert len(list((tmp_path / "out").glob("popbo-rlcb_*_seed0.csv"))) == 2
    assert [m for m in modules if forbidden(m)] == []
