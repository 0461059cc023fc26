import os
import subprocess
import sys
from pathlib import Path

import rfpca
from rfpca.simulate import Contamination, GridDesign, TrueModel, simulate_dataset

# numpy is the only run-time dependency: scipy costs every CLI process about
# 0.3 s and 25 MB to import. The commands run in the child process, so an
# import deferred into a function that fit, diagnose or select calls is
# caught as well as one at module level.
CHILD = """\
import sys
import rfpca, rfpca.cli
assert rfpca.__file__.startswith(sys.argv[1]), rfpca.__file__
csv, out = sys.argv[2], sys.argv[3]
for argv in (
    ["fit", "--data", csv, "--dim", "1", "--out", out],
    ["diagnose", "--data", csv, "--model", out + "/model.json", "--grid", "11", "--out", out],
    ["select", "--data", csv, "--dmax", "1", "--criterion", "bic", "--out", out],
):
    assert rfpca.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_runs_load_no_scipy(tmp_path):
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(10), 30, Contamination.none(), seed=17
    )
    with open(tmp_path / "data.csv", "w") as fh:
        fh.write("id,time,value\n")
        for curve in data.trajectories:
            rows = zip(curve.times.tolist(), curve.values.tolist())
            fh.writelines(f"{curve.id},{t!r},{v!r}\n" for t, v in rows)
    src = str(Path(rfpca.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, src, str(tmp_path / "data.csv"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout
