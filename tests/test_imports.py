import ast
import os
import re
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




def _stored_names(tree: ast.AST) -> set:
    """Every name a module assigns anywhere, by any kind of assignment."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def test_api_is_the_package_imports_and_the_readme_lists_it():
    # the API is declared once, by what rfpca/__init__.py imports: no module
    # keeps a second list, and the README's API section names every export
    src = Path(rfpca.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        assert "__all__" not in _stored_names(ast.parse(path.read_text())), path
    init = ast.parse((src / "__init__.py").read_text())
    bound = _stored_names(init) | {alias.asname or alias.name for node in init.body
                                   if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported = {name for name in bound if not name.startswith("_")}
    readme = (src.parents[1] / "README.md").read_text()
    section = re.search(r"^## API\n(.*?)^## ", readme, re.M | re.S)
    assert section, "README.md has no API section"
    listed = set(re.findall(r"`([A-Za-z_]\w*)", section.group(1)))
    assert sorted(exported - listed) == []
