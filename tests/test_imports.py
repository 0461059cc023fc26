import os
import subprocess
import sys
from pathlib import Path

import rfpca

# scipy subpackages the package must not load: each costs import time that
# every CLI process pays, and rfpca needs only scipy.special at run time
HEAVY_SCIPY = (
    "scipy.stats",
    "scipy.interpolate",
    "scipy.integrate",
    "scipy.optimize",
    "scipy.sparse",
    "scipy.linalg",
)


def test_import_loads_only_scipy_special():
    src = str(Path(rfpca.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = (
        "import sys, rfpca, rfpca.cli\n"
        "assert rfpca.__file__.startswith(sys.argv[1]), rfpca.__file__\n"
        f"print(' '.join(m for m in {HEAVY_SCIPY!r} if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
