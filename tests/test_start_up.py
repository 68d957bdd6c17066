"""Start-up footprint: importing tailnet, its harness and its CLI loads
numpy and ``scipy.special`` but not ``scipy.linalg``, ``scipy.optimize`` or
``scipy.integrate``; the three oracles that use the last two load them on
their first call, and still return their values."""

import json
import os
import subprocess
import sys
from pathlib import Path

import tailnet

SRC = str(Path(tailnet.__file__).resolve().parents[1])

PROBE = """
import json, sys
import tailnet, tailnet.harness, tailnet.cli
lazy = ("scipy.optimize", "scipy.integrate")
at_import = [m for m in lazy if m in sys.modules]
from tailnet.covar import gaussian_covar_exact
from tailnet.harness import brute_force_qp
from tailnet.orthant import bivariate_normal_survival
values = [bivariate_normal_survival(1.0, 0.5, 0.3),
          gaussian_covar_exact(1.0, 1.0, 0.5, 0.05, 0.05),
          brute_force_qp([[1.0, 0.3], [0.3, 1.0]])[0]]
print(json.dumps({"at_import": at_import, "values": values,
                  "after": [m for m in lazy if m in sys.modules]}))
"""


def test_import_leaves_optimize_and_integrate_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    probe = json.loads(out.stdout.splitlines()[-1])
    assert probe["at_import"] == []
    assert probe["after"] == ["scipy.optimize", "scipy.integrate"]
    p_joint, covar, gamma = probe["values"]
    assert 0.0 < p_joint < 0.3085375387259869     # below P(Y1 > 0.5)
    assert covar > (1.0 / 0.05)                   # beyond VaR_0.05
    assert abs(gamma - 2.0 / 1.3) < 1e-6          # 1' Sigma^{-1} 1


def test_import_leaves_scipy_linalg_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    probe = ("import json, sys\n"
             "import tailnet, tailnet.harness, tailnet.cli\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "                        if m.startswith('scipy.'))))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    loaded = json.loads(out.stdout.splitlines()[-1])
    for name in ("scipy.linalg", "scipy.optimize", "scipy.integrate"):
        assert name not in loaded
    assert "scipy.special" in loaded
