"""Backend selection: env var, overrides, scoping.

The backend is resolved once per switch — from ``REPRO_KERNELS`` at
the first kernel call — so every test that sets the environment
variable runs in a fresh interpreter, where that first call is still
ahead of it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import kernels

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Import, make one kernel call, report what it dispatched to (or the
#: error it raised).  Importing must never read the env var.
PROBE = """
import json
import numpy as np
from repro import kernels

try:
    kernels.logsumexp(np.zeros((1, 2)))
except kernels.KernelBackendError as exc:
    print(json.dumps({"error": str(exc)}))
else:
    print(json.dumps({"backend": kernels.active_backend()}))
"""


def _fresh(env_value, snippet=PROBE) -> dict:
    """Run ``snippet`` in a new interpreter with ``REPRO_KERNELS``
    set to ``env_value`` (``None``: unset) and parse its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop(kernels.ENV_VAR, None)
    if env_value is not None:
        env[kernels.ENV_VAR] = env_value
    result = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=120,
        check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.fixture(autouse=True)
def _clean_backend(monkeypatch):
    """Every test starts with no override and no env var, and leaks neither."""
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    monkeypatch.setattr(kernels, "_override", None)
    monkeypatch.setattr(kernels, "_active", None)
    yield


class TestSelection:
    def test_default_is_vectorized(self):
        assert kernels.DEFAULT_BACKEND == "vectorized"
        assert kernels.active_backend() == "vectorized"
        assert _fresh(None) == {"backend": "vectorized"}

    def test_env_var_selects_reference(self):
        assert _fresh("reference") == {"backend": "reference"}

    def test_env_var_is_normalised(self):
        assert _fresh("  Reference ") == {"backend": "reference"}

    def test_empty_env_var_falls_back_to_default(self):
        assert _fresh("") == {"backend": kernels.DEFAULT_BACKEND}

    def test_invalid_env_var_raises(self):
        """Raised at the first kernel call, not at ``import repro``."""
        got = _fresh("simd")
        with pytest.raises(kernels.KernelBackendError) as expected:
            kernels.set_backend("simd")
        assert got == {"error": str(expected.value)}
        assert "'simd'" in got["error"]

    def test_set_backend_beats_env(self):
        snippet = """
import json
import os
from repro import kernels

seen = [kernels.active_backend()]
os.environ[kernels.ENV_VAR] = "reference"
seen.append(kernels.active_backend())  # resolved once: no re-read
kernels.set_backend("reference")
seen.append(kernels.active_backend())
os.environ[kernels.ENV_VAR] = "vectorized"
kernels.set_backend(None)  # clearing the override re-reads the env
seen.append(kernels.active_backend())
print(json.dumps(seen))
"""
        assert _fresh("vectorized", snippet) == [
            "vectorized",
            "vectorized",
            "reference",
            "vectorized",
        ]

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(kernels.KernelBackendError):
            kernels.set_backend("turbo")

    def test_use_backend_restores_on_exit(self):
        assert kernels.active_backend() == "vectorized"
        with kernels.use_backend("reference"):
            assert kernels.active_backend() == "reference"
            with kernels.use_backend("vectorized"):
                assert kernels.active_backend() == "vectorized"
            assert kernels.active_backend() == "reference"
        assert kernels.active_backend() == "vectorized"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with kernels.use_backend("reference"):
                raise RuntimeError("boom")
        assert kernels.active_backend() == "vectorized"

    def test_backend_module_resolution(self):
        from repro.kernels import reference, vectorized

        assert kernels.backend_module("reference") is reference
        assert kernels.backend_module("vectorized") is vectorized
        with kernels.use_backend("reference"):
            assert kernels.backend_module() is reference


class TestDispatch:
    def test_dispatch_follows_switch(self):
        """The same facade call hits whichever backend is active."""
        values = np.array([[0.0, -1.0]])
        with kernels.use_backend("reference"):
            ref = kernels.logsumexp(values, axis=1)
        with kernels.use_backend("vectorized"):
            vec = kernels.logsumexp(values, axis=1)
        np.testing.assert_allclose(ref, vec, rtol=1e-12)

    def test_safe_log_weights_shared_helper(self):
        out = kernels.safe_log_weights(np.array([0.5, 0.0, 0.5]))
        assert out[1] == -np.inf
        np.testing.assert_allclose(out[[0, 2]], np.log(0.5))
