import os
from pathlib import Path

import pytest
from hypothesis import settings

import cig

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# The directory holding the ``cig`` package this test run imported: ``src/``
# in a plain checkout, ``site-packages`` for an installed package.
_CIG_ROOT = str(Path(cig.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def _default_caps(monkeypatch):
    """Hide the caller's ``CIG_*`` cap variables so every test sees the
    documented defaults."""
    for name in ("CIG_SEARCH_CAP", "CIG_AUT_CAP"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def child_env():
    """Build the environment for a child Python process.

    The child inherits the parent's environment minus every ``CIG_*``
    variable, imports the same ``cig`` as the parent, and then gets the
    test's own overrides::

        subprocess.run(..., env=child_env(CIG_SEARCH_CAP="3"))
    """

    def make(**overrides):
        env = {k: v for k, v in os.environ.items() if not k.startswith("CIG_")}
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            _CIG_ROOT + os.pathsep + inherited if inherited else _CIG_ROOT
        )
        env.update(overrides)
        return env

    return make
