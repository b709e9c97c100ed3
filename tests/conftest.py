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


@pytest.fixture
def child_env():
    """Build the environment for a child Python process.

    The child inherits the parent's environment, imports the same ``cig``
    as the parent, and then gets the test's own overrides::

        subprocess.run(..., env=child_env(LC_ALL="C"))
    """

    def make(**overrides):
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            _CIG_ROOT + os.pathsep + inherited if inherited else _CIG_ROOT
        )
        env.update(overrides)
        return env

    return make
