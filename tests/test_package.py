"""The package's export list and version."""

from pathlib import Path

import slicesim
from slicesim.metrics import DEFAULT_PHASE_SIZE
from slicesim.scenario import TOOL_VERSION, Scenario

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_exported_name_resolves():
    assert [name for name in slicesim.__all__
            if not hasattr(slicesim, name)] == []


def test_one_record_of_the_version_and_the_phase_size():
    import tomllib      # Python 3.11+

    with open(PYPROJECT, "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert slicesim.__version__ == TOOL_VERSION == version
    assert Scenario.phase_size == DEFAULT_PHASE_SIZE
