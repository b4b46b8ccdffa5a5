import os
from pathlib import Path

import pytest

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
SRC_DIR = FIXTURE_DIR.parent / "src"


@pytest.fixture
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture
def src_env() -> dict:
    """Environment for a child interpreter that imports dupcat from src/."""
    paths = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
