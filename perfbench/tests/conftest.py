import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402


@pytest.fixture(scope="session")
def cli():
    return run.load_program()
