import importlib.util
from pathlib import Path

import pytest

ORACLE_PATH = Path(__file__).resolve().parent.parent / "scripts" / "oracle_counts.py"


@pytest.fixture(scope="session")
def oracle():
    """scripts/oracle_counts.py loaded standalone from its file; it imports nothing of plimpton."""
    spec = importlib.util.spec_from_file_location("oracle_counts", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
