import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Make the sibling oracle module importable regardless of invocation directory.
sys.path.insert(0, str(Path(__file__).resolve().parent))

# Every property test draws the same examples on every run, and takes as long as it needs.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="session")
def workloads():
    """``perfbench/workloads.py``, loaded by path as ``perfbench/run.py`` loads the oracles."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def stiefel_checked_steps(monkeypatch) -> list:
    """Make every optim.apply_gradients call validate the Stiefel weights it
    returns (``NetworkParams.validate_stiefel`` raises at drift >= 1e-8);
    the list collects the parameters of each step."""
    from handspd import optim

    steps = []
    step = optim.apply_gradients

    def checked(*args):
        new = step(*args)
        new.validate_stiefel()
        steps.append(new)
        return new

    monkeypatch.setattr(optim, "apply_gradients", checked)
    return steps
