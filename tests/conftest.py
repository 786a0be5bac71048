import os

import pytest


@pytest.fixture(autouse=True)
def no_stray_children():
    """Fail any test that leaves a child process behind, running or a zombie."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({f'pid {pid}, now reaped' if pid else 'still running'})")
