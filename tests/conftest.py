import multiprocessing
import threading

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "wcnsflow",
    derandomize=True,
    deadline=None,
    max_examples=100,
)
hypothesis.settings.load_profile("wcnsflow")


@pytest.fixture(autouse=True)
def nothing_left_running():
    """Fail a test that leaves a worker process or a rank thread running.
    Its processes are killed, so the tests after it start clean."""
    yield
    processes = multiprocessing.active_children()
    for p in processes:
        p.kill()
        p.join()
    left = [p.name for p in processes] + [
        t.name for t in threading.enumerate() if t.name.startswith("rank")]
    assert not left, f"left running: {left}"
