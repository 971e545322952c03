import faulthandler
import os
import sys
import threading
from pathlib import Path

import pytest

# allow running the test suite from a fresh checkout without installing
sys.path.insert(0, str(Path(__file__).parent / "src"))

# the slowest test takes a few seconds; a kernel that stops converging should
# fail the run with a stack rather than hang it
TEST_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def _watchdog(request):
    """Exit 1 with every thread's stack if a test runs past TEST_TIMEOUT_S."""

    def expire():
        # pytest captures fd 2 during a test; release it so the dump is seen
        capture = request.config.pluginmanager.getplugin("capturemanager")
        if capture is not None:
            capture.suspend_global_capture(in_=True)
        print(f"\n{request.node.nodeid} ran past {TEST_TIMEOUT_S} s", file=sys.stderr, flush=True)
        faulthandler.dump_traceback(all_threads=True)
        os._exit(1)

    timer = threading.Timer(TEST_TIMEOUT_S, expire)
    timer.daemon = True
    timer.start()
    yield
    timer.cancel()
