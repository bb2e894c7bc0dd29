"""Test-session setup that must run before any test module imports numpy.

The products in this suite are small (81x81 at most), where OpenBLAS's
thread pool costs more CPU and wall time than it saves. pytest and
hypothesis do not import numpy, so pinning one thread here takes effect
unless the caller has already chosen a count.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
