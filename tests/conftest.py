"""Test-session setup shared by every test module."""

import os

# one BLAS thread, as every benchmark run uses: numpy reads the setting when
# it is first imported, which happens after this file loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
