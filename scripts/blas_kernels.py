"""Print numpy's version and the OpenBLAS kernel set (core) it runs on.

A float LP optimum's last bits depend on the OpenBLAS kernel set
(SkylakeX, Haswell, Prescott, ...); the reports must not, so a log that
names the core tells which set a check ran on.  The core is
read through ctypes from the BLAS numpy links; "unknown" when none of the
OpenBLAS core-name symbols is there.  Not a check: it always exits 0.

    python scripts/blas_kernels.py
"""

import ctypes

import numpy

try:
    from numpy._core import _multiarray_umath as core
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as core

SYMBOLS = (
    "openblas_get_corename",
    "openblas_get_corename64_",
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
)

lib = ctypes.CDLL(core.__file__)
corename = "unknown"
for symbol in SYMBOLS:
    if hasattr(lib, symbol):
        get = getattr(lib, symbol)
        get.argtypes = []
        get.restype = ctypes.c_char_p
        corename = get().decode()
        break
print(f"numpy {numpy.__version__}, OpenBLAS core {corename}")
