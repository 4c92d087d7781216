"""The longest-path forward pass, compiled from C and loaded with ``ctypes``.

On its first call, never at import, ``load()`` loads the library from its
cache, compiling ``SOURCE`` into it first if it is missing, with the system
C compiler (``cc``) and ``FLAGS``: no fast-math, no contraction, so the
pass does numpy's float operations in numpy's order and fills ``f`` bit
for bit as ``decoders._numpy_forward`` does. The cache is
``$XDG_CACHE_HOME/dagdecode`` (default ``~/.cache/dagdecode``, mode 0700);
the file name is keyed by the CRC-32 of the source, the flags and the
machine (``zlib`` is loaded already; ``hashlib`` would load OpenSSL), and
the file is moved into place only once complete. If anything fails (no
compiler, a compile error, an unwritable or shared cache directory, a load
error), ``load()`` returns None from then on and the caller keeps the numpy pass; it does not try again in the same process.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import threading
import zlib
from pathlib import Path

import numpy as np

SOURCE = r"""
#include <math.h>

/* For t = 0 .. n-2 with f[t] > -inf: f[t+1:] = max(f[t+1:], w[t, t+1:] + (f[t] - lam)).
   The max keeps a NaN from either side, as np.maximum does. */
void dagdecode_forward(const double *w, double *f, long n, double lam)
{
    for (long t = 0; t + 1 < n; t++) {
        double ft = f[t];
        if (!(ft > -INFINITY))
            continue;
        double d = ft - lam;
        const double *row = w + t * n;
        for (long j = t + 1; j < n; j++) {
            double a = f[j], b = row[j] + d;
            f[j] = (a >= b || a != a) ? a : b;
        }
    }
}
"""

FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: None until the first ``load()``; then the pass, or False if it failed.
_pass = None
#: Held by the first ``load()``, so that concurrent callers compile once.
_lock = threading.Lock()


def load():
    """The compiled ``forward(weights, f, lam)``, or None if it cannot be had."""
    global _pass
    if _pass is None:
        import subprocess  # here, not at the top: ``import dagdecode`` pays for none of this

        with _lock:
            if _pass is None:
                try:
                    _pass = _bind(ctypes.CDLL(str(_library())))
                except (OSError, RuntimeError, ValueError, AttributeError,
                        subprocess.SubprocessError):
                    _pass = False
    return _pass or None


def _library() -> Path:
    """The cached shared library, compiled into place first if it is missing."""
    import subprocess

    key = zlib.crc32("\0".join([SOURCE, *FLAGS, platform.machine()]).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "dagdecode"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    stat = cache.stat()
    if stat.st_uid != os.getuid() or stat.st_mode & 0o022:
        raise PermissionError(f"{cache} is not private to this user")
    lib = cache / f"forward-{key:08x}.so"
    if not lib.exists():
        cc = shutil.which("cc")
        if cc is None:
            raise FileNotFoundError("no C compiler (cc) on PATH")
        tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        try:
            subprocess.run(
                [cc, *FLAGS, "-x", "c", "-", "-o", str(tmp)],
                input=SOURCE, text=True, capture_output=True, check=True, timeout=60,
            )
            os.replace(tmp, lib)
        finally:
            tmp.unlink(missing_ok=True)
    return lib


def _bind(lib):
    fn = lib.dagdecode_forward
    fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_double)
    fn.restype = None

    def forward(weights: np.ndarray, f: np.ndarray, lam: float) -> None:
        """Fill ``f`` in place, as ``decoders._numpy_forward`` does."""
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        n = len(f)
        if weights.shape != (n, n) or f.dtype != np.float64 or not f.flags.carray:
            raise ValueError("forward pass needs L x L weights and a writable float64 f")
        fn(weights.ctypes.data, f.ctypes.data, n, lam)

    return forward
