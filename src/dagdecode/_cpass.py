"""One whole longest-path pass, compiled from C and loaded with ``ctypes``.

A pass is what ``decoders._numpy_pass`` computes, in one call: the forward
fill, the checks that the terminal is reached and that no value is NaN or
``+inf``, the rounding margin, the backtrace and its certificate. On its
first call, never at import, ``load()`` loads the library from its cache,
compiling ``SOURCE`` into it first if it is missing, with the system C
compiler (``cc``) and ``FLAGS``: ``-O3``, but no fast-math and no
contraction, so the pass does numpy's float operations in numpy's order and
returns the numpy pass's ``(path, certified)``. The cache is
``$XDG_CACHE_HOME/dagdecode`` (``~/.cache/dagdecode`` where that variable
is unset, empty or relative; mode 0700); the file name is keyed by the
CRC-32 of the source, the flags and the machine (``zlib`` is loaded
already; ``hashlib`` would load OpenSSL), and the file is moved into place
only once complete. If anything fails (no
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
#include <float.h>
#include <math.h>

/* max(a, b), keeping a NaN from either side as np.maximum does. Bitwise |,
   not ||, so that the compiler can vectorize the loops that call it. */
static inline double maximum(double a, double b)
{
    return ((a >= b) | (a != a)) ? a : b;
}

/* One longest-path pass from position 0 (valued start) to n-1 over the later
   hops of the n x n table trans; hop t -> j weighs trans[t, j] + bonus[j], or
   trans[t, j] alone where bonus is NULL, less lam. f is n doubles of scratch.
   Writes the best path's 0-based positions plus one, in order, to the end of
   path[0 .. n-1] and returns how many there are, negated when the path is
   not certified; returns 0 where n-1 is unreachable or a value is NaN or
   +inf. The backtrace takes the first NaN, else the first maximum, as
   np.argmax does. Every sum is numpy's, in numpy's order. */
long dagdecode_pass(const double *restrict trans, const double *restrict bonus, long n,
                    double start, double lam, double *restrict f, long *restrict path)
{
    f[0] = start;
    for (long j = 1; j < n; j++)
        f[j] = -INFINITY;
    for (long t = 0; t + 1 < n; t++) {
        if (!(f[t] > -INFINITY))
            continue;
        const double *row = trans + t * n;
        double d = f[t] - lam;
        if (bonus)
            for (long j = t + 1; j < n; j++)
                f[j] = maximum(f[j], (row[j] + bonus[j]) + d);
        else
            for (long j = t + 1; j < n; j++)
                f[j] = maximum(f[j], row[j] + d);
    }
    if (!(f[n - 1] > -INFINITY))
        return 0;
    double top = 0.0;
    for (long j = 0; j < n; j++) {
        if (!(f[j] < INFINITY))
            return 0;
        if (f[j] > -INFINITY && fabs(f[j]) > top)
            top = fabs(f[j]);
    }
    /* Worst-case rounding of an n-hop sum, widened by up to n/len for a mean. */
    double scale = 1.0 + top + fabs(lam) * (double)n;
    double margin = 32 * DBL_EPSILON * (double)((n + 1) * (n + 1)) * scale;
    int certified = isfinite(margin);
    long k = n, u = n - 1;
    path[--k] = n;
    while (u > 0) {
        double b = bonus ? bonus[u] : 0.0, cutoff = f[u] - margin, best_value = NAN;
        long best = -1, near = 0;
        for (long t = 0; t < u; t++) {
            double w = trans[t * n + u];
            double c = (bonus ? w + b : w) + (f[t] - lam);
            near += c >= cutoff;
            if (best < 0 || (best_value == best_value && (c > best_value || c != c))) {
                best = t;
                best_value = c;
            }
        }
        certified = certified && near == 1;
        u = best;
        path[--k] = u + 1;
    }
    return certified ? n - k : k - n;
}
"""

FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")

#: None until the first ``load()``; then the pass, or False if it failed.
_pass = None
#: Held by the first ``load()``, so that concurrent callers compile once.
_lock = threading.Lock()


def load():
    """The compiled ``longest_path(trans, bonus, start, lam)``, or None if it cannot be had."""
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
    # The XDG spec says to ignore a relative (or empty) XDG_CACHE_HOME.
    base = Path(os.environ.get("XDG_CACHE_HOME", ""))
    cache = (base if base.is_absolute() else Path.home() / ".cache") / "dagdecode"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    stat = cache.stat()
    if stat.st_uid != os.getuid() or stat.st_mode & 0o022:
        raise PermissionError(f"{cache} is not private to this user")
    lib = cache / f"pass-{key:08x}.so"
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
    fn = lib.dagdecode_pass
    fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_double,
                   ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p)
    fn.restype = ctypes.c_long

    def longest_path(trans: np.ndarray, bonus: np.ndarray | None, start: float, lam: float):
        """``decoders._numpy_pass(trans, bonus, start, lam)``, in one compiled call.

        Reads the arrays in place, so refuses (``ValueError``) a ``trans``
        that is not a C-contiguous float64 L x L array with L >= 1 and a
        ``bonus`` that is neither None nor a C-contiguous float64 array of
        length L.
        """
        n = len(trans)
        if not (n >= 1 and trans.dtype == np.float64 and trans.shape == (n, n)
                and trans.flags.c_contiguous):
            raise ValueError("the pass needs C-contiguous float64 L x L transitions, L >= 1")
        if bonus is not None and not (
            bonus.dtype == np.float64 and bonus.shape == (n,) and bonus.flags.c_contiguous
        ):
            raise ValueError("the pass needs a C-contiguous float64 bonus of length L")
        # ctypes arrays, not numpy's: ``ndarray.ctypes`` costs microseconds per read.
        path = (ctypes.c_long * n)()
        count = fn(trans.ctypes.data, None if bonus is None else bonus.ctypes.data, n,
                   start, lam, (ctypes.c_double * n)(), path)
        if count == 0:
            return None, False
        return tuple(path[n - abs(count):]), count > 0

    return longest_path
