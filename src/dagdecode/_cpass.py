"""The two compiled kernels, built from C and loaded with ``ctypes``.

``decode`` runs the whole search of an exact decode at beta 0 or 1, what
``decoders._numpy_decode`` computes, in one call: at beta 1 the walk that
seeds the mean, then each longest-path pass (``dagdecode_pass``: the
forward fill, the checks that the terminal is reached and that no value is
``+inf``, the rounding margin, the backtrace and its certificate),
each path's mean (its hops added left to right) and the stop rules; it
returns the path or the reason there is none, and the number of passes. A
beta 0 search is exactly one pass at ``lam`` 0, so a pass is tested and
timed through ``decode`` at beta 0. ``table`` fills the per-length Viterbi
table, what ``decoders._numpy_table`` computes, writing the backpointers
straight into their final dtype. On its first call, never at import,
``load()`` loads the library that holds both from its cache, compiling
``SOURCE`` into it first if it is missing (about 0.4 s), with the system
C compiler (``cc``) and ``FLAGS``: ``-O3``, but no fast-math and no
contraction, so each kernel does numpy's float operations in numpy's order
and, on NaN-free weights, returns what its numpy counterpart returns; and
each function on a 64-byte boundary, so a kernel's speed does not hang on
the size of the code before it (the same pass machine code, 48 bytes past
a boundary, made PATH beta 1 searches 7% slower).
The cache is ``$XDG_CACHE_HOME/dagdecode`` (``~/.cache/dagdecode`` where
that variable is unset, empty or relative; mode 0700); the file name is
keyed by the CRC-32 of the source, the flags and the machine (``zlib``
is loaded already; ``hashlib`` would load OpenSSL), and the file is moved
into place only once complete. Only a compile imports ``subprocess``, so a
process that finds the library cached never loads it. If anything fails
(no compiler, a compile error, an unwritable or shared cache directory, a
load error), ``load()`` returns None from then on and the caller keeps the
numpy code; it does not try again in the same process.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import threading
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

/* One longest-path pass from position 0 (valued start) to n-1 over the later
   hops of the n x n table trans; hop t -> j weighs trans[t, j] + bonus[j], or
   trans[t, j] alone where bonus is NULL, less lam. f is n doubles of scratch.
   Writes the best path's 0-based positions plus one, in order, to the end of
   path[0 .. n-1] and returns how many there are, negated when the path is
   not certified; returns 0 where n-1 is unreachable or a value is +inf.
   The backtrace takes the first maximum, as np.argmax does. Every sum is
   numpy's, in numpy's order. Not inlined into dagdecode_decode: the copy
   would add about 0.1 s to the compile. */
__attribute__((noinline))
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
            for (long j = t + 1; j < n; j++) {
                double c = (row[j] + bonus[j]) + d;
                f[j] = c > f[j] ? c : f[j];
            }
        else
            for (long j = t + 1; j < n; j++) {
                double c = row[j] + d;
                f[j] = c > f[j] ? c : f[j];
            }
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
        double b = bonus ? bonus[u] : 0.0, cutoff = f[u] - margin, best_value = -INFINITY;
        long best = -1, near = 0;
        for (long t = 0; t < u; t++) {
            double w = trans[t * n + u];
            double c = (bonus ? w + b : w) + (f[t] - lam);
            near += c >= cutoff;
            if (c > best_value) {
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

/* cur[t] = max(cur[t], c) for t in [lo, n), where c = (row[t] + bonus[t]) + d,
   or row[t] + d where bonus is NULL, setting arg[t] = s where c is strictly
   larger, so that the first maximum stays, as np.argmax keeps it. Both selects
   read one max, and arg holds doubles, the scores' width: so gcc vectorizes
   the loop. One loop serves both modes; -O3 unswitches it on bonus. */
static inline void relax(double *restrict cur, double *restrict arg,
                         const double *restrict row, const double *restrict bonus,
                         double d, double s, long lo, long n)
{
    for (long t = lo; t < n; t++) {
        double c = (bonus ? row[t] + bonus[t] : row[t]) + d, o = cur[t];
        double mx = c > o ? c : o;
        arg[t] = mx == o ? arg[t] : s;
        cur[t] = mx;
    }
}

/* The per-length table over the later hops of the n x n table trans, hop
   t -> j weighing trans[t, j] + bonus[j], or trans[t, j] alone where bonus is
   NULL. Paths start from start at position 0. Writes to alpha[i] the best
   score of an (i+1)-position path from 0 to n-1, and to row i of the zeroed
   n x n psi (items of width 1, 2 or 4 bytes) each position's 1-based
   predecessor on its best (i+1)-position prefix where that prefix's score is
   finite. f is 3n doubles of scratch. Sources are pushed in ascending order,
   so the sums and ties are the numpy table's. Returns 0, or, at the first
   length whose prefix scores hold +inf, stops and returns the first length
   the numpy table finds +inf or NaN at: this one if n-1 is +inf, else the
   next. */
long dagdecode_table(const double *restrict trans, const double *restrict bonus, long n,
                     double start, double *restrict alpha, void *restrict psi, long width,
                     double *restrict f)
{
    double *prev = f, *cur = f + n, *arg = f + 2 * n;
    for (long t = 0; t < n; t++)
        prev[t] = -INFINITY;
    prev[0] = start;
    alpha[0] = prev[n - 1];
    for (long i = 1; i < n; i++) {
        for (long t = i; t < n; t++) {
            cur[t] = -INFINITY;
            arg[t] = 0.0;
        }
        for (long s = i - 1; s + 1 < n; s++)
            if (prev[s] > -INFINITY)
                relax(cur, arg, trans + s * n, bonus, prev[s], (double)s, s + 1, n);
        int overflow = 0;
        for (long t = i; t < n; t++) {
            unsigned long q = isfinite(cur[t]) ? (unsigned long)arg[t] + 1 : 0;
            overflow |= cur[t] == INFINITY;
            if (width == 1)
                ((unsigned char *)psi)[i * n + t] = (unsigned char)q;
            else if (width == 2)
                ((unsigned short *)psi)[i * n + t] = (unsigned short)q;
            else
                ((unsigned int *)psi)[i * n + t] = (unsigned int)q;
        }
        alpha[i] = cur[n - 1];
        if (overflow)
            return cur[n - 1] == INFINITY ? i + 1 : i + 2;
        double *next = prev;
        prev = cur;
        cur = next;
    }
    return 0;
}

/* Why dagdecode_decode gives no path; it returns the reason negated. */
enum { NO_PATH = 1, DEAD_END = 2, NOT_RISING = 3, NOT_CERTIFIED = 4 };

/* The score per position of the k-position path p (1-based positions) from
   start, what decoders._mean_score gives: start plus each hop's weight, added
   left to right, over k. */
static double mean(const double *restrict trans, const double *restrict bonus, long n,
                   double start, const long *restrict p, long k)
{
    double s = start;
    for (long i = 0; i + 1 < k; i++) {
        long t = p[i] - 1, u = p[i + 1] - 1;
        s += bonus ? trans[t * n + u] + bonus[u] : trans[t * n + u];
    }
    return s / (double)k;
}

/* decoders._walk: from position 0, step to the later j maximizing trans[t, j]
   + bonus[j], or trans[t, j] alone where bonus is NULL, until n-1, taking the
   first maximum, as np.argmax does. Writes the 1-based positions to p and
   returns how many, or 0 where the best step is -inf. */
static long walk(const double *restrict trans, const double *restrict bonus, long n,
                 long *restrict p)
{
    long k = 0, t = 0;
    p[k++] = 1;
    while (t + 1 < n) {
        const double *row = trans + t * n;
        double best_value = -INFINITY;
        long best = -1;
        for (long j = t + 1; j < n; j++) {
            double c = bonus ? row[j] + bonus[j] : row[j];
            if (c > best_value) {
                best = j;
                best_value = c;
            }
        }
        if (best < 0)
            return 0;
        t = best;
        p[k++] = t + 1;
    }
    return k;
}

/* decoders._numpy_decode: the best path at beta 0 (one pass), or at beta 1
   the best per-position mean by Dinkelbach's method (walk, then pass and mean
   until the path repeats), with its stop rules. f is n doubles and path 2n
   longs of scratch. Writes the path's 1-based positions to the end of
   path[0 .. n-1] and returns how many there are, or returns a reason above,
   negated; writes the number of passes run to *passes. */
long dagdecode_decode(const double *restrict trans, const double *restrict bonus, long n,
                      double start, long beta, double *restrict f, long *restrict path,
                      long *restrict passes)
{
    const long *prev = NULL;
    long prev_k = 0, *cur = path;
    double lam = 0.0;
    *passes = 0;
    if (beta) {
        prev_k = walk(trans, bonus, n, path + n);
        if (prev_k == 0)
            return -DEAD_END;
        prev = path + n;
        lam = mean(trans, bonus, n, start, prev, prev_k);
    }
    for (;;) {
        long count = dagdecode_pass(trans, bonus, n, start, lam, f, cur);
        ++*passes;
        if (count == 0)
            return -NO_PATH;
        long k = labs(count);
        const long *p = cur + n - k;
        if (!beta || (k == prev_k && memcmp(p, prev, k * sizeof *p) == 0)) {
            if (count < 0)
                return -NOT_CERTIFIED;
            if (cur != path)
                memcpy(path + n - k, p, k * sizeof *p);
            return k;
        }
        double m = mean(trans, bonus, n, start, p, k);
        if (!(m > lam))
            return -NOT_RISING;
        lam = m;
        prev = p;
        prev_k = k;
        cur = cur == path ? path + n : path;
    }
}
"""

FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-falign-functions=64")


class Kernels(NamedTuple):
    """The library's two entry points (see ``_bind``); a pass runs through ``decode`` at beta 0."""

    table: Callable
    decode: Callable


#: None until the first ``load()``; then the kernels, or False if they failed.
_kernels = None
#: Held by the first ``load()``, so that concurrent callers compile once.
_lock = threading.Lock()


def load() -> Kernels | None:
    """The compiled kernels, or None if they cannot be had."""
    global _kernels
    if _kernels is None:
        with _lock:
            if _kernels is None:
                try:
                    _kernels = _bind(ctypes.CDLL(str(_library())))
                except (OSError, RuntimeError, ValueError, AttributeError):
                    _kernels = False
    return _kernels or None


def _library() -> Path:
    """The cached shared library, compiled into place first if it is missing."""
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
        import subprocess  # only to compile: it costs a CLI run about 6 ms to import

        tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        try:
            subprocess.run(
                [cc, *FLAGS, "-x", "c", "-", "-o", str(tmp)],
                input=SOURCE, text=True, capture_output=True, check=True, timeout=60,
            )
            os.replace(tmp, lib)
        except subprocess.SubprocessError as exc:
            raise RuntimeError(f"cc failed: {exc}") from exc
        finally:
            tmp.unlink(missing_ok=True)
    return lib


def _length(trans: np.ndarray, bonus: np.ndarray | None) -> int:
    """L, once ``trans`` and ``bonus`` are known to be arrays a kernel can read in place.

    Refuses (``ValueError``) a ``trans`` that is not a C-contiguous float64
    L x L array with L >= 1 and a ``bonus`` that is neither None nor a
    C-contiguous float64 array of length L.
    """
    n = len(trans)
    if not (n >= 1 and trans.dtype == np.float64 and trans.shape == (n, n)
            and trans.flags.c_contiguous):
        raise ValueError("the kernels need C-contiguous float64 L x L transitions, L >= 1")
    if bonus is not None and not (
        bonus.dtype == np.float64 and bonus.shape == (n,) and bonus.flags.c_contiguous
    ):
        raise ValueError("the kernels need a C-contiguous float64 bonus of length L")
    return n


#: The table's backpointer items by largest L, narrowest first: ``np.min_scalar_type(L)``.
_PSI_ITEMS = ((0xFF, ctypes.c_uint8, np.uint8), (0xFFFF, ctypes.c_uint16, np.uint16),
              (0xFFFFFFFF, ctypes.c_uint32, np.uint32))


def _bind(lib) -> Kernels:
    table_fn = lib.dagdecode_table
    table_fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_double,
                         ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p)
    table_fn.restype = ctypes.c_long
    decode_fn = lib.dagdecode_decode
    decode_fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_double,
                          ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)
    decode_fn.restype = ctypes.c_long

    def table(trans: np.ndarray, bonus: np.ndarray | None, start: float):
        """``decoders._numpy_table(trans, bonus, start)``, in one compiled call.

        Returns the same ``(alpha, psi, overflow)``; where ``overflow`` is not
        0, ``alpha`` and ``psi`` are left part-filled. Reads the arrays in
        place, so refuses (``ValueError``) those that ``_length`` refuses.
        """
        n = _length(trans, bonus)
        # Zeroed ctypes buffers, viewed by numpy after the call: no ``ndarray.ctypes`` read.
        item, dtype = next((c, d) for top, c, d in _PSI_ITEMS if n <= top)
        alpha, psi = (ctypes.c_double * n)(), (item * (n * n))()
        overflow = table_fn(trans.ctypes.data, None if bonus is None else bonus.ctypes.data, n,
                            start, alpha, psi, ctypes.sizeof(item),
                            (ctypes.c_double * (3 * n))())
        return np.frombuffer(alpha), np.frombuffer(psi, dtype).reshape(n, n), overflow

    def decode(trans: np.ndarray, bonus: np.ndarray | None, start: float, beta: float):
        """``decoders._numpy_decode(trans, bonus, start, beta)``, in one compiled call.

        Returns the same ``(path, reason, passes)``, ``reason`` as an int.
        Reads the arrays in place, so refuses (``ValueError``) those that
        ``_length`` refuses.
        """
        n = _length(trans, bonus)
        path = (ctypes.c_long * (2 * n))()
        passes = ctypes.c_long()
        count = decode_fn(trans.ctypes.data, None if bonus is None else bonus.ctypes.data, n,
                          start, beta == 1, (ctypes.c_double * n)(), path, ctypes.byref(passes))
        if count < 0:
            return None, -count, passes.value
        return tuple(path[n - count : n]), None, passes.value

    return Kernels(table, decode)
