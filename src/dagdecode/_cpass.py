"""The compiled kernels and table reader, built from C and loaded with ``ctypes``.

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
straight into their final dtype, ``np.min_scalar_type(L)`` as there. Both
fill through one max-plus step, ``relax``: the pass pushes each reachable
position's row into its scores, the table each source's row into the next
length's, with the backpointers beside them. ``read`` finds and reads the
two tables of a JSON instance document in one walk of its bytes, for
``io.parse_instance``; it reads only what it can read exactly as ``json``
does and leaves any other text to ``json`` (see ``dagdecode_read``). On its
first call, never at import, ``load()`` loads the library that holds all
three from its cache, compiling ``SOURCE`` into it first if it is missing
(about 0.5 s), with the system C compiler (``cc``) and ``FLAGS``: ``-O3``,
but no fast-math and no contraction, so each kernel does numpy's float
operations in numpy's order and, on NaN-free weights, returns what its
numpy counterpart returns; and each function on a 64-byte boundary, so a
kernel's speed does not hang on the size of the code before it (the same
pass machine code, 48 bytes past a boundary, made PATH beta 1 searches 7%
slower).
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

/* cur[t] = max(cur[t], c) for t in [lo, n), where c = (row[t] + bonus[t]) + d,
   or row[t] + d where bonus is NULL; where arg is not NULL, also sets arg[t] = s
   where c is strictly larger, so that the first maximum stays, as np.argmax
   keeps it. Both selects read one max, and arg holds doubles, the scores'
   width: so gcc vectorizes the loop. The one fill loop of both kernels; -O3
   unswitches it on bonus, and on arg in the pass, which passes NULL. */
static inline void relax(double *restrict cur, double *restrict arg,
                         const double *restrict row, const double *restrict bonus,
                         double d, double s, long lo, long n)
{
    for (long t = lo; t < n; t++) {
        double c = (bonus ? row[t] + bonus[t] : row[t]) + d, o = cur[t];
        double mx = c > o ? c : o;
        if (arg)
            arg[t] = mx == o ? arg[t] : s;
        cur[t] = mx;
    }
}

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
    for (long t = 0; t + 1 < n; t++)
        if (f[t] > -INFINITY)
            relax(f, NULL, trans + t * n, bonus, f[t] - lam, 0.0, t + 1, n);
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

/* The per-length table over the later hops of the n x n table trans, hop
   t -> j weighing trans[t, j] + bonus[j], or trans[t, j] alone where bonus is
   NULL. Paths start from start at position 0. Writes to alpha[i] the best
   score of an (i+1)-position path from 0 to n-1, and to row i of the zeroed
   n x n psi (items of width 1, 2 or 4 bytes) each position's 1-based
   predecessor on its best (i+1)-position prefix where that prefix's score is
   finite. f is 3n doubles of scratch, never NULL: so gcc knows that arg,
   taken from f, is not NULL either, and keeps no copy of relax without it.
   Sources are pushed in ascending order, so the sums and ties are the numpy
   table's. Returns 0, or, at the first length whose prefix scores hold +inf,
   stops and returns the first length the numpy table finds +inf or NaN at:
   this one if n-1 is +inf, else the next. */
__attribute__((nonnull(8)))
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

/* JSON's four whitespace bytes. */
static inline int space(char c)
{
    return c == ' ' || c == '\n' || c == '\r' || c == '\t';
}

static inline const char *skip_space(const char *p)
{
    while (space(*p))
        p++;
    return p;
}

/* Reads the JSON number at *p, which must have a fraction or an exponent (json
   reads an integer as an int, and -0 as +0), into *out and moves *p past it.
   Returns 0, with *p anywhere, where the text there is no such number or its
   value is not finite. The value is float()'s: exact by Clinger's fast case
   (Clinger, PLDI 1990) where the significand's digits read as an integer of at
   most 2^53 and the power of ten is at most 22, so that one IEEE multiply or
   divide of two exact doubles rounds once; else strtod, which must stop where
   the token ends (in a locale whose decimal point is not '.', it does not). */
static int number(const char **p, double *out)
{
    static const double tens[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                  1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                                  1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
    const char *s = *p, *c = s + (*s == '-');
    unsigned long long w = 0;
    int big = 0, real = 0;
    long e = 0, power = 0, sign = 1;
    if (*c == '0')
        c++;
    else if (*c >= '1' && *c <= '9')
        for (; *c >= '0' && *c <= '9'; c++)
            big = big || (w = w * 10 + (unsigned long long)(*c - '0')) > (1ULL << 53);
    else
        return 0;
    if (*c == '.') {
        if (!(*++c >= '0' && *c <= '9'))
            return 0;
        for (; *c >= '0' && *c <= '9'; c++, power--)
            big = big || (w = w * 10 + (unsigned long long)(*c - '0')) > (1ULL << 53);
        real = 1;
    }
    if (*c == 'e' || *c == 'E') {
        c++;
        if (*c == '+' || *c == '-')
            sign = *c++ == '-' ? -1 : 1;
        if (!(*c >= '0' && *c <= '9'))
            return 0;
        for (; *c >= '0' && *c <= '9'; c++)
            e = e < 100000 ? e * 10 + (*c - '0') : e;
        power += sign * e;
        real = 1;
    }
    if (!real)
        return 0;
    *p = c;
#if FLT_EVAL_METHOD == 0
    if (!big && power >= -22 && power <= 22) {
        double v = power < 0 ? (double)w / tens[-power] : (double)w * tens[power];
        *out = *s == '-' ? -v : v;
        return 1;
    }
#endif
    char *stop;
    *out = strtod(s, &stop);
    return stop == c && isfinite(*out);
}

/* Reads the table at *p, strictly [[cell, ...], ...] with at least one row,
   rows of one width, and each cell null (-inf) or a number(), into out, which
   has room for cap cells; moves *p past it and writes its shape. Returns 0 for
   any other text. */
static int read_table(const char **p, double *restrict out, long cap, long *shape)
{
    const char *c = *p;
    long cells = 0, rows = 0, width = 0;
    if (*c != '[')
        return 0;
    c = skip_space(c + 1);
    for (;;) {
        if (*c != '[')
            return 0;
        c = skip_space(c + 1);
        long start = cells;
        for (;;) {
            if (cells == cap)
                return 0;
            if (c[0] == 'n' && c[1] == 'u' && c[2] == 'l' && c[3] == 'l') {
                out[cells++] = -INFINITY;
                c += 4;
            } else if (!number(&c, out + cells++))
                return 0;
            c = skip_space(c);
            if (*c != ',')
                break;
            c = skip_space(c + 1);
        }
        if (*c != ']' || (rows && cells - start != width))
            return 0;
        width = cells - start;
        rows++;
        c = skip_space(c + 1);
        if (*c != ',')
            break;
        c = skip_space(c + 1);
    }
    if (*c != ']')
        return 0;
    *p = c + 1;
    shape[0] = rows;
    shape[1] = width;
    return 1;
}

/* Moves past the JSON value at p, unchecked: to the bracket that closes it, or
   to the first comma, whitespace or closing bracket outside any bracket, minding
   strings and their escapes. Returns NULL where the text ends first. */
static const char *skip_value(const char *p, const char *end)
{
    long depth = 0;
    for (; p < end; p++) {
        if (*p == '"') {
            for (p++; p < end && *p != '"'; p++)
                p += *p == '\\';
            if (p >= end)
                return NULL;
        } else if (*p == '[' || *p == '{') {
            depth++;
        } else if (*p == ']' || *p == '}') {
            if (depth == 0)
                return p;
            if (--depth == 0)
                return p + 1;
        } else if (depth == 0 && (*p == ',' || space(*p))) {
            return p;
        }
    }
    return depth == 0 ? p : NULL;
}

/* How many commas text[0 .. n) holds: a table of c cells holds c - 1. */
long dagdecode_commas(const char *text, long n)
{
    long count = 0;
    for (long i = 0; i < n; i++)
        count += text[i] == ',';
    return count;
}

/* Finds and reads the two tables of the JSON instance document text[0 .. n),
   whose byte text[n] must be 0, in one walk of its top-level object: the value
   of key "log_transitions" goes to table 0 and that of "log_emissions" to table
   1, each by read_table into out (cap cells in all). info[5k .. 5k+4] receives
   table k's byte span in the text (start, end), its first cell in out, and its
   rows and width. Other values are skipped unchecked. Returns 0 where a table
   is missing, seen twice or not read, a top-level key holds a backslash (an
   escape could spell a table's key), or the walk finds no object there. */
long dagdecode_read(const char *text, long n, double *restrict out, long cap, long *info)
{
    const char *end = text + n, *p = skip_space(text);
    long used = 0, found = 0;
    if (*p != '{')
        return 0;
    p = skip_space(p + 1);
    for (;;) {
        if (*p != '"')
            return 0;
        const char *key = ++p;
        while (p < end && *p != '"')
            if (*p++ == '\\')
                return 0;
        if (p >= end)
            return 0;
        long size = p - key, k = size == 15 && !memcmp(key, "log_transitions", 15) ? 0
                                : size == 13 && !memcmp(key, "log_emissions", 13) ? 1 : -1;
        p = skip_space(p + 1);
        if (*p != ':')
            return 0;
        p = skip_space(p + 1);
        if (k < 0) {
            if (!(p = skip_value(p, end)))
                return 0;
        } else {
            long *t = info + 5 * k;
            if (found & (1 << k))
                return 0;
            found |= 1 << k;
            t[0] = p - text;
            t[2] = used;
            if (!read_table(&p, out + used, cap - used, t + 3))
                return 0;
            t[1] = p - text;
            used += t[3] * t[4];
        }
        p = skip_space(p);
        if (*p != ',')
            break;
        p = skip_space(p + 1);
    }
    return *p == '}' && skip_space(p + 1) == end && found == 3;
}
"""

FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-falign-functions=64")


class Kernels(NamedTuple):
    """The library's entry points (see ``_bind``); a pass runs through ``decode`` at beta 0."""

    table: Callable
    decode: Callable
    read: Callable


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


def _arrays(trans: np.ndarray, bonus: np.ndarray | None) -> tuple[int, int, int | None]:
    """``(L, trans's address, bonus's or None)``, once a kernel can read both in place.

    Refuses (``ValueError``) a ``trans`` that is not a C-contiguous float64
    L x L array with L >= 1 and a ``bonus`` that is neither None nor a
    C-contiguous float64 array of length L.
    """
    n = len(trans)
    if not (n >= 1 and trans.dtype == np.float64 and trans.shape == (n, n)
            and trans.flags.c_contiguous):
        raise ValueError("the kernels need C-contiguous float64 L x L transitions, L >= 1")
    if bonus is None:
        return n, trans.ctypes.data, None
    if not (bonus.dtype == np.float64 and bonus.shape == (n,) and bonus.flags.c_contiguous):
        raise ValueError("the kernels need a C-contiguous float64 bonus of length L")
    return n, trans.ctypes.data, bonus.ctypes.data


def _bind(lib) -> Kernels:
    table_fn = lib.dagdecode_table
    table_fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_double,
                         ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p)
    table_fn.restype = ctypes.c_long
    decode_fn = lib.dagdecode_decode
    decode_fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_double,
                          ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)
    decode_fn.restype = ctypes.c_long
    read_fn = lib.dagdecode_read
    read_fn.argtypes = (ctypes.c_char_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_long,
                        ctypes.c_void_p)
    read_fn.restype = ctypes.c_long
    commas_fn = lib.dagdecode_commas
    commas_fn.argtypes = (ctypes.c_char_p, ctypes.c_long)
    commas_fn.restype = ctypes.c_long

    def table(trans: np.ndarray, bonus: np.ndarray | None, start: float):
        """``decoders._numpy_table(trans, bonus, start)``, in one compiled call.

        Returns the same ``(alpha, psi, overflow)``; where ``overflow`` is not
        0, ``alpha`` and ``psi`` are left part-filled. Reads the arrays in
        place, so refuses (``ValueError``) those that ``_arrays`` refuses.
        """
        n, trans_at, bonus_at = _arrays(trans, bonus)
        # Zeroed ctypes buffers, viewed by numpy after the call: no ``ndarray.ctypes`` read.
        dtype = np.min_scalar_type(n)
        alpha, psi = (ctypes.c_double * n)(), (ctypes.c_ubyte * (n * n * dtype.itemsize))()
        overflow = table_fn(trans_at, bonus_at, n, start, alpha, psi, dtype.itemsize,
                            (ctypes.c_double * (3 * n))())
        return np.frombuffer(alpha), np.frombuffer(psi, dtype).reshape(n, n), overflow

    def decode(trans: np.ndarray, bonus: np.ndarray | None, start: float, beta: float):
        """``decoders._numpy_decode(trans, bonus, start, beta)``, in one compiled call.

        Returns the same ``(path, reason, passes)``, ``reason`` as an int.
        Reads the arrays in place, so refuses (``ValueError``) those that
        ``_arrays`` refuses.
        """
        n, trans_at, bonus_at = _arrays(trans, bonus)
        path = (ctypes.c_long * (2 * n))()
        passes = ctypes.c_long()
        count = decode_fn(trans_at, bonus_at, n, start, beta == 1, (ctypes.c_double * n)(), path,
                          ctypes.byref(passes))
        if count < 0:
            return None, -count, passes.value
        return tuple(path[n - count : n]), None, passes.value

    def read(data: bytes):
        """The tables of the JSON instance document ``data``, or None where it is not read.

        Returns ``[(start, end, table)]`` for ``log_transitions`` and then
        ``log_emissions``: each value's byte span in ``data`` and its float64
        table, ``null`` read as ``-inf``. Both tables are views of one buffer
        of two more cells than ``data`` has commas: a table of c cells holds
        c - 1 commas, so the buffer is never too small, and it exceeds the
        tables by the commas outside them. The commas are counted in C:
        ``bytes.count`` took about 2 ms longer on a 5.4 MB file. None is no
        verdict on the document: see ``dagdecode_read`` for what it does
        not read.
        """
        cells = np.empty(commas_fn(data, len(data)) + 2)
        info = (ctypes.c_long * 10)()
        if not read_fn(data, len(data), cells.ctypes.data, len(cells), info):
            return None
        spans = [info[k : k + 5] for k in (0, 5)]
        return [(start, end, cells[at : at + rows * width].reshape(rows, width))
                for start, end, at, rows, width in spans]

    return Kernels(table, decode, read)
