"""The compiled kernel library: the Monte Carlo step loop, the RK4 loop and
the CSV row formatter.

``harness`` drives ``seed_runs`` and ``advance``, ``dynamics`` drives
``rk4`` and ``cli`` writes every CSV through ``format_rows``.  The library
is built from ``_KERNEL_C`` by the system's C compiler on first use (gcc or
clang: the generator and the formatter need ``unsigned __int128``) and
cached; without one, _load_kernel raises OSError, so every command that
simulates or writes CSV needs the compiler.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from pathlib import Path

import numpy as np

# Values per kernel call: advance writes records x 2 x runs, at most
# max(_BLOCK_BUDGET, 2 * runs) as a block holds one record or more;
# format_rows reads rows x ncols, at most max(_BLOCK_BUDGET, ncols) likewise;
# rk4 writes at most _BLOCK_BUDGET.  Block boundaries never affect results:
# run state, stream and RK4 state carry over.
_BLOCK_BUDGET = 1 << 18
# The bytes format_rows needs per value: at most 24 of "%.17g" and one of
# the separator.
_CSV_VALUE_BYTES = 25

_KERNEL_C = r"""
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

typedef unsigned __int128 u128;
static const u128 MULT = (u128)2549297995355413924u << 64 | 4865540595714422341u;

static uint32_t hashmix(uint32_t v, uint32_t *h)
{
    v ^= *h;
    *h *= 0x931e8875u;
    v *= *h;
    return v ^ v >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t v = 0xca01f9ddu * x - 0x4973f715u * y;
    return v ^ v >> 16;
}

/* Fill st[4r..4r+4) with the state and increment, each as low then high
   64-bit word, of np.random.PCG64(seed ^ r) once seeded: numpy's
   SeedSequence with pool size 4 on the entropy seed ^ r (two 32-bit words;
   numpy omits a zero high word, which hashes as the zero padding does),
   generate_state(4, uint64), then pcg_setseq_128_srandom_r with words 0, 1
   as the state's (high, low) and words 2, 3 as the sequence's. */
void seed_runs(int64_t runs, uint64_t seed, uint64_t *st)
{
    for (int64_t r = 0; r < runs; r++) {
        uint64_t e = seed ^ (uint64_t)r, w[4] = {0};
        uint32_t h = 0x43b0d7e5u, pool[4] = {(uint32_t)e, (uint32_t)(e >> 32), 0, 0};
        for (int i = 0; i < 4; i++)
            pool[i] = hashmix(pool[i], &h);
        for (int i = 0; i < 4; i++)
            for (int j = 0; j < 4; j++)
                if (i != j)
                    pool[j] = mix(pool[j], hashmix(pool[i], &h));
        h = 0x8b51f9ddu;
        for (int i = 0; i < 8; i++) {
            uint32_t v = pool[i % 4] ^ h;
            h *= 0x58f38dedu;
            v *= h;
            w[i / 2] |= (uint64_t)(v ^ v >> 16) << 32 * (i % 2);
        }
        u128 inc = ((u128)w[2] << 64 | w[3]) << 1 | 1;
        u128 s = (inc + ((u128)w[0] << 64 | w[1])) * MULT + inc;
        st[4 * r] = (uint64_t)s;
        st[4 * r + 1] = (uint64_t)(s >> 64);
        st[4 * r + 2] = (uint64_t)inc;
        st[4 * r + 3] = (uint64_t)(inc >> 64);
    }
}

/* numpy's PCG64 next_double: one LCG step, the XSL-RR output of the new
   state, its top 53 bits scaled into [0, 1). */
static inline double next_double(u128 *s, u128 inc)
{
    *s = *s * MULT + inc;
    uint64_t x = (uint64_t)(*s >> 64) ^ (uint64_t)*s;
    unsigned rot = (unsigned)(*s >> 122);
    x = x >> rot | x << (-rot & 63);
    return (x >> 11) * (1.0 / 9007199254740992.0);
}

/* Advance each run r in [r0, r1) from step t through the steps rec[0..k),
   storing its state after rec[j] steps at out[j][0][r] and out[j][1][r].
   st holds the runs' generators as seed_runs lays them out, pq the (2, runs)
   states; tab the (5, 4) table harness._simulate builds: rows feedback A,
   feedback B, target A and target B, each indexed by the joint action
   x = 2*(u0 >= p) + (u1 >= q), then (0, theta_a, 0, theta_b).  A call reads
   and writes only the slots of its own runs, so calls on disjoint ranges
   may run at the same time. */
void advance(int64_t runs, uint64_t *st, double *pq, int64_t t, const int64_t *rec,
             int64_t k, int ptype, const double *tab, double *out, int64_t r0, int64_t r1)
{
    const double *fa = tab, *fb = tab + 4, *ta = tab + 8, *tb = tab + 12;
    /* The P-model reward, 0 or theta, is read from {0, theta} at index
       u < entry.  A ternary compiles to a jump, and near a mixed
       equilibrium, where the draw is a coin flip, that jump mispredicts on
       most steps; the table read has no branch. */
    const double *ga = tab + 16, *gb = tab + 18;
    for (int64_t r = r0; r < r1; r++) {
        uint64_t *g = st + 4 * r;
        u128 s = (u128)g[1] << 64 | g[0], inc = (u128)g[3] << 64 | g[2];
        double p = pq[r], q = pq[runs + r];
        int64_t n = t;
        for (int64_t j = 0; j < k; j++) {
            for (; n < rec[j]; n++) {
                double u0 = next_double(&s, inc);
                double u1 = next_double(&s, inc);
                int x = (u0 >= p ? 2 : 0) + (u1 >= q);
                double f = fa[x], h = fb[x];
                if (ptype) {
                    double u2 = next_double(&s, inc);
                    double u3 = next_double(&s, inc);
                    f = ga[u2 < f];
                    h = gb[u3 < h];
                }
                p = p + f * (ta[x] - p);
                q = q + h * (tb[x] - q);
            }
            out[2 * j * runs + r] = p;
            out[(2 * j + 1) * runs + r] = q;
        }
        g[0] = (uint64_t)s;
        g[1] = (uint64_t)(s >> 64);
        pq[r] = p;
        pq[runs + r] = q;
    }
}

/* The drift W(p, q) into w[0], w[1], with the operations of
   dynamics._field in their order.  tab as at rk4. */
static void field(const double *tab, double p, double q, double *w)
{
    double p_max = tab[8], p_min = 1.0 - p_max;
    double d1a = q * tab[0] + (1.0 - q) * tab[1];
    double d2a = q * tab[2] + (1.0 - q) * tab[3];
    double d1b = p * tab[4] + (1.0 - p) * tab[6];
    double d2b = p * tab[5] + (1.0 - p) * tab[7];
    w[0] = p * (p_max - p) * d1a + (1.0 - p) * (p_min - p) * d2a;
    w[1] = q * (p_max - q) * d1b + (1.0 - q) * (p_min - q) * d2b;
}

/* An RK stage: the drift at (p, q) into w and 1, or (p, q) into bad and 0
   when the point lies outside the box [tab[11], tab[12]]^2. */
static int stage(const double *tab, double p, double q, double *w, double *bad)
{
    if (!(tab[11] <= p && p <= tab[12] && tab[11] <= q && q <= tab[12])) {
        bad[0] = p;
        bad[1] = q;
        return 0;
    }
    field(tab, p, q, w);
    return 1;
}

/* Take up to n classical RK4 steps of dX/dt = W(X) from x[0], x[1],
   storing the state after step j at x[2j], x[2j+1]; x holds n + 1 rows.
   tab is the table dynamics.integrate builds: R's entries r11, r12, r21,
   r22, then C's, then p_max, step, the drift norm below which the path
   stops, the stage box's low and high end, and the slack of the [0, 1]^2
   check on states.  Stores the steps accepted at *k and returns why it
   stopped: 0 after n steps, 1 when the drift at x[2k], x[2k+1] is below the
   stop norm, 2 when a stage of step k + 1 left the box and 3 when the
   state after it left [0, 1]^2; for 2 and 3 that point is at x[2(k + 1)],
   x[2(k + 1) + 1]. */
int rk4(const double *tab, int64_t n, double *x, int64_t *k)
{
    double step = tab[9], h2 = 0.5 * step, h6 = step / 6.0;
    double lo = -tab[13], hi = 1.0 + tab[13]; /* [0, 1] with the slack */
    double p = x[0], q = x[1], a[2], b[2], c[2], d[2];
    for (int64_t j = 1; j <= n; j++) {
        double *bad = x + 2 * j;
        *k = j - 1;
        field(tab, p, q, a);
        if (hypot(a[0], a[1]) < tab[10])
            return 1;
        if (!stage(tab, p + h2 * a[0], q + h2 * a[1], b, bad)
            || !stage(tab, p + h2 * b[0], q + h2 * b[1], c, bad)
            || !stage(tab, p + step * c[0], q + step * c[1], d, bad))
            return 2;
        p += h6 * (((a[0] + 2.0 * b[0]) + 2.0 * c[0]) + d[0]);
        q += h6 * (((a[1] + 2.0 * b[1]) + 2.0 * c[1]) + d[1]);
        bad[0] = p;
        bad[1] = q;
        if (!(lo <= p && p <= hi && lo <= q && q <= hi))
            return 3;
    }
    *k = n;
    return 0;
}

#define P10(k) (u128)1e##k /* exact: 10^k is a double for k <= 22 */
static const u128 POW10[22] = {
    P10(0), P10(1), P10(2), P10(3), P10(4), P10(5), P10(6), P10(7), P10(8), P10(9), P10(10),
    P10(11), P10(12), P10(13), P10(14), P10(15), P10(16), P10(17), P10(18), P10(19), P10(20),
    P10(21)};
#define E16 10000000000000000u
#define E17 100000000000000000u

/* Write x as Python's "%.17g" % x would at b, at most 24 bytes plus the
   NUL of snprintf; returns the end.  Two paths.  For |x| in [1e-4, 2^53),
   where X = floor(log10 |x|) is in [-4, 15] and so "%.17g" writes no
   exponent, the digits are exact integer arithmetic: |x| = m / 2^s,
   N = m * 10^k with k = 16 - X, so that q = N >> s has 17 digits, then q is
   rounded half to even on the exact remainder.  All else (zeros,
   subnormals, infinities, NaN and every value with an exponent) goes to
   snprintf, NaN as its fabs: a clear sign bit prints "nan", as Python
   prints every NaN. */
static char *put_double(char *b, double x)
{
    double a = fabs(x);
    if (!(a >= 1e-4 && a < 9007199254740992.0))
        return b + snprintf(b, 25, "%.17g", x == x ? x : a);
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t m = (bits & ((1ull << 52) - 1)) | 1ull << 52; /* |x| = m / 2^s, s in [0, 66] */
    int s = 1075 - (int)(bits >> 52 & 0x7ff);
    int X = (int)floor((52 - s) * 0.30102999566398120); /* X or X - 1 */
    u128 N;
    uint64_t q;
    for (;;) {
        N = m * POW10[16 - X]; /* 16 - X in [1, 21] */
        q = (uint64_t)(N >> s);
        if (q >= E17)
            X++;
        else if (q < E16)
            X--;
        else
            break;
    }
    /* Rounding never carries q to 10^17: that needs a double within 5e-18
       (relative) below a power of ten, and below each of 10^-4 .. 10^16 the
       nearest lies at least 4.5e-17 away. */
    if (s) {
        u128 r = N & (((u128)1 << s) - 1), half = (u128)1 << (s - 1);
        q += r > half || (r == half && (q & 1));
    }
    char d[17];
    for (int i = 16; i >= 0; i--, q /= 10)
        d[i] = (char)('0' + q % 10);
    int n = 17; /* digits up to the last nonzero one */
    while (d[n - 1] == '0')
        n--;
    if (x < 0)
        *b++ = '-';
    if (X < 0) { /* 0.0ddd, as X >= -4 here */
        memcpy(b, "0.000", 1 - X);
        b += 1 - X;
        memcpy(b, d, n);
        return b + n;
    }
    memcpy(b, d, X + 1); /* ddd.ddd, as X <= 15 here */
    b += X + 1;
    if (n > X + 1) {
        *b++ = '.';
        memcpy(b, d + X + 1, n - X - 1);
        b += n - X - 1;
    }
    return b;
}

/* Format the n rows of the C-contiguous (ncols, n) float64 array cols as
   CSV into buf: column j is the n values at cols[j * n], each written by
   put_double, separated by ',' with each row ended by '\n'.  Returns the
   bytes written, or -1, writing nothing, when cap holds fewer than 25 bytes
   per value. */
int64_t format_rows(int64_t n, int64_t ncols, const double *cols, char *buf, int64_t cap)
{
    if (cap < 25 * n * ncols)
        return -1;
    char *b = buf;
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < ncols; j++) {
            b = put_double(b, cols[j * n + i]);
            *b++ = j + 1 < ncols ? ',' : '\n';
        }
    return b - buf;
}
"""
_CC = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off")


@functools.cache
def _load_kernel():
    """The kernel library (seed_runs, advance, rk4 and format_rows).  Cached as
    $XDG_CACHE_HOME/barrier_la/kernel-<sha256 of compile command and
    source>.so (~/.cache when the variable is unset, empty or relative, as
    the XDG Base Directory spec asks); later processes only load it.  Raises
    OSError naming the compile command, the cache path and the cause when
    it can be neither built nor loaded.  Imports are local so commands
    that load no kernel skip them."""
    import hashlib
    # -lm after the source: a linker that defaults to --as-needed drops a
    # library named before the code that needs it (hypot)
    cmd = [*_CC, "-x", "c", "-", "-lm", "-o"]
    digest = hashlib.sha256((" ".join(cmd) + _KERNEL_C).encode()).hexdigest()
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    cache = Path(xdg if os.path.isabs(xdg) else os.path.expanduser("~/.cache"), "barrier_la")
    so = cache / f"kernel-{digest}.so"
    try:
        if not so.exists():
            import subprocess
            cache.mkdir(parents=True, exist_ok=True)
            tmp = so.with_name(f"{so.name}.{os.getpid()}.{threading.get_ident()}.tmp")
            try:
                proc = subprocess.run(
                    [*cmd, str(tmp)], input=_KERNEL_C, capture_output=True, errors="replace"
                )
                if proc.returncode:
                    raise OSError(f"cc exited {proc.returncode}: {proc.stderr.strip()}")
                os.replace(tmp, so)
            finally:
                tmp.unlink(missing_ok=True)
        kernel = ctypes.CDLL(str(so))
    except OSError as exc:
        cc = " ".join(_CC)
        raise OSError(f"cannot build or load the C kernel with {cc} into {so}: {exc}") from exc
    i64, i32 = ctypes.c_int64, ctypes.c_int
    f8, i8, u8, b1 = (
        np.ctypeslib.ndpointer(d, flags="C_CONTIGUOUS")
        for d in (np.float64, np.int64, np.uint64, np.uint8)
    )
    kernel.seed_runs.argtypes = [i64, ctypes.c_uint64, u8]
    kernel.advance.argtypes = [i64, u8, f8, i64, i8, i64, i32, f8, f8, i64, i64]
    kernel.rk4.argtypes = [f8, i64, f8, i8]
    kernel.format_rows.argtypes = [i64, i64, f8, b1, i64]
    kernel.seed_runs.restype = kernel.advance.restype = None
    kernel.rk4.restype = i32
    kernel.format_rows.restype = i64
    return kernel
