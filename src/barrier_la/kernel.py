"""The compiled kernel library: the Monte Carlo step loop, the RK4 loop and
the CSV row formatter.

``harness`` drives ``advance``, ``dynamics`` drives ``rk4`` and ``cli``
writes every CSV through ``format_rows``.  ``advance`` is the one stepping
entry point: its comment in ``_KERNEL_C`` states the stream, lane and
thread rules, and ``lockstep``'s the table layout and the same-bytes
contract.  The library is built from ``_KERNEL_C`` by the system's C
compiler on first use (gcc or clang: the generator and the formatter need
``unsigned __int128``) and cached; without one, _load_kernel raises
OSError, so every command that simulates or writes CSV needs the compiler.
On x86-64 the AVX-512 functions are compiled for avx512f and avx512dq by a
function attribute, so the compile command and the cache key do not change.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from pathlib import Path

import numpy as np

# Values per kernel call, read only by _chunks: a call takes items (records,
# RK4 steps or CSV rows) of width values each, at most
# max(1, _BLOCK_BUDGET // width) of them, so at most max(_BLOCK_BUDGET,
# width) values, and rk4 its start row besides.  Block boundaries never
# affect results: lane state, stream and RK4 state carry over.
_BLOCK_BUDGET = 1 << 18
# The bytes format_rows needs per value: at most 24 of "%.17g" and one of
# the separator.
_CSV_VALUE_BYTES = 25


def _chunks(n: int, width: int):
    """Cut n items of width values each into kernel calls: yield the ranges
    [i, j) of [0, n) in order, of max(1, _BLOCK_BUDGET // width) items but the last."""
    k = max(1, _BLOCK_BUDGET // width)
    for i in range(0, n, k):
        yield i, min(i + k, n)


_KERNEL_C = r"""
/* Nothing in this file calls an exported function (advance, rk4,
   format_rows): such a call binds by name when the library loads, and may
   reach another library's symbol, as glibc exports a legacy advance(3)
   from <regexp.h>.  advance's threads run static functions alone. */
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
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

/* Set g[0..4) to the state and increment, each as low then high 64-bit
   word, of np.random.PCG64(e) once seeded: numpy's SeedSequence with pool
   size 4 on the entropy e (two 32-bit words; numpy omits a zero high word,
   which hashes as the zero padding does), generate_state(4, uint64), then
   pcg_setseq_128_srandom_r with words 0, 1 as the state's (high, low) and
   words 2, 3 as the sequence's. */
static void seed_stream(uint64_t e, uint64_t *g)
{
    uint64_t w[4] = {0};
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
    g[0] = (uint64_t)s;
    g[1] = (uint64_t)(s >> 64);
    g[2] = (uint64_t)inc;
    g[3] = (uint64_t)(inc >> 64);
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

/* One advance call, as advance's arguments: next is the first stream no
   thread has taken. */
typedef struct {
    int64_t streams, lanes, t, k, next;
    uint64_t seed, *st;
    double *pq, *out;
    const int64_t *rec;
    const double *tabs;
    int ptype, avx512;
} work;

#if defined(__x86_64__)
#include <immintrin.h>

#define AVX512 __attribute__((target("avx512f,avx512dq")))

/* A 128-bit value in each 64-bit lane, as its low and high words. */
typedef struct {
    __m512i lo, hi;
} u128x8;

/* a * m + c in each lane, mod 2^128, for one m in every lane.  The
   product's low word, and the high word of the product of the two low
   words, come from four 32 x 32-bit partial products; the cross terms, low
   word times m's high word and high word times m's low word, from mullo;
   adding c's low word carries into the high word where the sum wraps.  All
   of it is exact integer arithmetic: with m = MULT and c the increment it
   is next_double's LCG step. */
static inline AVX512 u128x8 affine8(u128x8 a, u128 m, u128x8 c)
{
    const __m512i m0 = _mm512_set1_epi64((int64_t)(uint64_t)m);
    const __m512i m1 = _mm512_set1_epi64((int64_t)((uint64_t)m >> 32));
    const __m512i mh = _mm512_set1_epi64((int64_t)(uint64_t)(m >> 64));
    const __m512i low32 = _mm512_set1_epi64(0xffffffff);
    __m512i a1 = _mm512_srli_epi64(a.lo, 32);
    __m512i p00 = _mm512_mul_epu32(a.lo, m0), p01 = _mm512_mul_epu32(a.lo, m1);
    __m512i p10 = _mm512_mul_epu32(a1, m0), p11 = _mm512_mul_epu32(a1, m1);
    __m512i mid = _mm512_add_epi64(p10, _mm512_srli_epi64(p00, 32));
    __m512i mid2 = _mm512_add_epi64(p01, _mm512_and_si512(mid, low32));
    __m512i cross = _mm512_add_epi64(_mm512_mullo_epi64(a.lo, mh), _mm512_mullo_epi64(a.hi, m0));
    __m512i hi = _mm512_add_epi64(_mm512_add_epi64(p11, _mm512_srli_epi64(mid, 32)),
                                  _mm512_srli_epi64(mid2, 32));
    hi = _mm512_add_epi64(_mm512_add_epi64(hi, cross), c.hi);
    __m512i lo = _mm512_or_si512(_mm512_slli_epi64(mid2, 32), _mm512_and_si512(p00, low32));
    lo = _mm512_add_epi64(lo, c.lo);
    hi = _mm512_mask_add_epi64(hi, _mm512_cmplt_epu64_mask(lo, c.lo), hi, _mm512_set1_epi64(1));
    return (u128x8){lo, hi};
}

/* next_double's output of the state s in each lane: x >> 11 < 2^53
   converts to a double exactly, so each lane gives next_double's bits. */
static inline AVX512 __m512d out8(u128x8 s)
{
    __m512i x = _mm512_rorv_epi64(_mm512_xor_si512(s.hi, s.lo), _mm512_srli_epi64(s.hi, 58));
    return _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(x, 11)),
                         _mm512_set1_pd(1.0 / 9007199254740992.0));
}

/* lockstep's steps for the eight one-lane streams from r of w, stream
   r + i in vector lane i,
   comparisons and table reads as masks and lane permutes.  A step's draws
   do not wait on each other: the LCG's j-th state from s is M^j s + c_j,
   with c_j = inc (1 + M + ... + M^(j-1)), so u_j is
   out8(affine8(s, M^j, c_j)) for j = 1..4 (1..2 under S), and the last of
   them is the next s. */
static AVX512 void advance8(const work *w, int64_t r)
{
    const int64_t runs = w->streams, k = w->k, *rec = w->rec; /* one lane a stream */
    const double *tab = w->tabs;
    double *pq = w->pq, *out = w->out;
    const int ptype = w->ptype;
    const __m512i words = _mm512_setr_epi64(0, 4, 8, 12, 16, 20, 24, 28);
    const __m512i one = _mm512_set1_epi64(1), two = _mm512_set1_epi64(2);
    const __m512d fa = _mm512_broadcast_f64x4(_mm256_loadu_pd(tab));
    const __m512d fb = _mm512_broadcast_f64x4(_mm256_loadu_pd(tab + 4));
    const __m512d ta = _mm512_broadcast_f64x4(_mm256_loadu_pd(tab + 8));
    const __m512d tb = _mm512_broadcast_f64x4(_mm256_loadu_pd(tab + 12));
    const __m512d ga0 = _mm512_set1_pd(tab[16]), ga1 = _mm512_set1_pd(tab[17]);
    const __m512d gb0 = _mm512_set1_pd(tab[18]), gb1 = _mm512_set1_pd(tab[19]);
    const u128x8 zero = {_mm512_setzero_si512(), _mm512_setzero_si512()};
    u128 mj[4] = {MULT}, sj[4] = {1}; /* M^j and 1 + M + ... + M^(j-1) */
    for (int j = 1; j < 4; j++) {
        mj[j] = mj[j - 1] * MULT;
        sj[j] = sj[j - 1] * MULT + 1;
    }
    long long *g = (long long *)(w->st + 4 * r);
    u128x8 s = {_mm512_i64gather_epi64(words, g, 8), _mm512_i64gather_epi64(words, g + 1, 8)};
    u128x8 inc = {_mm512_i64gather_epi64(words, g + 2, 8),
                  _mm512_i64gather_epi64(words, g + 3, 8)};
    u128x8 c[4];
    for (int j = 0; j < 4; j++)
        c[j] = affine8(inc, sj[j], zero);
    __m512d p = _mm512_loadu_pd(pq + r), q = _mm512_loadu_pd(pq + runs + r);
    int64_t n = w->t;
    for (int64_t j = 0; j < k; j++) {
        for (; n < rec[j]; n++) {
            u128x8 s1 = affine8(s, mj[0], c[0]), s2 = affine8(s, mj[1], c[1]);
            __mmask8 a = _mm512_cmp_pd_mask(out8(s1), p, _CMP_GE_OQ);
            __mmask8 b = _mm512_cmp_pd_mask(out8(s2), q, _CMP_GE_OQ);
            __m512i x = _mm512_maskz_mov_epi64(a, two);
            x = _mm512_mask_add_epi64(x, b, x, one);
            __m512d f = _mm512_permutexvar_pd(x, fa), h = _mm512_permutexvar_pd(x, fb);
            if (ptype) {
                u128x8 s3 = affine8(s, mj[2], c[2]), s4 = affine8(s, mj[3], c[3]);
                f = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(out8(s3), f, _CMP_LT_OQ), ga0, ga1);
                h = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(out8(s4), h, _CMP_LT_OQ), gb0, gb1);
                s = s4;
            } else {
                s = s2;
            }
            __m512d dp = _mm512_sub_pd(_mm512_permutexvar_pd(x, ta), p);
            __m512d dq = _mm512_sub_pd(_mm512_permutexvar_pd(x, tb), q);
            p = _mm512_add_pd(p, _mm512_mul_pd(f, dp));
            q = _mm512_add_pd(q, _mm512_mul_pd(h, dq));
        }
        _mm512_storeu_pd(out + 2 * j * runs + r, p);
        _mm512_storeu_pd(out + (2 * j + 1) * runs + r, q);
    }
    _mm512_i64scatter_epi64(g, words, s.lo, 8);
    _mm512_i64scatter_epi64(g + 1, words, s.hi, 8);
    _mm512_storeu_pd(pq + r, p);
    _mm512_storeu_pd(pq + runs + r, q);
}
#endif

/* The one scalar step loop: n lanes in lockstep on the PCG64 stream at g.
   Lane c steps p[c], q[c] on the (5, 4) table at tabs + 20c, harness._table's
   rows feedback A, feedback B, target A and target B at the joint action
   x = 2*(u0 >= p) + (u1 >= q), and (0, theta_a, 0, theta_b) for the P-model
   reward, read at u < entry: no branch to mispredict.  Its state after rec[j]
   steps goes to out[2j*ow + c], out[(2j+1)*ow + c].  Each step draws u0, u1
   (u2, u3 under P) once and gives every lane the same operations in the same
   order, so a lane's bytes are those it gets alone, and advance8's lanes'. */
static inline __attribute__((always_inline)) void
lockstep(int64_t n, uint64_t *g, double *p, double *q, int64_t t, const int64_t *rec,
         int64_t k, int ptype, const double *tabs, double *out, int64_t ow)
{
    u128 s = (u128)g[1] << 64 | g[0], inc = (u128)g[3] << 64 | g[2];
    for (int64_t j = 0; j < k; j++) {
        for (; t < rec[j]; t++) {
            double u0 = next_double(&s, inc), u1 = next_double(&s, inc);
            double u2 = ptype ? next_double(&s, inc) : 0.0, u3 = ptype ? next_double(&s, inc) : 0.0;
            for (int64_t c = 0; c < n; c++) {
                const double *fa = tabs + 20 * c, *fb = fa + 4, *ta = fa + 8, *tb = fa + 12;
                const double *ga = fa + 16, *gb = fa + 18;
                int x = (u0 >= p[c] ? 2 : 0) + (u1 >= q[c]);
                double f = fa[x], h = fb[x];
                if (ptype) {
                    f = ga[u2 < f];
                    h = gb[u3 < h];
                }
                p[c] = p[c] + f * (ta[x] - p[c]);
                q[c] = q[c] + h * (tb[x] - q[c]);
            }
        }
        for (int64_t c = 0; c < n; c++) {
            out[2 * j * ow + c] = p[c];
            out[(2 * j + 1) * ow + c] = q[c];
        }
    }
    g[0] = (uint64_t)s;
    g[1] = (uint64_t)(s >> 64);
}

/* Seed and step the next unit of w until none is left, by advance's rules.
   A one-lane stream's p, q go through locals, which stay in registers. */
static void *take_units(void *arg)
{
    work *w = arg;
    const int64_t n = w->lanes, per = n == 1 ? 8 : 1, width = w->streams * n;
    for (int64_t s; (s = __atomic_fetch_add(&w->next, per, __ATOMIC_RELAXED)) < w->streams;) {
        int64_t s1 = s + per < w->streams ? s + per : w->streams;
        if (!w->t)
            for (int64_t r = s; r < s1; r++)
                seed_stream(w->seed ^ (uint64_t)r, w->st + 4 * r);
#if defined(__x86_64__)
        if (w->avx512 && s1 - s == 8) {
            advance8(w, s);
            continue;
        }
#endif
        for (; s < s1; s++) {
            uint64_t *g = w->st + 4 * s;
            double *p = w->pq + n * s, *q = p + width, *out = w->out + n * s;
            if (n > 1) {
                lockstep(n, g, p, q, w->t, w->rec, w->k, w->ptype, w->tabs, out, width);
                continue;
            }
            double p1 = *p, q1 = *q;
            lockstep(1, g, &p1, &q1, w->t, w->rec, w->k, w->ptype, w->tabs, out, width);
            *p = p1;
            *q = q1;
        }
    }
    return NULL;
}

/* The one stepping entry point.  It steps streams PCG64 streams of lanes
   lanes each, streams * lanes = width lanes in all.
   - Lanes.  Stream s steps the lanes [s * lanes, (s + 1) * lanes), lane i
     from p = pq[i], q = pq[width + i], on lockstep's rules: lane c of every
     stream reads the (5, 4) table at tabs + 20c.  Its state after rec[j]
     steps, for j < k, goes to out[2j * width + i] and out[(2j + 1) * width
     + i], and pq holds its last state on return.
   - Streams.  st holds each stream's (state, inc) as four 64-bit words.  A
     call from step t = 0 first sets stream s to np.random.PCG64(seed ^ s)
     as seeded (seed_stream); a call from t > 0 carries on from st.  No
     draw comes before the seeding, so seeding twice at step 0 gives the
     same state.
   - Threads.  This thread and min(threads, units) - 1 POSIX threads take
     units (take_units) from one atomic counter until none is left: eight
     one-lane streams, or one stream of several lanes.  All of them are
     joined before this returns, and a thread that cannot be started leaves
     its units to the others.  A unit touches only its own streams and
     lanes, so the bytes do not depend on the thread count or on which
     thread steps a unit.
   - Loops.  A unit of eight one-lane streams goes through the AVX-512
     lanes of advance8 where the CPU has avx512f and avx512dq, asked at run
     time on every call; every other stream through lockstep, with the same
     bytes.  There is no option to choose between them. */
void advance(int64_t streams, int64_t lanes, uint64_t seed, uint64_t *st, double *pq, int64_t t,
             const int64_t *rec, int64_t k, int ptype, const double *tabs, double *out,
             int64_t threads)
{
    work w = {streams, lanes, t, k, 0, seed, st, pq, out, rec, tabs, ptype, 0};
#if defined(__x86_64__)
    __builtin_cpu_init();
    w.avx512 = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
#endif
    int64_t units = lanes == 1 ? (streams + 7) / 8 : streams, n = 0;
    if (threads > units)
        threads = units;
    pthread_t *workers = threads > 1 ? malloc((size_t)(threads - 1) * sizeof *workers) : NULL;
    while (workers && n < threads - 1 && !pthread_create(workers + n, NULL, take_units, &w))
        n++;
    take_units(&w);
    while (n)
        pthread_join(workers[--n], NULL);
    free(workers);
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
_CC = ("cc", "-O2", "-fPIC", "-shared", "-pthread", "-ffp-contract=off")


@functools.cache
def _load_kernel():
    """The kernel library (advance, rk4 and format_rows).  Cached as $XDG_CACHE_HOME/barrier_la/kernel-<sha256 of
    compile command and source>.so (~/.cache when the variable is unset,
    empty or relative, as the XDG Base Directory spec asks); later
    processes only load it.  Raises OSError naming the compile command, the
    cache path and the cause when it can be neither built nor loaded.
    Imports are local so commands that load no kernel skip them."""
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
    kernel.advance.argtypes = [i64, i64, ctypes.c_uint64, u8, f8, i64, i8, i64, i32, f8, f8, i64]
    kernel.rk4.argtypes = [f8, i64, f8, i8]
    kernel.format_rows.argtypes = [i64, i64, f8, b1, i64]
    kernel.advance.restype = None
    kernel.rk4.restype = i32
    kernel.format_rows.restype = i64
    return kernel
