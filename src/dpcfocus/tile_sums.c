/* The SNR kernel's column sums over one antenna block, the per-class terms
   the statistics and rates read, and the per-antenna polarization angles of
   the fig3 map, loaded by dpcfocus.beamforming.

   A layout's antennas come as rows (geometry.AntennaRows): run r holds
   antennas first_antenna[r] .. first_antenna[r + 1] - 1 at y[r], with x from
   consecutive entries of x_table from first_x[r] on, and z = 0; tile_sums takes
   the k antennas from `first` on. Antenna i sits at pos_i; d_i = rx - pos_i
   is its displacement to the RX, r_i = |d_i| and p_i = d_i / r_i. Its TX
   dipole along axis u (x or y) has the field vector
   e_u,i = s_u,i (u - p_u p_i), with s_u,i = (r0 / r_i) h(p_u^2), h the
   polynomial `coeffs` (lowest degree first), so |e_u,i| is |h_up| g_tx up to
   one constant. The geometry of GROUP antennas at a time, their positions
   from the rows, then p_i and (s_x,i, s_y,i), is built once into stack
   buffers, then read for every receive direction v_j. With
   c = p_i . v_j, the part of v_j across the ray, w = v_j - c p_i, carries
   both factors: e_u,i . v_j = s_u,i w_u and |p_i x v_j| = |w|. So the RX
   pattern is g = |w| h(c^2), and the channel magnitudes are
   a_x = |s_x,i w_x g| and a_y = |s_y,i w_y g|. out[0..2][j] receive the
   sums over the block's k antennas, added in antenna order, of
   sqrt(a_x^2 + a_y^2), a_x and a_y. The directions go J at a time through
   a group's antennas, with w, c^2, h and the three sums held in J-wide
   locals (the register tile) that the compiler keeps in registers; the sums
   go back to `out` once per group. An error in c moves w only along p_i,
   so it enters |w| at second order, and the sine stays accurate next to the
   RX dipole's axial null. A last partial register tile repeats its first
   direction in the spare lanes: they hold a real direction, so they compute
   finite values, which are never stored. Built with -ffp-contract=off, so
   every clone rounds every step alike, and a direction's sums take the same
   bits whatever directions share its register tile. The caller admits no RX
   on z = 0, so every r_i is positive.
   field_angles builds the same geometry and forms only the z components of
   the field vectors, e_u,z = p_z (-(s_u p_u)), and from them each antenna's
   polarization angle.
   The per-class functions below it read or write (m, 3) rows, row-major, of
   the (DPC, dual, switched) gains or SNRs of a placement's m direction
   classes, row j standing for counts[j] samples: the box statistics of the
   dB improvements and the mean rates, bit for bit as the Python of
   tests/oracles.py takes them (a stable sort, numpy's linear quantiles,
   Python's max and min, math.fsum). placement_row forms one placement's
   statistics and rates in one call. */

#include <math.h>
#include <stdint.h>

#define J 16      /* directions summed at a time, in registers */
#define GROUP 64  /* antennas whose geometry is held at a time */

#ifndef CLONES /* -DCLONES= builds the baseline instruction set alone */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define CLONES
#endif
#endif

/* A layout's row table, as geometry.AntennaRows holds it */
struct rows {
    const double *x_table, *y;
    const int64_t *first_x, *first_antenna;
    long count;
};

/* The run that holds antenna a */
static long run_of(const struct rows *t, long a)
{
    long lo = 0, hi = t->count - 1;
    while (lo < hi) {
        long mid = (lo + hi + 1) / 2;
        if (t->first_antenna[mid] <= a)
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

/* Unit displacements p[0..2] and field scales s[0..1] = (s_x, s_y) of antennas
   a .. a + n - 1, of which the first sits in run *run, left at the run of the
   last. Entries past n repeat the last antenna, a real one: their values are
   finite and never read. */
static inline void geometry(const struct rows *t, long *run, long a, const double *rx,
                            double r0, const double *coeffs, long n_coeffs, int n,
                            double p[3][GROUP], double s[2][GROUP])
{
    double x[GROUP], y[GROUP], amp[GROUP];
    for (int i = 0; i < n; i++, a++) {
        while (a >= t->first_antenna[*run + 1])
            ++*run;
        x[i] = t->x_table[t->first_x[*run] + (a - t->first_antenna[*run])];
        y[i] = t->y[*run];
    }
    /* a whole group has no scalar remainder loop, which GCC 12 unrolls seven times */
    for (int i = n; i < GROUP; i++) {
        x[i] = x[n - 1];
        y[i] = y[n - 1];
    }
    for (int i = 0; i < GROUP; i++) {
        double dx = rx[0] - x[i], dy = rx[1] - y[i], dz = rx[2]; /* rx[2] - 0.0, the same bits */
        /* scaled by the largest component, no finite displacement overflows its square */
        double ax = fabs(dx), ay = fabs(dy), az = fabs(dz);
        double big = ax > ay ? ax : ay;
        big = big > az ? big : az;
        double qx = dx / big, qy = dy / big, qz = dz / big;
        double r = big * sqrt(qx * qx + qy * qy + qz * qz);
        p[0][i] = dx / r;
        p[1][i] = dy / r;
        p[2][i] = dz / r;
        amp[i] = r0 / r;
        s[0][i] = s[1][i] = coeffs[n_coeffs - 1];
    }
    /* Horner's rule in the order of channel._series, one degree over the group at a time */
    for (long d = n_coeffs - 2; d >= 0; d--) {
        const double cd = coeffs[d];
        for (int i = 0; i < GROUP; i++) {
            s[0][i] = s[0][i] * (p[0][i] * p[0][i]) + cd;
            s[1][i] = s[1][i] * (p[1][i] * p[1][i]) + cd;
        }
    }
    for (int i = 0; i < GROUP; i++) {
        s[0][i] *= amp[i];
        s[1][i] *= amp[i];
    }
}

CLONES void tile_sums(const double *x_table, const double *y, const int64_t *first_x,
                      const int64_t *first_antenna, long runs, long first, long k,
                      const double *rx, double r0, const double *v, const double *coeffs,
                      long n_coeffs, long m, double *out)
{
    const struct rows t = {x_table, y, first_x, first_antenna, runs};
    double p[3][GROUP], s[2][GROUP];
    const double top = coeffs[n_coeffs - 1];
    long run = run_of(&t, first);
    for (long g0 = 0; g0 < k; g0 += GROUP) {
        int count = k - g0 < GROUP ? (int)(k - g0) : GROUP;
        geometry(&t, &run, first + g0, rx, r0, coeffs, n_coeffs, count, p, s);
        for (long j0 = 0; j0 < m; j0 += J) {
            /* lanes past the last direction repeat the first one, a real direction:
               their values are finite, and are not stored */
            long lane[J];
            double vx[J], vy[J], vz[J], s0[J], s1[J], s2[J];
            for (int j = 0; j < J; j++) {
                lane[j] = j0 + j < m ? j0 + j : j0;
                vx[j] = v[3 * lane[j]];
                vy[j] = v[3 * lane[j] + 1];
                vz[j] = v[3 * lane[j] + 2];
                s0[j] = g0 == 0 ? 0.0 : out[lane[j]];
                s1[j] = g0 == 0 ? 0.0 : out[m + lane[j]];
                s2[j] = g0 == 0 ? 0.0 : out[2 * m + lane[j]];
            }
            for (int i = 0; i < count; i++) {
                const double px = p[0][i], py = p[1][i], pz = p[2][i];
                const double sx = s[0][i], sy = s[1][i];
                double wx[J], wy[J], wz[J], x[J], h[J];
                for (int j = 0; j < J; j++) {
                    /* w = v - c p: e_u . v = s_u w_u, and |w| = |p x v| is the sine.
                       Formed here, beside c: in an earlier loop nest, formed in the
                       sqrt loop from a J-wide c, GCC 12 made the AVX-512 clone mostly
                       scalar, twice as slow (tests/test_kernel_build.py reads it) */
                    double c = px * vx[j] + py * vy[j] + pz * vz[j];
                    x[j] = c * c;
                    wx[j] = vx[j] - c * px;
                    wy[j] = vy[j] - c * py;
                    wz[j] = vz[j] - c * pz;
                    h[j] = top;
                }
                /* Horner's rule, one degree over the register tile at a time */
                for (long d = n_coeffs - 2; d >= 0; d--) {
                    const double cd = coeffs[d];
                    for (int j = 0; j < J; j++)
                        h[j] = h[j] * x[j] + cd;
                }
                for (int j = 0; j < J; j++) {
                    double g = h[j] * sqrt(wx[j] * wx[j] + wy[j] * wy[j] + wz[j] * wz[j]);
                    double ax = fabs(sx * wx[j] * g);
                    double ay = fabs(sy * wy[j] * g);
                    s0[j] += sqrt(ax * ax + ay * ay);
                    s1[j] += ax;
                    s2[j] += ay;
                }
            }
            for (int j = 0; j < J && j0 + j < m; j++) {
                out[j0 + j] = s0[j];
                out[m + j0 + j] = s1[j];
                out[2 * m + j0 + j] = s2[j];
            }
        }
    }
}

/* angle[i]: the polarization axis, in degrees in (-90, 90], of the DPC weights of
   each of the layout's k antennas for an RX dipole along z. a_x and a_y are the z
   components of e_x,i and e_y,i; the axis is atan2(a_x a_y, a_x^2), or 90 degrees
   where a_x == 0 but a_y is not. Not cloned: a fig3 run is bound by its CSV writer,
   and clones would only add compile time. */
void field_angles(const double *x_table, const double *y, const int64_t *first_x,
                  const int64_t *first_antenna, long runs, const double *rx, double r0,
                  const double *coeffs, long n_coeffs, double *angle)
{
    const struct rows t = {x_table, y, first_x, first_antenna, runs};
    const long k = first_antenna[runs];
    double p[3][GROUP], s[2][GROUP];
    long run = 0;
    for (long g0 = 0; g0 < k; g0 += GROUP) {
        int count = k - g0 < GROUP ? (int)(k - g0) : GROUP;
        geometry(&t, &run, g0, rx, r0, coeffs, n_coeffs, count, p, s);
        for (int i = 0; i < count; i++) {
            double ax = p[2][i] * -(s[0][i] * p[0][i]);
            double ay = p[2][i] * -(s[1][i] * p[1][i]);
            double a = ax == 0.0 && ay != 0.0 ? M_PI / 2.0 : atan2(ax * ay, ax * ax);
            a += 0.0; /* -0.0 -> +0.0 */
            angle[g0 + i] = a * (180.0 / M_PI);
        }
    }
}

/* sums[i] += block[i]: one block's column sums added to a placement's */
void add_sums(double *sums, const double *block, long count)
{
    for (long i = 0; i < count; i++)
        sums[i] += block[i];
}

/* The (DPC, dual, switched) gains of m classes, as rows, from a placement's column
   sums (sums[0..2][j] as tile_sums writes them) over n antennas, root = sqrt(n):
   with S_u = sums[u][j] / root, (S_0^2, S_1^2 + S_2^2, max(S_1, S_2)^2) */
void class_gains(const double *sums, long m, double root, double *gains)
{
    for (long j = 0; j < m; j++) {
        double s0 = sums[j] / root, s1 = sums[m + j] / root, s2 = sums[2 * m + j] / root;
        double top = s1 > s2 ? s1 : s2;
        gains[3 * j] = s0 * s0;
        gains[3 * j + 1] = s1 * s1 + s2 * s2;
        gains[3 * j + 2] = top * top;
    }
}

/* A gain times the link factor twice: a budget-free gain to its SNR */
static inline double linked(double gain, double link)
{
    return gain * link * link;
}

/* values[i] * link * link for each of count values, in place: the budget-free gains
   to SNRs */
void apply_link(double *values, long count, double link)
{
    for (long i = 0; i < count; i++)
        values[i] = linked(values[i], link);
}

/* 1 if a value of the m rows is NaN, infinite or negative, else 0 */
static long refused(const double *rows, long m)
{
    for (long i = 0; i < 3 * m; i++)
        if (!(rows[i] >= 0.0 && rows[i] < INFINITY))
            return 1;
    return 0;
}

/* 1 as `refused`, else 2 if a row's DPC value or its value in `column` is 0, else 0 */
static long db_refused(const double *rows, long m, long column)
{
    if (refused(rows, m))
        return 1;
    for (long j = 0; j < m; j++)
        if (rows[3 * j] == 0.0 || rows[3 * j + column] == 0.0)
            return 2;
    return 0;
}

/* 10 log10(a / b) as 10 / ln 10 * log1p((a - b) / b): the scale rounds as Python's
   10.0 / math.log(10.0), and log1p of the relative difference keeps every digit when
   a is close to b, where log10(a / b) keeps only those of the rounded a / b past 1 */
static inline double db(double a, double b)
{
    return 10.0 / M_LN10 * log1p((a - b) / b);
}

/* out[j]: the dB improvement of row j's DPC value over its value in `column`.
   Returns as `db_refused`; out is complete only at 0. */
long db_terms(const double *rows, long m, long column, double *out)
{
    long code = db_refused(rows, m, column);
    if (code)
        return code;
    for (long j = 0; j < m; j++)
        out[j] = db(rows[3 * j], rows[3 * j + column]);
    return 0;
}

/* A row's dB improvement and its count of samples; sorted, `count` becomes the
   number of samples up to and including the row's last */
struct sample {
    double value;
    int64_t count;
};

/* The m samples of s in ascending order, stably, as Python's sorted orders them: a
   tie, -0.0 and 0.0 among them, keeps row order. A bottom-up merge sort between s and
   the m samples of room at t; returns whichever of the two holds the result. */
static struct sample *sorted_samples(struct sample *s, struct sample *t, long m)
{
    for (long width = 1; width < m; width *= 2) {
        for (long lo = 0; lo < m; lo += 2 * width) {
            long mid = lo + width < m ? lo + width : m;
            long hi = lo + 2 * width < m ? lo + 2 * width : m;
            long i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                t[k++] = s[j].value < s[i].value ? s[j++] : s[i++];
            while (i < mid)
                t[k++] = s[i++];
            while (j < hi)
                t[k++] = s[j++];
        }
        struct sample *u = s;
        s = t;
        t = u;
    }
    return s;
}

/* Sample i of the repeated samples: the value of the first sorted row whose last
   sample is past i, as Python's bisect_right over those ends */
static double nth(const struct sample *s, long m, int64_t i)
{
    long lo = 0, hi = m - 1;
    while (lo < hi) {
        long mid = (lo + hi) / 2;
        if (s[mid].count > i)
            hi = mid;
        else
            lo = mid + 1;
    }
    return s[lo].value;
}

/* Quantile q of the size sorted samples, as numpy's default linear method gives it:
   the index is (n - 1) q; from below, fraction t of the way to the next sample, the
   value is a + (b - a) t for t < 0.5 and b - (b - a)(1 - t) otherwise; an index at or
   past the last sample is the last sample both ways, with t = index + 1. Only a
   single sample's index reaches the last, at q < 1, so comparing with last as a
   double, which may round, picks the branch Python's exact comparison picks. */
static double quantile(const struct sample *s, long m, int64_t size, double q)
{
    int64_t last = size - 1;
    double at = (double)last * q, a, b, t;
    if (at >= (double)last) {
        a = b = nth(s, m, last);
        t = at + 1.0;
    } else {
        double i = floor(at);
        a = nth(s, m, (int64_t)i);
        b = nth(s, m, (int64_t)i + 1);
        t = at - i;
    }
    double d = b - a;
    return t < 0.5 ? a + d * t : b - d * (1.0 - t);
}

/* out[0..4] = (median, lower quartile, upper quartile, lower whisker, upper whisker)
   of the dB improvements over `column` of the m rows, row j repeated counts[j] times,
   whose total int64 carries; work holds 2 m samples, 4 m doubles. The whiskers sit
   1.5 IQR beyond the quartiles, clamped to the extremes as Python's max and min clamp,
   each keeping its first argument, the fence, unless the extreme lies strictly beyond
   it. Returns as `db_refused`; out is complete only at 0. */
long box_stats(const double *rows, long m, long column, const int64_t *counts, double *work,
               double *out)
{
    struct sample *s = (struct sample *)work;
    long code = db_refused(rows, m, column);
    if (code)
        return code;
    for (long j = 0; j < m; j++)
        s[j] = (struct sample){db(rows[3 * j], rows[3 * j + column]), counts[j]};
    s = sorted_samples(s, s + m, m);
    for (long j = 1; j < m; j++)
        s[j].count += s[j - 1].count;
    int64_t size = s[m - 1].count;
    double q1 = quantile(s, m, size, 0.25), med = quantile(s, m, size, 0.5);
    double q3 = quantile(s, m, size, 0.75), iqr = q3 - q1;
    double low = q1 - 1.5 * iqr, high = q3 + 1.5 * iqr;
    out[0] = med;
    out[1] = q1;
    out[2] = q3;
    out[3] = s[0].value > low ? s[0].value : low;
    out[4] = s[m - 1].value < high ? s[m - 1].value : high;
    return 0;
}

/* Adds x to the *n partials p, CPython's math.fsum step: the partials stay
   non-overlapping, in increasing magnitude, and sum exactly to the terms added so far.
   Each step adds at most one partial, so the terms' count bounds theirs. For finite
   terms whose sum stays finite. */
static void fsum_add(double *p, long *n, double x)
{
    long i = 0;
    for (long j = 0; j < *n; j++) {
        double y = p[j];
        if (fabs(x) < fabs(y)) {
            double t = x;
            x = y;
            y = t;
        }
        double hi = x + y, lo = y - (hi - x);
        if (lo != 0.0)
            p[i++] = lo;
        x = hi;
    }
    *n = i;
    if (x != 0.0)
        p[(*n)++] = x;
}

/* The correctly rounded sum of the n partials p, as math.fsum ends: from the top,
   until a sum is inexact, then half-even rounding across the partials below */
static double fsum_total(const double *p, long n)
{
    double hi = 0.0, lo = 0.0;
    if (n > 0) {
        hi = p[--n];
        while (n > 0) {
            double x = hi, y = p[--n];
            hi = x + y;
            lo = y - (hi - x);
            if (lo != 0.0)
                break;
        }
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0))) {
            double y = lo * 2.0, x = hi + y;
            if (y == x - hi)
                hi = x;
        }
    }
    return hi;
}

/* out[c] = bandwidth * (sum_j counts[j] log2(1 + snr_j,c) / sum_j counts[j]), the mean
   rate of each column c, with snr = rows[j][c] * link * link; the sums are correctly
   rounded and the counts' total int64 carries. log1p keeps the rate of an SNR below the
   spacing of floats near 1. work holds m partials. Returns 1 if an SNR is NaN,
   infinite or negative, else 0; out is complete only at 0. */
long mean_rates(const double *rows, long m, const int64_t *counts, double link,
                double bandwidth, double *work, double *out)
{
    int64_t total = 0;
    for (long j = 0; j < m; j++)
        total += counts[j];
    for (int c = 0; c < 3; c++) {
        long n = 0;
        for (long j = 0; j < m; j++) {
            double snr = linked(rows[3 * j + c], link);
            if (!(snr >= 0.0 && snr < INFINITY))
                return 1;
            fsum_add(work, &n, (double)counts[j] * (log1p(snr) / M_LN2));
        }
        out[c] = bandwidth * (fsum_total(work, n) / (double)total);
    }
    return 0;
}

/* One placement's row from its budget-free gains: out[0..4] and out[5..9] the box
   statistics over switched and over dual, out[10..12] the mean rates of its SNRs under
   the link factor. work holds 4 m doubles. Returns the first refusal in that order:
   that of the statistics over switched, over dual, then of the rates. */
long placement_row(const double *gains, long m, const int64_t *counts, double link,
                   double bandwidth, double *work, double *out)
{
    long code = box_stats(gains, m, 2, counts, work, out);
    if (!code)
        code = box_stats(gains, m, 1, counts, work, out + 5);
    if (!code)
        code = mean_rates(gains, m, counts, link, bandwidth, work, out + 10);
    return code;
}
