/* The SNR kernel's column sums over one antenna block, and the per-antenna
   field factors of the fig3 polarization map, loaded by dpcfocus.beamforming.

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
   field_z builds the same geometry and forms only the z components of the
   field vectors, e_u,z = p_z (-(s_u p_u)). */

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

/* a[i] and a[k + i]: the z components of e_x,i and e_y,i of antenna i, for
   each of the layout's k antennas. Not cloned: a fig3 run is bound by its
   CSV writer, and clones would only add compile time. */
void field_z(const double *x_table, const double *y, const int64_t *first_x,
             const int64_t *first_antenna, long runs, const double *rx, double r0,
             const double *coeffs, long n_coeffs, double *a)
{
    const struct rows t = {x_table, y, first_x, first_antenna, runs};
    const long k = first_antenna[runs];
    double p[3][GROUP], s[2][GROUP];
    long run = 0;
    for (long g0 = 0; g0 < k; g0 += GROUP) {
        int count = k - g0 < GROUP ? (int)(k - g0) : GROUP;
        geometry(&t, &run, g0, rx, r0, coeffs, n_coeffs, count, p, s);
        for (int i = 0; i < count; i++) {
            a[g0 + i] = p[2][i] * -(s[0][i] * p[0][i]);
            a[k + g0 + i] = p[2][i] * -(s[1][i] * p[1][i]);
        }
    }
}
