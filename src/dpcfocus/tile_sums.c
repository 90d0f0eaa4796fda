/* Per-tile column sums of the SNR kernel, loaded by dpcfocus.beamforming.

   Antenna i of a block has the unit displacement p_i (to the RX) and the
   field vectors e_x,i and e_y,i of its two dipoles. For a receive direction
   v_j, with c = p_i . v_j, the RX pattern is g = |p_i x v_j| h(c^2), h the
   polynomial `coeffs` (lowest degree first), and the channel magnitudes are
   a_x = |(e_x,i . v_j) g| and a_y = |(e_y,i . v_j) g|. Tile t holds antennas
   t * rows up to (t + 1) * rows; out[t][0..2][j] receive the sums over its
   antennas, added in antenna order, of sqrt(a_x^2 + a_y^2), a_x and a_y.
   Built with -ffp-contract=off, so every clone rounds every step alike.
   Returns the floating-point exceptions raised, as bits: 1 overflow,
   2 invalid, 4 divide by zero, 8 underflow. */

#include <fenv.h>
#include <math.h>

#define CHUNK 256 /* directions held in L1 at a time */

#ifndef CLONES /* -DCLONES= builds the baseline instruction set alone */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define CLONES
#endif
#endif

CLONES int tile_sums(const double *p, const double *e, const double *v, const double *coeffs,
                     long n_coeffs, long k, long m, long rows, double *out)
{
    double vx[CHUNK], vy[CHUNK], vz[CHUNK], x[CHUNK], h[CHUNK], s0[CHUNK], s1[CHUNK], s2[CHUNK];
    feclearexcept(FE_ALL_EXCEPT);
    for (long t0 = 0; t0 < k; t0 += rows) {
        long t1 = k - t0 < rows ? k : t0 + rows;
        double *o = out + t0 / rows * 3 * m;
        for (long j0 = 0; j0 < m; j0 += CHUNK) {
            int n = m - j0 < CHUNK ? (int)(m - j0) : CHUNK;
            for (int j = 0; j < n; j++) {
                vx[j] = v[3 * (j0 + j)];
                vy[j] = v[3 * (j0 + j) + 1];
                vz[j] = v[3 * (j0 + j) + 2];
                s0[j] = s1[j] = s2[j] = 0.0;
            }
            for (long i = t0; i < t1; i++) {
                const double px = p[3 * i], py = p[3 * i + 1], pz = p[3 * i + 2];
                const double *ex = e + 3 * i, *ey = e + 3 * (k + i);
                const double xx = ex[0], xy = ex[1], xz = ex[2];
                const double yx = ey[0], yy = ey[1], yz = ey[2];
                const double top = coeffs[n_coeffs - 1];
                for (int j = 0; j < n; j++) {
                    double c = px * vx[j] + py * vy[j] + pz * vz[j];
                    x[j] = c * c;
                    h[j] = top;
                }
                /* Horner's rule, one degree over all the chunk's directions at a time */
                for (long d = n_coeffs - 2; d >= 0; d--) {
                    const double cd = coeffs[d];
                    for (int j = 0; j < n; j++)
                        h[j] = h[j] * x[j] + cd;
                }
                for (int j = 0; j < n; j++) {
                    /* the sine from |p x v| stays accurate next to the axial null */
                    double qx = py * vz[j] - pz * vy[j];
                    double qy = pz * vx[j] - px * vz[j];
                    double qz = px * vy[j] - py * vx[j];
                    double g = h[j] * sqrt(qx * qx + qy * qy + qz * qz);
                    double ax = fabs((xx * vx[j] + xy * vy[j] + xz * vz[j]) * g);
                    double ay = fabs((yx * vx[j] + yy * vy[j] + yz * vz[j]) * g);
                    s0[j] += sqrt(ax * ax + ay * ay);
                    s1[j] += ax;
                    s2[j] += ay;
                }
            }
            for (int j = 0; j < n; j++) {
                o[j0 + j] = s0[j];
                o[m + j0 + j] = s1[j];
                o[2 * m + j0 + j] = s2[j];
            }
        }
    }
    return (fetestexcept(FE_OVERFLOW) ? 1 : 0) | (fetestexcept(FE_INVALID) ? 2 : 0)
           | (fetestexcept(FE_DIVBYZERO) ? 4 : 0) | (fetestexcept(FE_UNDERFLOW) ? 8 : 0);
}
