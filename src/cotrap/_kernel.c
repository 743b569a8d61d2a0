/* Inner integration and controller loops, a C port of run_block_python,
 * controller_step and sosfilt_python in _kernel.py, the %.17g text
 * formatter behind write_rows and the number parser behind read_rows.
 *
 * Every floating-point operation is the one the Python reference does, in
 * the same order, so that with -ffp-contract=off (no fused multiply-add)
 * and no fast-math the results are bit-identical.  _kernel.py compiles
 * this file on the first run_block, sosfilt, write_rows or read_rows call
 * and checks the dtype, contiguity and shape of every array before calling
 * in; nothing here re-checks.
 *
 * Arrays are C-contiguous: thermal is (n_samples, n_sub, 2), sos is
 * (n_sections, 5) in run_block and (n_sections, 6) in sosfilt, sos_state
 * (n_sections, 2), dly_buf (n_ctrl, dly_cols) and out_force
 * (n_ctrl, n_stored).  Integer arrays are int64.
 */

#define _GNU_SOURCE /* newlocale, uselocale, strtod_l */

#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define FAULT_NONE 0
#define FAULT_CROSSING 1
#define FAULT_NONFINITE 2
#define FAULT_ESCAPED 3

#define KIND_SQUEEZER 1

/* One transposed-direct-form-II biquad step: b = (b0, b1, b2), a = (a1, a2),
 * st its two state slots.  The order is scipy.signal's _sosfilt. */
static double biquad(const double *b, const double *a, double *st, double u)
{
    double out = b[0] * u + st[0];
    st[0] = b[1] * u - a[0] * out + st[1];
    st[1] = b[2] * u - a[1] * out;
    return out;
}

static double controller_step(
    double y, double t, int64_t c, const int64_t *kind, const double *sos,
    const int64_t *sos_off, double *sos_state, double *dly_buf,
    int64_t dly_cols, const int64_t *dly_len, int64_t *dly_pos,
    const double *gain_n_per_m, const double *lo_omega, const double *lo_phase,
    const double *force_limit, int64_t *sat_count)
{
    double u = y;
    for (int64_t s = sos_off[c]; s < sos_off[c + 1]; s++)
        u = biquad(sos + 5 * s, sos + 5 * s + 3, sos_state + 2 * s, u);
    /* ring buffer: write, advance, read oldest = u[n - delay] */
    double *buf = dly_buf + dly_cols * c;
    buf[dly_pos[c]] = u;
    dly_pos[c] = (dly_pos[c] + 1) % dly_len[c];
    double u_sel = buf[dly_pos[c]];
    if (kind[c] == KIND_SQUEEZER)
        u_sel = u_sel * sin(lo_omega[c] * t + lo_phase[c]);
    double f = gain_n_per_m[c] * u_sel;
    if (f > force_limit[c]) {
        f = force_limit[c];
        sat_count[c] += 1;
    } else if (f < -force_limit[c]) {
        f = -force_limit[c];
        sat_count[c] += 1;
    }
    return f;
}

/* Returns the fault code and stores the sample index of the fault (-1 for
 * none) in *fault_at. */
int64_t cotrap_run_block(
    double *pos, double *vel, double m1, double m2, double u1, double u2,
    double kq, int64_t coulomb_on, double ou_a1, double ou_b1, double ou_a2,
    double ou_b2, double dt, int64_t n_sub, int64_t block_index0, double ts,
    int64_t n_samples, const double *thermal, double det_sigma,
    const double *det_noise, int64_t n_ctrl, const int64_t *kind,
    const double *sos, const int64_t *sos_off, double *sos_state,
    double *dly_buf, int64_t dly_cols, const int64_t *dly_len,
    int64_t *dly_pos, const double *gain_n_per_m, const double *lo_omega,
    const double *lo_phase, const double *force_limit, int64_t *sat_count,
    double *hold_force, int64_t store_every, double *out_z1, double *out_z2,
    double *out_v1, double *out_v2, double *out_y, double *out_force,
    int64_t n_stored, double z_limit, int64_t *fault_at)
{
    double z1 = pos[0];
    double z2 = pos[1];
    double v1 = vel[0];
    double v2 = vel[1];
    double half = 0.5 * dt;
    int64_t fault = FAULT_NONE;
    *fault_at = -1;
    for (int64_t i = 0; i < n_samples; i++) {
        double fc_tot = 0.0;
        for (int64_t c = 0; c < n_ctrl; c++)
            fc_tot += hold_force[c];
        const double *xi = thermal + 2 * n_sub * i;
        double d, fc;
        for (int64_t j = 0; j < n_sub; j++) {
            /* B: half kick */
            d = z2 - z1;
            fc = coulomb_on ? kq / (d * d) : 0.0;
            v1 += half * ((-u1 * z1 - fc + fc_tot) / m1);
            v2 += half * ((-u2 * z2 + fc) / m2);
            /* A: half drift */
            z1 += half * v1;
            z2 += half * v2;
            /* O: exact damping + thermal kick */
            v1 = ou_a1 * v1 + ou_b1 * xi[2 * j];
            v2 = ou_a2 * v2 + ou_b2 * xi[2 * j + 1];
            /* A: half drift */
            z1 += half * v1;
            z2 += half * v2;
            /* B: half kick */
            d = z2 - z1;
            if (coulomb_on) {
                if (d <= 0.0) {
                    fault = FAULT_CROSSING;
                    *fault_at = i;
                    break;
                }
                fc = kq / (d * d);
            } else {
                fc = 0.0;
            }
            v1 += half * ((-u1 * z1 - fc + fc_tot) / m1);
            v2 += half * ((-u2 * z2 + fc) / m2);
        }
        if (fault != FAULT_NONE)
            break;
        if (!(isfinite(z1) && isfinite(z2) && isfinite(v1) && isfinite(v2))) {
            fault = FAULT_NONFINITE;
            *fault_at = i;
            break;
        }
        double y = z1 + det_sigma * det_noise[i];
        int64_t gi = block_index0 + i;
        if ((gi + 1) % store_every == 0) {
            if (fabs(z1) > z_limit || fabs(z2) > z_limit) {
                fault = FAULT_ESCAPED;
                *fault_at = i;
                break;
            }
            int64_t si = (gi + 1) / store_every - 1;
            out_z1[si] = z1;
            out_z2[si] = z2;
            out_v1[si] = v1;
            out_v2[si] = v2;
            out_y[si] = y;
            for (int64_t c = 0; c < n_ctrl; c++)
                out_force[n_stored * c + si] = hold_force[c];
        }
        if (n_ctrl > 0) {
            double t = (double)(gi + 1) * ts;
            for (int64_t c = 0; c < n_ctrl; c++)
                hold_force[c] = controller_step(
                    y, t, c, kind, sos, sos_off, sos_state, dly_buf, dly_cols,
                    dly_len, dly_pos, gain_n_per_m, lo_omega, lo_phase,
                    force_limit, sat_count);
        }
    }
    pos[0] = z1;
    pos[1] = z2;
    vel[0] = v1;
    vel[1] = v2;
    return fault;
}

/* Filters x in place through n_sections biquads in scipy.signal's layout,
 * sos (n_sections, 6) = b0 b1 b2 a0 a1 a2 with a0 = 1, starting from state
 * (n_sections, 2), which it updates. */
void cotrap_sosfilt(const double *sos, int64_t n_sections, double *state,
                    double *x, int64_t n_samples)
{
    for (int64_t i = 0; i < n_samples; i++) {
        double u = x[i];
        for (int64_t s = 0; s < n_sections; s++)
            u = biquad(sos + 6 * s, sos + 6 * s + 4, state + 2 * s, u);
        x[i] = u;
    }
}

/* Formats rows [r0, r1) of the n_cols float64 columns cols[c] as text, the
 * bytes np.savetxt(fmt="%.17g", delimiter=",") writes: each value as
 * %.17g, a comma between values and a newline after each row.  Every NaN
 * prints as "nan", as numpy prints it, where glibc would print "-nan" for
 * one with the sign bit set.  Numbers are formatted in the "C" locale
 * whatever the process locale is.  Writes into buf of size bytes and
 * returns the byte count, or -1 if buf is too small (its contents are
 * then undefined); 25 bytes per value always suffice. */
int64_t cotrap_format_rows(const double *const *cols, int64_t n_cols,
                           int64_t r0, int64_t r1, char *buf, int64_t size)
{
    locale_t c_locale = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return -1;
    locale_t caller = uselocale(c_locale);
    char *p = buf;
    int64_t len = -1;
    for (int64_t r = r0; r < r1; r++) {
        for (int64_t c = 0; c < n_cols; c++) {
            double v = cols[c][r];
            int64_t room = size - (p - buf);
            int n;
            if (isnan(v)) {
                n = 3;
                if (room <= n)
                    goto done;
                memcpy(p, "nan", 3);
            } else {
                n = snprintf(p, (size_t)room, "%.17g", v);
                if (n < 0 || n >= room) /* the separator takes the NUL's byte */
                    goto done;
            }
            p += n;
            *p++ = c + 1 < n_cols ? ',' : '\n';
        }
    }
    len = p - buf;
done:
    uselocale(caller);
    freelocale(c_locale);
    return len;
}

/* The characters strtod may consume that also belong to a decimal number,
 * "inf", "infinity" or "nan": no "x" of a hex float, no "(" of "nan(...)"
 * and no white space. */
static int number_char(char c)
{
    switch (c) {
    case '0': case '1': case '2': case '3': case '4': case '5': case '6':
    case '7': case '8': case '9': case '+': case '-': case '.': case 'e':
    case 'E': case 'i': case 'I': case 'n': case 'N': case 'f': case 'F':
    case 'a': case 'A': case 't': case 'T': case 'y': case 'Y':
        return 1;
    default:
        return 0;
    }
}

/* Parses the complete rows at the start of buf[0, len): each row is n_cols
 * numbers separated by commas and ended by a newline, and each number is
 * what strtod reads in the "C" locale, except hex floats, "nan(...)" and
 * white space around it.  Stores the rows row-major into out, at most
 * max_rows of them, and *consumed = the bytes they take.  A last row with
 * no newline is left unread.  Returns the number of rows stored, or
 * -1 - r when row r (counted from 0) is not n_cols numbers, *consumed then
 * being the offset of that row, or INT64_MIN when there is no "C" locale. */
int64_t cotrap_parse_rows(const char *buf, int64_t len, int64_t n_cols,
                          double *out, int64_t max_rows, int64_t *consumed)
{
    locale_t c_locale = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    *consumed = 0;
    if (c_locale == (locale_t)0)
        return INT64_MIN;
    const char *row = buf, *stop = buf + len;
    int64_t r = 0;
    for (; r < max_rows; r++) {
        const char *eol = memchr(row, '\n', (size_t)(stop - row));
        if (eol == NULL)
            break;
        const char *p = row;
        for (int64_t c = 0; c < n_cols; c++) {
            /* strtod skips leading white space, a newline too, so it
             * starts only on a character of a number */
            if (!number_char(*p))
                goto bad;
            char *end;
            double v = strtod_l(p, &end, c_locale);
            for (const char *q = p; q < end; q++)
                if (!number_char(*q))
                    goto bad;
            if (end == p || *end != (c + 1 < n_cols ? ',' : '\n'))
                goto bad;
            out[n_cols * r + c] = v;
            p = end + 1;
        }
        row = eol + 1;
    }
    freelocale(c_locale);
    *consumed = row - buf;
    return r;
bad:
    freelocale(c_locale);
    *consumed = row - buf;
    return -1 - r;
}
