/* Inner integration and controller loops, a C port of run_block_python,
 * controller_step and sosfilt_python in _kernel.py, the PCG64 generator
 * behind normals (on a compiler with unsigned __int128), the %.17g text
 * formatter behind write_rows and the number parser behind read_rows.
 *
 * Every floating-point operation is the one the Python reference does, in
 * the same order, so that with -ffp-contract=off (no fused multiply-add)
 * and no fast-math the results are bit-identical.  _kernel.py compiles
 * this file on the first run_block, sosfilt, write_rows, read_rows or
 * normals call and checks the dtype, contiguity and shape of every array before calling
 * in; nothing here re-checks.
 *
 * Arrays are C-contiguous: thermal is (n_samples, n_sub, 2), sos is
 * (n_sections, 5), one row b0 b1 b2 a1 a2 per section in both loops,
 * sos_state (n_sections, 2), dly_buf (n_ctrl, dly_cols) and out_force
 * (n_ctrl, n_stored).  Integer arrays are int64.  cotrap_run_block takes
 * the fields of the Python controller set, ctrl, as separate pointers, in
 * the order _c_args passes them; _C_FUNCTIONS in _kernel.py declares the
 * types of every exported function.
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

/* One transposed-direct-form-II biquad step of the section sec = b0 b1 b2
 * a1 a2, st its two state slots.  The order is scipy.signal's _sosfilt. */
static double biquad(const double *sec, double *st, double u)
{
    double out = sec[0] * u + st[0];
    st[0] = sec[1] * u - sec[3] * out + st[1];
    st[1] = sec[2] * u - sec[4] * out;
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
        u = biquad(sos + 5 * s, sos_state + 2 * s, u);
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

/* Filters x in place through the n_sections biquads sos, starting from
 * state (n_sections, 2), which it updates. */
void cotrap_sosfilt(const double *sos, int64_t n_sections, double *state,
                    double *x, int64_t n_samples)
{
    for (int64_t i = 0; i < n_samples; i++) {
        double u = x[i];
        for (int64_t s = 0; s < n_sections; s++)
            u = biquad(sos + 5 * s, state + 2 * s, u);
        x[i] = u;
    }
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;
#endif

/* PCG64 as numpy.random.PCG64 implements it, and the normal fill over it,
 * built only when _kernel.py links numpy's archive, which holds the fill,
 * and the compiler has 128-bit integers; otherwise numpy.random draws the
 * normals.  A 128-bit linear congruential state advances by state = state
 * * PCG_MULT + inc, and each word is the XSL-RR output of the advanced
 * state.  A state is four words, the high and low halves of state and then
 * of inc. */
#if defined(COTRAP_NPYRANDOM) && defined(__SIZEOF_INT128__)
#define PCG_MULT_HI 0x2360ED051FC65DA4ULL
#define PCG_MULT_LO 0x4385DF649FCCF645ULL

static void pcg64_step(uint64_t *st)
{
    u128 s = (u128)st[0] << 64 | st[1];
    s = s * ((u128)PCG_MULT_HI << 64 | PCG_MULT_LO) + ((u128)st[2] << 64 | st[3]);
    st[0] = (uint64_t)(s >> 64);
    st[1] = (uint64_t)s;
}

static uint64_t pcg64_next64(void *state)
{
    uint64_t *st = state;
    pcg64_step(st);
    uint64_t v = st[0] ^ st[1];
    unsigned r = (unsigned)(st[0] >> 58);
    return v >> r | v << (-r & 63u);
}

static double pcg64_next_double(void *state)
{
    return (double)(pcg64_next64(state) >> 11) * (1.0 / 9007199254740992.0);
}

/* Seeds st as numpy's pcg64_set_seed does from the four words of
 * SeedSequence.generate_state(4, uint64): the initial state from words 0
 * and 1, the increment (odd) from words 2 and 3. */
void cotrap_pcg64_seed(uint64_t *st, const uint64_t *words)
{
    st[0] = 0;
    st[1] = 0;
    st[2] = words[2] << 1 | words[3] >> 63;
    st[3] = words[3] << 1 | 1u;
    pcg64_step(st);
    uint64_t lo = st[1] + words[1];
    st[0] += words[0] + (lo < words[1]);
    st[1] = lo;
    pcg64_step(st);
}

/* numpy's bit generator interface, with the layout of numpy/random/bitgen.h
 * (whose distributions.h needs Python.h), and the ziggurat fill of
 * numpy/random/lib/libnpyrandom.a that Generator.standard_normal runs. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);

/* The next n standard normals of the PCG64 stream st into out, the numbers
 * numpy.random.Generator(PCG64).standard_normal draws; st advances. */
void cotrap_normal_fill(uint64_t *st, int64_t n, double *out)
{
    /* the normal fill asks only for 64-bit words and doubles */
    bitgen_t bitgen = {st, pcg64_next64, NULL, pcg64_next_double, pcg64_next64};
    random_standard_normal_fill(&bitgen, (intptr_t)n, out);
}
#endif

/* The exact %.17g formatter and decimal parser below need 128-bit
 * integers; a compiler without them leaves every finite non-zero value to
 * snprintf and every number to strtod. */
#ifdef __SIZEOF_INT128__
/* The powers of ten 10^q for q in [POW10_MIN, POW10_MAX], as _kernel.py
 * passes them: pow10[2 * (q - POW10_MIN)] and the word after it are the
 * high and low 64 bits of floor(10^q * 2^(127 - floor(log2 10^q))), a
 * 128-bit number with its top bit set.  Only q = 0..55 are exact. */
#define POW10_MIN (-292)
#define POW10_MAX 342

#define TEN16 10000000000000000ULL
#define TEN17 100000000000000000ULL

/* floor(v * mul / 2^shift), for v of either sign.  (v * 78913) >> 18 is
 * floor(v log10 2) for |v| < 1100 and (v * 1741647) >> 19 is
 * floor(v log2 10) for |v| < 400, which covers every exponent used here. */
static int floor_mul_shift(int v, int64_t mul, int shift)
{
    int64_t p = (int64_t)v * mul;
    return (int)(p >= 0 ? p >> shift : -((-p + ((int64_t)1 << shift) - 1) >> shift));
}
#endif

/* Writes the %.17g text of v to out, without a terminating NUL, and
 * returns its length (at most 24), or returns 0, writing nothing that
 * counts, when it cannot prove how v rounds to 17 digits; the caller then
 * asks snprintf.  NaN of either sign is "nan", as numpy prints it.
 *
 * A finite non-zero v = m * 2^e (m of 53 bits) has 17 significant digits
 * N = round(v * 10^q), q = 16 - E, E = floor(log10 |v|).  The product of m
 * and the truncated 128-bit 10^q is 181 bits; its top bits are N and the
 * rest the fraction.  The truncation makes the product smaller than the
 * exact one by less than m units of the fraction, so the rounding is
 * decided unless the fraction lies in (1/2 - m, 1/2]; an exact tie, which
 * needs round-half-even, falls there.  A fraction within m of 1 may hide a
 * carry into N + 1, which rounds to N + 1 all the same.  After Adams,
 * "Ryu revisited: printf floating point conversion" (OOPSLA 2019). */
int cotrap_format_g17(double v, const uint64_t *pow10, char *out)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    char *p = out;
    if (isnan(v)) {
        memcpy(p, "nan", 3);
        return 3;
    }
    if (bits >> 63)
        *p++ = '-';
    uint64_t m = bits & ((1ULL << 52) - 1);
    int e = (int)(bits >> 52 & 0x7FF);
    if (e == 0x7FF) {
        memcpy(p, "inf", 3);
        return (int)(p + 3 - out);
    }
    if (e == 0 && m == 0) {
        *p++ = '0';
        return (int)(p - out);
    }
#ifdef __SIZEOF_INT128__
    if (e == 0) { /* subnormal: shift m up to 53 bits */
        e = -1074;
        while (!(m >> 52)) {
            m <<= 1;
            e--;
        }
    } else {
        m |= 1ULL << 52;
        e -= 1075;
    }
    /* 2^(e + 52) <= |v| < 2^(e + 53), so E is this or one more */
    int exp10 = floor_mul_shift(e + 52, 78913, 18); /* floor(log10 2^(e+52)) */
    uint64_t n;
    for (;;) {
        int q = 16 - exp10;
        if (q < POW10_MIN || q > POW10_MAX)
            return 0;
        const uint64_t *t = pow10 + 2 * (q - POW10_MIN);
        u128 lo = (u128)m * t[1];
        u128 hi = (u128)m * t[0] + (uint64_t)(lo >> 64);
        /* the product is hi * 2^64 + (uint64_t)lo = v * 10^q * 2^sh, and
         * 10^16 <= N < 10^18 puts sh in (64, 128) */
        int sh = 127 - floor_mul_shift(q, 1741647, 19) - e; /* floor(log2 10^q) */
        if (sh <= 64 || sh >= 128)
            return 0;
        u128 top = hi >> (sh - 64);
        if (top >= TEN17) { /* E was one more */
            exp10++;
            continue;
        }
        if (top < TEN16) /* truncation hid a carry into 10^16 */
            return 0;
        n = (uint64_t)top;
        u128 rest = (hi & (((u128)1 << (sh - 64)) - 1)) << 64 | (uint64_t)lo;
        u128 half = (u128)1 << (sh - 1);
        if (rest + m <= half) /* below one half */
            break;
        if (rest > half) { /* above one half */
            if (++n == TEN17) {
                n = TEN16;
                exp10++;
            }
            break;
        }
        return 0;
    }
    char d[17];
    for (int i = 16; i >= 0; i--) {
        d[i] = (char)('0' + n % 10);
        n /= 10;
    }
    int nd = 17; /* significant digits left after the trailing zeros */
    while (d[nd - 1] == '0')
        nd--;
    if (exp10 >= 17 || exp10 < -4) { /* d.ddde+XX */
        *p++ = d[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, d + 1, (size_t)(nd - 1));
            p += nd - 1;
        }
        *p++ = 'e';
        *p++ = exp10 < 0 ? '-' : '+';
        int x = exp10 < 0 ? -exp10 : exp10;
        if (x >= 100) {
            *p++ = (char)('0' + x / 100);
            x %= 100;
        }
        *p++ = (char)('0' + x / 10);
        *p++ = (char)('0' + x % 10);
    } else if (exp10 >= 0) { /* ddd.ddd */
        memcpy(p, d, (size_t)(exp10 + 1));
        p += exp10 + 1;
        if (nd > exp10 + 1) {
            *p++ = '.';
            memcpy(p, d + exp10 + 1, (size_t)(nd - exp10 - 1));
            p += nd - exp10 - 1;
        }
    } else { /* 0.000ddd */
        *p++ = '0';
        *p++ = '.';
        for (int i = -1; i > exp10; i--)
            *p++ = '0';
        memcpy(p, d, (size_t)nd);
        p += nd;
    }
    return (int)(p - out);
#else
    (void)pow10;
    return 0;
#endif
}

/* Formats rows [r0, r1) of the n_cols float64 columns cols[c] as text, the
 * bytes np.savetxt(fmt="%.17g", delimiter=",") writes: each value as
 * %.17g, a comma between values and a newline after each row.  Each value
 * goes through cotrap_format_g17 with the table pow10, and the few it
 * cannot decide through snprintf in the "C" locale, whatever the process
 * locale is; a call makes that locale only when it meets such a value.
 * Writes into buf of size bytes and returns the byte count, or -1 if
 * fewer than 25 bytes are left for a value (the contents of buf are then
 * undefined) or there is no "C" locale; 25 bytes per value always
 * suffice. */
int64_t cotrap_format_rows(const double *const *cols, int64_t n_cols,
                           int64_t r0, int64_t r1, const uint64_t *pow10,
                           char *buf, int64_t size)
{
    locale_t c_locale = (locale_t)0, caller = (locale_t)0;
    char *p = buf;
    int64_t len = -1;
    for (int64_t r = r0; r < r1; r++) {
        for (int64_t c = 0; c < n_cols; c++) {
            double v = cols[c][r];
            int64_t room = size - (p - buf);
            if (room < 25)
                goto done;
            int n = cotrap_format_g17(v, pow10, p);
            if (n == 0) {
                if (c_locale == (locale_t)0) {
                    c_locale = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
                    if (c_locale == (locale_t)0)
                        goto done;
                    caller = uselocale(c_locale);
                }
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
    if (c_locale != (locale_t)0) {
        uselocale(caller);
        freelocale(c_locale);
    }
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

/* Reads the decimal number at s, an optional sign, digits with an optional
 * "." among or before them and an optional exponent, stores its correctly
 * rounded value in *out and returns its length, or returns 0, storing
 * nothing, when it cannot decide the token; the caller then asks strtod.
 * The token must end at a character that is not a number_char, as a
 * comma, a newline or a NUL does; it is left undecided when the
 * character after it is one ("inf", "1.5.2", "1e"), when it has more
 * than 19 significant digits, or when 10^q, q its decimal exponent, is
 * outside the table pow10 of cotrap_format_g17.
 *
 * The value w * 10^q, w the digits as an integer, is w shifted up to 64
 * bits times the truncated 128-bit 10^q: a 192-bit product P whose top 53
 * bits are the significand and whose rest decides the rounding.  The
 * truncation makes P smaller than the exact product by less than the
 * shifted w, so the rounding is decided unless the rest lies within it
 * below one half.  For q in [0, 55] the table is exact, and there an
 * exact tie rounds half to even.  An overflowing result is left
 * undecided too; the least value the table admits, 10^-292, is far above
 * the subnormals below 2^-1022.  After Lemire,
 * "Number parsing at a gigabyte per second" (Software: Practice and
 * Experience, 2021). */
int64_t cotrap_parse_decimal(const char *s, const uint64_t *pow10, double *out)
{
#ifdef __SIZEOF_INT128__
    const char *p = s;
    int neg = *p == '-';
    if (*p == '+' || *p == '-')
        p++;
    uint64_t w = 0;
    int64_t q = 0;
    int digits = 0, any = 0; /* significant digits, digits of any kind */
    while (*p == '0') {
        p++;
        any = 1;
    }
    for (; *p >= '0' && *p <= '9'; p++) {
        if (++digits > 19)
            return 0;
        w = 10 * w + (uint64_t)(*p - '0');
    }
    if (*p == '.') {
        p++;
        if (digits == 0)
            for (; *p == '0'; p++) {
                q--;
                any = 1;
            }
        for (; *p >= '0' && *p <= '9'; p++) {
            if (++digits > 19)
                return 0;
            w = 10 * w + (uint64_t)(*p - '0');
            q--;
        }
    }
    if (!(any || digits))
        return 0;
    if (*p == 'e' || *p == 'E') {
        const char *x = p + 1;
        int x_neg = *x == '-';
        if (*x == '+' || *x == '-')
            x++;
        if (!(*x >= '0' && *x <= '9'))
            return 0;
        int64_t e10 = 0;
        for (; *x >= '0' && *x <= '9'; x++)
            if (e10 < 100000000000000000) /* 10^17: more than the digits before */
                e10 = 10 * e10 + (*x - '0');
        q += x_neg ? -e10 : e10;
        p = x;
    }
    if (number_char(*p))
        return 0;
    uint64_t bits = (uint64_t)neg << 63;
    if (w != 0) {
        if (q < POW10_MIN || q > POW10_MAX)
            return 0;
        const uint64_t *t = pow10 + 2 * (q - POW10_MIN);
        int lz = __builtin_clzll(w);
        uint64_t wn = w << lz;
        u128 lo = (u128)wn * t[1];
        u128 hi = (u128)wn * t[0] + (uint64_t)(lo >> 64);
        /* P = hi * 2^64 + (uint64_t)lo, with its top bit at 190 or 191;
         * the significand is its top 53 bits, the rest below bit k */
        int top = (int)(hi >> 127);
        int k = 138 + top;
        uint64_t m = (uint64_t)(hi >> (k - 64));
        u128 rest_hi = hi & (((u128)1 << (k - 64)) - 1);
        u128 half_hi = (u128)1 << (k - 65); /* one half is half_hi * 2^64 */
        uint64_t rest_lo = (uint64_t)lo;
        if (rest_hi > half_hi || (rest_hi == half_hi && rest_lo != 0)) {
            m++; /* above one half */
        } else if (q >= 0 && q <= 55) { /* P is exact */
            if (rest_hi == half_hi) /* a tie, to even */
                m += m & 1;
        } else if (!(rest_hi + 1 < half_hi || (rest_hi + 1 == half_hi && rest_lo <= -wn))) {
            return 0; /* within wn below one half */
        }
        /* 2^e2 <= |value| < 2^(e2 + 1); floor(q log2 10) as in cotrap_format_g17 */
        int e2 = 63 + top - lz + floor_mul_shift((int)q, 1741647, 19);
        if (m >> 53) { /* rounded up to the next power of two */
            m >>= 1;
            e2++;
        }
        if (e2 > 1023) /* overflow; no q in the table gives a subnormal */
            return 0;
        bits |= (uint64_t)(e2 + 1023) << 52 | (m & ((1ULL << 52) - 1));
    }
    memcpy(out, &bits, sizeof bits);
    return p - s;
#else
    (void)s;
    (void)pow10;
    (void)out;
    return 0;
#endif
}

/* Parses the complete rows at the start of buf[0, len): each row is n_cols
 * numbers separated by commas and ended by a newline, and each number is
 * what strtod reads in the "C" locale, except hex floats, "nan(...)" and
 * white space around it.  Stores column c of the r-th row parsed into
 * cols[c][r0 + r], or nowhere when cols[c] is NULL, the column being
 * parsed and checked all the same: the layout of cotrap_format_rows.
 * Parses at most max_rows rows and sets *consumed = the bytes they take.
 * A last row with no newline is left unread.  Each number goes through
 * cotrap_parse_decimal with the table pow10, and the few it cannot decide
 * through strtod_l in the "C" locale, which a call makes only when it
 * meets such a number.  Returns the number of rows parsed, or -1 - r when
 * row r (counted from 0) is not n_cols numbers, *consumed then being the
 * offset of that row, or INT64_MIN when there is no "C" locale. */
int64_t cotrap_parse_rows(const char *buf, int64_t len, int64_t n_cols,
                          const uint64_t *pow10, double *const *cols, int64_t r0,
                          int64_t max_rows, int64_t *consumed)
{
    locale_t c_locale = (locale_t)0;
    const char *row = buf, *stop = buf + len;
    int64_t r = 0, ret;
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
            double v;
            const char *end = p + cotrap_parse_decimal(p, pow10, &v);
            if (end == p) {
                if (c_locale == (locale_t)0) {
                    c_locale = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
                    if (c_locale == (locale_t)0) {
                        ret = INT64_MIN;
                        goto done;
                    }
                }
                char *e;
                v = strtod_l(p, &e, c_locale);
                for (end = p; end < e; end++)
                    if (!number_char(*end))
                        goto bad;
                if (end == p)
                    goto bad;
            }
            if (*end != (c + 1 < n_cols ? ',' : '\n'))
                goto bad;
            if (cols[c] != NULL)
                cols[c][r0 + r] = v;
            p = end + 1;
        }
        row = eol + 1;
    }
    ret = r;
    goto done;
bad:
    ret = -1 - r;
done:
    if (c_locale != (locale_t)0)
        freelocale(c_locale);
    *consumed = row - buf;
    return ret;
}
