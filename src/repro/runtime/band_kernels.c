/*
 * Band kernels of the fused tone-mapping engine (repro/runtime/fused.py).
 *
 * Each function replays, element for element, the NumPy operation
 * sequence it replaces in repro/runtime/band_kernels.py, so its results
 * are bit-identical: every arithmetic step is one IEEE-754 operation in
 * the same precision and order as the NumPy pass, and the build passes
 * -ffp-contract=off so no multiply and add are fused into one rounding.
 * The two np.power calls and the luminance matmul stay in NumPy: NumPy's
 * SIMD power and BLAS dot product round differently from libm pow and
 * from a plain three-term sum.
 *
 * All arrays are C-contiguous and naturally aligned; the Python side
 * checks this before it picks these kernels.
 *
 * The loops are written so that the compiler vectorizes them without
 * relaxing any floating-point rule: the epilogue runs short chunks
 * through one branch-free loop per step, and on x86-64 glibc hosts
 * every kernel is also cloned for AVX2 and picked at load time.  Vector
 * width changes no bit: each lane performs the same IEEE operations.
 */
#include <stddef.h>
#include <stdint.h>

typedef ptrdiff_t idx;

#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define KERNEL __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef KERNEL
#define KERNEL
#endif

/* Values per epilogue chunk: a chunk's scratch stays in L1. */
#define CHUNK 512

/* np.clip's rules: a NaN passes through, and a signed zero that ties
 * the bound keeps its sign. */
static inline double clip_lo(double a, double lo) { return lo > a ? lo : a; }
static inline double clip_hi(double a, double hi) { return hi < a ? hi : a; }

/* Register blocks of the folded convolution: BLOCK outputs as four
 * 4-lane vectors (four AVX2 registers; eight SSE2 registers in the
 * default clone).  Each lane performs the scalar IEEE operations in the
 * scalar order, so a vector changes no bit.  aligned(8) lets a vector
 * load and store at any double, and may_alias keeps those accesses
 * ordered with the scalar stores around them (the edge replication). */
typedef double vec4 __attribute__((vector_size(32), aligned(8), may_alias));
#define BLOCK 16

/* The folded convolution of repro.tonemap.gaussian.fold_rows_into for
 * the outputs out[0, count), rows of p `stride` values apart:
 * out = c[r] * p[r]; then per mirrored pair k,
 * out += (p[k] + p[2r - k]) * c[k], tap after tap.  A full block keeps
 * its accumulators in registers across every tap; a shorter tail
 * (count < BLOCK) runs the same sequence one output at a time. */
static inline void fold_block(const double *restrict p, idx stride,
                              idx radius, const double *restrict c,
                              idx count, double *restrict out)
{
    const double *centre = p + radius * stride;
    if (count < BLOCK) {
        for (idx j = 0; j < count; j++) {
            double acc = c[radius] * centre[j];
            for (idx k = 0; k < radius; k++)
                acc += (p[k * stride + j] + p[(2 * radius - k) * stride + j])
                       * c[k];
            out[j] = acc;
        }
        return;
    }
    const vec4 *m = (const vec4 *)centre;
    vec4 acc0 = c[radius] * m[0], acc1 = c[radius] * m[1];
    vec4 acc2 = c[radius] * m[2], acc3 = c[radius] * m[3];
    for (idx k = 0; k < radius; k++) {
        const vec4 *a = (const vec4 *)(p + k * stride);
        const vec4 *b = (const vec4 *)(p + (2 * radius - k) * stride);
        const double ck = c[k];
        acc0 += (a[0] + b[0]) * ck;
        acc1 += (a[1] + b[1]) * ck;
        acc2 += (a[2] + b[2]) * ck;
        acc3 += (a[3] + b[3]) * ck;
    }
    vec4 *o = (vec4 *)out;
    o[0] = acc0;
    o[1] = acc1;
    o[2] = acc2;
    o[3] = acc3;
}

/* Normalize virtual rows [virtual_lo, virtual_lo + n) of a float32
 * plane of `height` rows of `row_len` values: rows beyond the image
 * clamp to the edge row, the division runs in float32, and the quotient
 * widens to float64 into dst rows `dst_stride` values apart. */
KERNEL void rk_normalize(const float *restrict plane, idx height,
                         idx row_len, idx virtual_lo, idx n, float denom,
                         double *restrict dst, idx dst_stride)
{
    for (idx i = 0; i < n; i++) {
        idx row = virtual_lo + i;
        row = row < 0 ? 0 : (row >= height ? height - 1 : row);
        const float *src = plane + row * row_len;
        double *d = dst + i * dst_stride;
        for (idx j = 0; j < row_len; j++)
            d[j] = (double)(src[j] / denom);
    }
}

/* Horizontal pass: replicate each padded row's edge values into its
 * `radius` border columns, then fold the row into out, whose rows are
 * `out_stride` values apart. */
KERNEL void rk_hfold(double *restrict padded, idx n, idx width, idx radius,
                     const double *restrict c, double *restrict out,
                     idx out_stride)
{
    const idx stride = width + 2 * radius;
    for (idx i = 0; i < n; i++) {
        double *p = padded + i * stride;
        const double left = p[radius], right = p[radius + width - 1];
        for (idx k = 0; k < radius; k++) {
            p[k] = left;
            p[radius + width + k] = right;
        }
        for (idx x = 0; x < width; x += BLOCK)
            fold_block(p + x, 1, radius, c,
                       width - x < BLOCK ? width - x : BLOCK,
                       out + i * out_stride + x);
    }
}

/* Vertical pass: output row t reads ring rows [t, t + 2 radius], the
 * ring's rows `stride` values apart.  It runs in BLOCK-column strips,
 * so a strip's ring rows stay in L1 across the band's output rows; the
 * caller pads the stride off a power of two, or those rows would all
 * map to the same few L1 sets. */
KERNEL void rk_vfold(const double *restrict ring, idx stride, idx n,
                     idx width, idx radius, const double *restrict c,
                     double *restrict out)
{
    for (idx x = 0; x < width; x += BLOCK) {
        const idx count = width - x < BLOCK ? width - x : BLOCK;
        for (idx t = 0; t < n; t++)
            fold_block(ring + t * stride + x, stride, radius, c, count,
                       out + t * width + x);
    }
}

/* Epilogue before the first pow: the clipped mask (written through to
 * mask) and the masking exponent's argument (m * 2 - 1) * strength. */
KERNEL void rk_pre(const double *restrict blurred, idx count,
                   double strength, double *restrict mask,
                   double *restrict expo)
{
    for (idx lo = 0; lo < count; lo += CHUNK) {
        const idx hi = count - lo < CHUNK ? count : lo + CHUNK;
        for (idx i = lo; i < hi; i++)
            mask[i] = clip_hi(clip_lo(blurred[i], 0.0), 1.0);
        for (idx i = lo; i < hi; i++)
            expo[i] = (mask[i] * 2.0 - 1.0) * strength;
    }
}

/* Epilogue before the second pow: normalize (float32 division, widened),
 * flag true blacks (<= eps), clip to [eps, 1], and repeat each pixel's
 * exponent per channel into expo_rep (colour only; NULL for gray). */
KERNEL void rk_mid(const float *restrict src, idx pixels, idx channels,
                   float denom, double eps, const double *restrict expo,
                   double *restrict oband, unsigned char *restrict black,
                   double *restrict expo_rep)
{
    const idx count = pixels * channels;
    for (idx lo = 0; lo < count; lo += CHUNK) {
        const idx hi = count - lo < CHUNK ? count : lo + CHUNK;
        for (idx j = lo; j < hi; j++)
            oband[j] = (double)(src[j] / denom);
        for (idx j = lo; j < hi; j++)
            black[j] = oband[j] <= eps;
        for (idx j = lo; j < hi; j++)
            oband[j] = clip_hi(clip_lo(oband[j], eps), 1.0);
    }
    if (expo_rep != NULL)
        for (idx i = 0; i < pixels; i++) {
            expo_rep[3 * i] = expo[i];
            expo_rep[3 * i + 1] = expo[i];
            expo_rep[3 * i + 2] = expo[i];
        }
}

static inline double adjust(double x, double contrast, double brightness)
{
    return clip_hi(clip_lo((x - 0.5) * contrast + 0.5 + brightness, 0.0),
                   1.0);
}

/* Epilogue after the second pow: true blacks to 0, then
 * ((x - 0.5) * contrast + 0.5) + brightness clipped to [0, 1], stored
 * as float32 (out_float32 != 0) or float64.  A black pixel takes the
 * adjusted value of 0.0, computed once by the same operations. */
KERNEL void rk_post(const double *restrict oband,
                    const unsigned char *restrict black, idx count,
                    double contrast, double brightness, void *out,
                    int out_float32)
{
    const double zero = adjust(0.0, contrast, brightness);
    double value[CHUNK];
    for (idx lo = 0; lo < count; lo += CHUNK) {
        const idx n = count - lo < CHUNK ? count - lo : CHUNK;
        const double *x = oband + lo;
        const unsigned char *is_black = black + lo;
        for (idx i = 0; i < n; i++)
            value[i] = adjust(x[i], contrast, brightness);
        for (idx i = 0; i < n; i++)
            value[i] = is_black[i] ? zero : value[i];
        if (out_float32) {
            float *restrict o = (float *)out + lo;
            for (idx i = 0; i < n; i++)
                o[i] = (float)value[i];
        } else {
            double *restrict o = (double *)out + lo;
            for (idx i = 0; i < n; i++)
                o[i] = value[i];
        }
    }
}
