/*
 * Compiled kernels of the frame path: three-step and exhaustive search on
 * 8-bit frames, the motion-compensated denoise blend and the ROI
 * statistics of extrapolation, loaded through ctypes by
 * repro.motion.ckernels.  Each returns exactly what its numpy counterpart
 * returns, bit for bit:
 *
 *   - SADs of 8-bit pixels are exact integers, so summation order cannot
 *     matter.  SSE2's _mm_sad_epu8 sums 16- and 8-byte row chunks; a scalar
 *     tail covers the rest, and whole rows where SSE2 is absent.
 *   - A candidate's SAD stops accumulating once the partial sum shows it
 *     cannot win, which changes the work spent, never the winner.
 *   - The blend and the ROI statistics must be built with
 *     -ffp-contract=off, so each multiply and add rounds separately, as
 *     numpy rounds them; the ROI statistics also sum in numpy's order.
 *
 * Arrays are C-contiguous.  Frames are edge-padded the way BlockMatcher pads
 * them: to a whole macroblock grid, then by the search range d on every side.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* Exhaustive-search policies; ckernels.POLICY_CODES passes these codes. */
enum { POLICY_FULL = 0, POLICY_PRUNED = 1, POLICY_HISTOGRAM = 2 };

/* SAD over rows [first, last) of two L-wide blocks. */
static inline int64_t rows_sad(const uint8_t *a, long a_stride, const uint8_t *b,
                               long b_stride, long L, long first, long last)
{
    int64_t total = 0;
#ifdef __SSE2__
    __m128i acc = _mm_setzero_si128();
#endif
    for (long i = first; i < last; ++i) {
        const uint8_t *x = a + i * a_stride, *y = b + i * b_stride;
        long j = 0;
#ifdef __SSE2__
        for (; j + 16 <= L; j += 16)
            acc = _mm_add_epi64(acc, _mm_sad_epu8(_mm_loadu_si128((const __m128i *)(x + j)),
                                                  _mm_loadu_si128((const __m128i *)(y + j))));
        if (j + 8 <= L) {
            acc = _mm_add_epi64(acc, _mm_sad_epu8(_mm_loadl_epi64((const __m128i *)(x + j)),
                                                  _mm_loadl_epi64((const __m128i *)(y + j))));
            j += 8;
        }
#endif
        for (; j < L; ++j)
            total += x[j] > y[j] ? x[j] - y[j] : y[j] - x[j];
    }
#ifdef __SSE2__
    total += _mm_cvtsi128_si32(acc) + _mm_cvtsi128_si32(_mm_unpackhi_epi64(acc, acc));
#endif
    return total;
}

/* SAD of an L x L block, four rows at a time.  Stops once the partial sum
 * exceeds limit, so a result above limit is only a lower bound. */
static inline int64_t sad_upto(const uint8_t *a, long a_stride, const uint8_t *b,
                               long b_stride, long L, int64_t limit)
{
    int64_t total = 0;
    for (long i = 0; i < L && total <= limit; i += 4)
        total += rows_sad(a, a_stride, b, b_stride, L, i, i + 4 < L ? i + 4 : L);
    return total;
}

/* The default 16-pixel macroblock gets a copy of its own, which the
 * compiler unrolls (half the time of the generic loop at 720p). */
static int64_t block_sad(const uint8_t *a, long a_stride, const uint8_t *b, long b_stride,
                         long L, int64_t limit)
{
    if (L == 16)
        return sad_upto(a, a_stride, b, b_stride, 16, limit);
    return sad_upto(a, a_stride, b, b_stride, L, limit);
}

/* The current frame on its macroblock grid (grid_w wide) and the previous
 * frame padded by d around that grid (pad_w wide).  Block (r, c) at offset
 * (dy, dx) compares block(r, c) with origin(r, c) + dy * pad_w + dx. */
typedef struct {
    const uint8_t *cur, *prev;
    long grid_w, pad_w, rows, cols, L, d;
    uint8_t *buffer;
} frames_t;

static const uint8_t *block(const frames_t *f, long r, long c)
{
    return f->cur + r * f->L * f->grid_w + c * f->L;
}

static const uint8_t *origin(const frames_t *f, long r, long c)
{
    return f->prev + (f->d + r * f->L) * f->pad_w + f->d + c * f->L;
}

static void pad_row(uint8_t *dst, const uint8_t *src, long width, long left, long right)
{
    memset(dst, src[0], (size_t)left);
    memcpy(dst + left, src, (size_t)width);
    memset(dst + left + width, src[width - 1], (size_t)right);
}

static long clamp(long value, long high)
{
    return value < 0 ? 0 : value > high ? high : value;
}

static int pad_frames(frames_t *f, const uint8_t *cur, const uint8_t *prev, long height,
                      long width, long L, long d)
{
    f->rows = (height + L - 1) / L;
    f->cols = (width + L - 1) / L;
    f->grid_w = f->cols * L;
    f->pad_w = f->grid_w + 2 * d;
    f->L = L;
    f->d = d;
    long grid_h = f->rows * L, pad_h = grid_h + 2 * d;
    int ragged = grid_h != height || f->grid_w != width;
    f->buffer = malloc((size_t)pad_h * f->pad_w + (ragged ? (size_t)grid_h * f->grid_w : 0));
    if (!f->buffer)
        return -1;
    for (long y = 0; y < pad_h; ++y)
        pad_row(f->buffer + y * f->pad_w, prev + clamp(y - d, height - 1) * width, width, d,
                f->pad_w - d - width);
    f->prev = f->buffer;
    f->cur = cur;
    if (ragged) {
        uint8_t *grid = f->buffer + (size_t)pad_h * f->pad_w;
        for (long y = 0; y < grid_h; ++y)
            pad_row(grid + y * f->grid_w, cur + clamp(y, height - 1) * width, width, 0,
                    f->grid_w - width);
        f->cur = grid;
    }
    return 0;
}

static void store(double *vectors, double *sad, long index, long dy, long dx, int64_t best)
{
    vectors[2 * index] = (double)-dx;
    vectors[2 * index + 1] = (double)-dy;
    sad[index] = (double)best;
}

/* Three-step search.  Each step tries the eight neighbours of the step's
 * starting centre, in the scalar oracle's order, and moves to the best
 * strictly improving one.  Writes (u, v) = (-dx, -dy) per block into
 * vectors (rows x cols x 2) and the best SAD into sad (rows x cols).
 * Returns 0, or -1 when out of memory. */
int euph_tss_u8(const uint8_t *cur, const uint8_t *prev, long height, long width, long L,
                long d, double *vectors, double *sad)
{
    frames_t f;
    if (pad_frames(&f, cur, prev, height, width, L, d))
        return -1;
    long first_step = 1;
    while (2 * first_step < d + 1)
        first_step *= 2;
    for (long r = 0; r < f.rows; ++r) {
        for (long c = 0; c < f.cols; ++c) {
            const uint8_t *a = block(&f, r, c), *b = origin(&f, r, c);
            int64_t best = block_sad(a, f.grid_w, b, f.pad_w, L, INT64_MAX);
            long centre_dy = 0, centre_dx = 0;
            for (long step = first_step; step >= 1; step /= 2) {
                long base_dy = centre_dy, base_dx = centre_dx;
                for (long ndy = -step; ndy <= step; ndy += step) {
                    for (long ndx = -step; ndx <= step; ndx += step) {
                        long dy = base_dy + ndy, dx = base_dx + ndx;
                        if ((ndy == 0 && ndx == 0) || labs(dy) > d || labs(dx) > d)
                            continue;
                        int64_t sad_here = block_sad(a, f.grid_w, b + dy * f.pad_w + dx,
                                                     f.pad_w, L, best - 1);
                        if (sad_here < best) {
                            best = sad_here;
                            centre_dy = dy;
                            centre_dx = dx;
                        }
                    }
                }
            }
            store(vectors, sad, r * f.cols + c, centre_dy, centre_dx, best);
        }
    }
    free(f.buffer);
    return 0;
}

typedef struct {
    int64_t score;
    long index;
} scored_t;

static int by_score(const void *a, const void *b)
{
    const scored_t *x = a, *y = b;
    if (x->score != y->score)
        return x->score < y->score ? -1 : 1;
    return (x->index > y->index) - (x->index < y->index);
}

/* Sums of every L x L window of the padded previous frame, by top-left
 * corner, in a table (pad_w - L + 1) wide, from running column sums.
 * Returns NULL when out of memory. */
static int64_t *window_sums(const frames_t *f)
{
    long L = f->L, w = f->pad_w, out_w = w - L + 1, out_h = f->rows * L + 2 * f->d - L + 1;
    int64_t *sums = malloc(sizeof(int64_t) * ((size_t)out_h * out_w + w));
    if (!sums)
        return NULL;
    int64_t *column = sums + (size_t)out_h * out_w;
    memset(column, 0, sizeof(int64_t) * w);
    for (long y = 0; y < L - 1; ++y)
        for (long x = 0; x < w; ++x)
            column[x] += f->prev[y * w + x];
    for (long y = 0; y < out_h; ++y) {
        int64_t total = 0, *row = sums + y * out_w;
        for (long x = 0; x < w; ++x) {
            column[x] += f->prev[(y + L - 1) * w + x] - (y ? f->prev[(y - 1) * w + x] : 0);
            total += column[x] - (x >= L ? column[x - L] : 0);
            if (x >= L - 1)
                row[x - L + 1] = total;
        }
    }
    return sums;
}

/* Exhaustive search over the n candidate offsets (dys[k], dxs[k]), given
 * in spiral order: index k is the candidate's spiral rank, the tie-break.
 * The winner is the (SAD, spiral rank) minimum under every policy.
 *
 *   POLICY_FULL       evaluates every candidate of every block;
 *   POLICY_PRUNED     skips a candidate whose partial-sum lower bound
 *                     |sum(block) - sum(reference)| cannot beat the best
 *                     SAD, and stops a block once no remaining candidate
 *                     can beat its SAD-0 match;
 *   POLICY_HISTOGRAM  does the same, visiting candidates by ascending
 *                     whole-frame partial-sum score (rank 0 first).
 *
 * stats receives the numpy driver's accounting: candidates evaluated,
 * lower-bound checks (one per block for every offset visited before the
 * last block stopped) and offsets no block evaluated.  Returns 0, or -1
 * when out of memory. */
int euph_es_u8(const uint8_t *cur, const uint8_t *prev, long height, long width, long L,
               long d, const int64_t *dys, const int64_t *dxs, long n, int policy,
               double *vectors, double *sad, int64_t *stats)
{
    frames_t f;
    if (pad_frames(&f, cur, prev, height, width, L, d))
        return -1;
    long blocks = f.rows * f.cols, sums_w = f.pad_w - L + 1;
    int64_t *work = calloc((size_t)(2 * blocks + 6 * n), sizeof(int64_t));
    int64_t *sums = policy == POLICY_FULL ? NULL : window_sums(&f);
    scored_t *order = malloc(sizeof(scored_t) * n);
    uint8_t *zeros = calloc((size_t)L, 1);
    if (!work || !order || !zeros || (policy != POLICY_FULL && !sums)) {
        free(work);
        free(sums);
        free(order);
        free(zeros);
        free(f.buffer);
        return -1;
    }
    /* Per block: its pixel sum and the index of its zero-offset window sum.
     * Per spiral rank: the histogram score.  Per visiting index k: the
     * candidate's spiral rank, the least rank from k on, its offsets into
     * the window sums and into the padded previous frame, and how many
     * blocks evaluated it. */
    int64_t *block_sums = work, *block_at = block_sums + blocks, *score = block_at + blocks;
    int64_t *rank = score + n, *suffix_min = rank + n, *sums_at = suffix_min + n;
    int64_t *prev_at = sums_at + n, *evaluated = prev_at + n;

    for (long r = 0; sums && r < f.rows; ++r)
        for (long c = 0; c < f.cols; ++c) {
            long b = r * f.cols + c;
            /* A block's SAD against zeros is its pixel sum. */
            block_sums[b] = block_sad(block(&f, r, c), f.grid_w, zeros, 0, L, INT64_MAX);
            block_at[b] = (d + r * L) * sums_w + d + c * L;
            for (long k = 0; policy == POLICY_HISTOGRAM && k < n; ++k) {
                int64_t diff = block_sums[b] - sums[block_at[b] + dys[k] * sums_w + dxs[k]];
                score[k] += diff < 0 ? -diff : diff;
            }
        }
    for (long k = 0; k < n; ++k)
        order[k] = (scored_t){score[k], k};
    if (policy == POLICY_HISTOGRAM && n > 1)
        qsort(order + 1, (size_t)(n - 1), sizeof(scored_t), by_score);
    for (long k = n - 1; k >= 0; --k) {
        rank[k] = order[k].index;
        suffix_min[k] = k + 1 < n && suffix_min[k + 1] < rank[k] ? suffix_min[k + 1] : rank[k];
        sums_at[k] = dys[rank[k]] * sums_w + dxs[rank[k]];
        prev_at[k] = dys[rank[k]] * f.pad_w + dxs[rank[k]];
    }

    long last_stop = 1;
    for (long r = 0; r < f.rows; ++r) {
        for (long c = 0; c < f.cols; ++c) {
            long b = r * f.cols + c;
            const uint8_t *a = block(&f, r, c), *o = origin(&f, r, c);
            int64_t best = block_sad(a, f.grid_w, o, f.pad_w, L, INT64_MAX);
            int64_t best_rank = rank[0];
            long best_k = 0, stop = n;
            ++evaluated[0];
            for (long k = 1; k < n; ++k) {
                if (sums) {
                    if (best == 0) {
                        if (best_rank < suffix_min[k]) {
                            stop = k;
                            break;
                        }
                        if (rank[k] > best_rank)
                            continue;
                    }
                    int64_t diff = block_sums[b] - sums[block_at[b] + sums_at[k]];
                    int64_t bound = diff < 0 ? -diff : diff;
                    if (bound > best || (bound == best && rank[k] > best_rank))
                        continue;
                }
                int64_t sad_here = block_sad(a, f.grid_w, o + prev_at[k], f.pad_w, L, best);
                ++evaluated[k];
                if (sad_here < best || (sad_here == best && rank[k] < best_rank)) {
                    best = sad_here;
                    best_rank = rank[k];
                    best_k = k;
                }
            }
            if (stop > last_stop)
                last_stop = stop;
            store(vectors, sad, b, dys[rank[best_k]], dxs[rank[best_k]], best);
        }
    }

    stats[0] = stats[2] = 0;
    for (long k = 0; k < n; ++k) {
        stats[0] += evaluated[k];
        stats[2] += evaluated[k] == 0;
    }
    stats[1] = policy == POLICY_FULL ? 0 : (int64_t)blocks * (last_stop - 1);
    free(work);
    free(sums);
    free(order);
    free(zeros);
    free(f.buffer);
    return 0;
}

/* Round half to even, as np.rint does, with no libm: adding and removing
 * 2^52 leaves no fraction bits, and the add rounds to nearest even. */
static double round_half_even(double value)
{
    const double shift = 4503599627370496.0;
    if (value >= 0 && value < shift)
        return (value + shift) - shift;
    if (value < 0 && value > -shift)
        return (value - shift) + shift;
    return value;
}

/* Motion-compensated blend.  A block whose SAD is at most max_sad and whose
 * source (rounded half to even, like numpy's rint) lies inside the frame
 * becomes (1 - s) * current + s * previous[source]; every other pixel is
 * current.  current is uint8 (current_u8 != 0) or float64; previous and
 * out are float64. */
void euph_blend(const void *current, int current_u8, const double *previous, long height,
                long width, const double *vectors, const double *sad, long L, double max_sad,
                double strength, double *out)
{
    long cols = (width + L - 1) / L;
    double keep = 1.0 - strength;
    for (long y0 = 0; y0 < height; y0 += L) {
        long y1 = y0 + L < height ? y0 + L : height;
        for (long x0 = 0; x0 < width; x0 += L) {
            long x1 = x0 + L < width ? x0 + L : width, n = x1 - x0;
            long index = (y0 / L) * cols + x0 / L;
            double src_y = round_half_even((double)y0 - vectors[2 * index + 1]);
            double src_x = round_half_even((double)x0 - vectors[2 * index]);
            int valid = sad[index] <= max_sad && src_y >= 0 && src_x >= 0
                        && src_y + (double)(y1 - y0) <= (double)height
                        && src_x + (double)n <= (double)width;
            for (long y = y0; y < y1; ++y) {
                double *o = out + y * width + x0;
                const double *p =
                    valid ? previous + ((long)src_y + y - y0) * width + (long)src_x : NULL;
                if (current_u8) {
                    const uint8_t *cu = (const uint8_t *)current + y * width + x0;
                    for (long x = 0; x < n; ++x)
                        o[x] = p ? keep * cu[x] + strength * p[x] : cu[x];
                } else {
                    const double *cf = (const double *)current + y * width + x0;
                    for (long x = 0; x < n; ++x)
                        o[x] = p ? keep * cf[x] + strength * p[x] : cf[x];
                }
            }
        }
    }
}

/* ROI statistics: MotionField.roi_statistics for a batch of ROIs.  Every
 * operation below mirrors one of the numpy path, in its order:
 *
 *   - Python's min and max return their first argument on a tie, numpy's
 *     minimum, maximum and clip their second; only signed zeros differ.
 *   - A block index is Python's int(x // L) clamped to the grid: the true
 *     floor, also for negative x and exact multiples of L.
 *   - Sums follow numpy's pairwise order for contiguous float64 arrays:
 *     under 8 terms left to right, up to 128 in eight interleaved
 *     accumulators, beyond that two halves split at a multiple of 8.  The
 *     reduction adds the result to an initial 0.0. */

static double py_min(double a, double b) { return b < a ? b : a; }
static double py_max(double a, double b) { return b > a ? b : a; }
static double np_min(double a, double b) { return a < b ? a : b; }
static double np_max(double a, double b) { return a > b ? a : b; }

/* min(max(int(x // L), 0), n - 1), or -1 when x is not finite (where
 * Python's int() raises).  Below (n - 1) * L, x / L truncates to the true
 * floor: for x < k * L the rounded quotient stays below the integer k,
 * because the spacing of doubles just under k * L exceeds L times half
 * their spacing just under k. */
static long block_of(double x, double L, long n)
{
    if (x - x != 0.0)
        return -1;
    if (x < 0.0)
        return 0;
    if (x >= (double)(n - 1) * L)
        return n - 1;
    return (long)(x / L);
}

/* One ROI against the field: its blocks, nc columns from (r0, c0) of a grid
 * cols wide, and the box the overlap weights are measured against. */
typedef struct {
    const double *vectors, *sad;
    long cols, r0, c0, nc;
    double L, max_sad, height, width, left, top, right, bottom;
    int ones; /* every weight 1.0: the overlap weights summed to zero */
} roi_t;

/* The four sums of roi_statistics: weights, u and v times weight, and
 * confidence times weight. */
typedef struct {
    double w, u, v, a;
} sums_t;

static sums_t add(sums_t x, sums_t y)
{
    return (sums_t){x.w + y.w, x.u + y.u, x.v + y.v, x.a + y.a};
}

/* np.clip(min(end, far) - max(start, near), 0.0, None) of one block row
 * or column, its end clipped to the frame. */
static double overlap(double start, double L, double extent, double near, double far)
{
    double d = np_min(np_min(start + L, extent), far) - np_max(start, near);
    return d > 0.0 ? d : 0.0;
}

/* Terms k0 .. k0 + n - 1 of the ROI's sums, row-major over its blocks. */
static void roi_terms(const roi_t *roi, long k0, long n, sums_t *terms)
{
    long i = k0 / roi->nc, j = k0 % roi->nc;
    for (long k = 0; k < n; ++k) {
        long r = roi->r0 + i, c = roi->c0 + j, b = r * roi->cols + c;
        double w = 1.0;
        if (!roi->ones)
            w = overlap((double)c * roi->L, roi->L, roi->width, roi->left, roi->right)
                * overlap((double)r * roi->L, roi->L, roi->height, roi->top, roi->bottom);
        /* MotionField.confidence: np.clip(1 - SAD / max_sad, 0, 1). */
        double alpha = 1.0 - roi->sad[b] / roi->max_sad;
        alpha = alpha < 0.0 ? 0.0 : alpha > 1.0 ? 1.0 : alpha;
        terms[k] = (sums_t){w, roi->vectors[2 * b] * w, roi->vectors[2 * b + 1] * w, alpha * w};
        if (++j == roi->nc) {
            j = 0;
            ++i;
        }
    }
}

static sums_t pairwise(const roi_t *roi, long k0, long n)
{
    if (n > 128) {
        long half = n / 2 - (n / 2) % 8;
        return add(pairwise(roi, k0, half), pairwise(roi, k0 + half, n - half));
    }
    sums_t terms[128], total = {-0.0, -0.0, -0.0, -0.0};
    roi_terms(roi, k0, n, terms);
    long k = 0;
    if (n >= 8) {
        sums_t r[8];
        for (long m = 0; m < 8; ++m)
            r[m] = terms[m];
        for (k = 8; k < n - n % 8; k += 8)
            for (long m = 0; m < 8; ++m)
                r[m] = add(r[m], terms[k + m]);
        total = add(add(add(r[0], r[1]), add(r[2], r[3])), add(add(r[4], r[5]), add(r[6], r[7])));
    }
    for (; k < n; ++k)
        total = add(total, terms[k]);
    return total;
}

/* For each of the n ROIs (x, y, width, height) the overlap-weighted mean
 * motion (u, v) of Eq. 1 and the mean Eq. 2 confidence, into out (n x 3),
 * from vectors (rows x cols x 2) and SADs (rows x cols) of a height x width
 * frame tiled by L-pixel blocks.  Returns 0, or -1 when an ROI needs the
 * block of a coordinate that is not finite. */
int euph_roi_stats(const double *vectors, const double *sad, long height, long width,
                   long L, const double *rois, long n, double *out)
{
    long rows = (height + L - 1) / L, cols = (width + L - 1) / L;
    double H = (double)height, W = (double)width, Lf = (double)L, max_sad = 255.0 * Lf * Lf;
    for (long q = 0; q < n; ++q) {
        double x = rois[4 * q], y = rois[4 * q + 1], w = rois[4 * q + 2], h = rois[4 * q + 3];
        /* BoundingBox.clip, then BoundingBox.from_corners. */
        double left = py_min(py_max(x, 0.0), W), top = py_min(py_max(y, 0.0), H);
        double right = py_min(py_max(x + w, 0.0), W), bottom = py_min(py_max(y + h, 0.0), H);
        double cx = py_min(left, right), cy = py_min(top, bottom);
        double cw = py_max(left, right) - cx, ch = py_max(top, bottom) - cy;
        roi_t roi = {vectors, sad, cols, 0, 0, 1, Lf, max_sad, H, W, cx, cy, cx + cw, cy + ch, 0};
        long r1, c1;
        if (cw == 0.0 || ch == 0.0) {
            /* Empty once clipped: the block nearest the unclipped centre,
             * weighed against the unclipped box. */
            r1 = roi.r0 = block_of(y + h / 2.0, Lf, rows);
            c1 = roi.c0 = block_of(x + w / 2.0, Lf, cols);
            roi.left = x;
            roi.top = y;
            roi.right = x + w;
            roi.bottom = y + h;
        } else {
            /* An edge exactly on a block boundary stays out of the next block. */
            roi.r0 = block_of(cy, Lf, rows);
            roi.c0 = block_of(cx, Lf, cols);
            r1 = block_of(py_max(roi.bottom - 1e-6, cy), Lf, rows);
            c1 = block_of(py_max(roi.right - 1e-6, cx), Lf, cols);
        }
        if (roi.r0 < 0 || roi.c0 < 0 || r1 < 0 || c1 < 0)
            return -1;
        roi.nc = c1 - roi.c0 + 1;
        long blocks = (r1 - roi.r0 + 1) * roi.nc;
        sums_t sums = pairwise(&roi, 0, blocks);
        if (0.0 + sums.w <= 0.0) {
            roi.ones = 1;
            sums = pairwise(&roi, 0, blocks);
        }
        double total = 0.0 + sums.w;
        out[3 * q] = (0.0 + sums.u) / total;
        out[3 * q + 1] = (0.0 + sums.v) / total;
        out[3 * q + 2] = (0.0 + sums.a) / total;
    }
    return 0;
}
