/* Compiled kernel: the hot primitives behind the search sweeps, built by
 * setup.py with any C compiler. Mirrors _kernel_py, the reference, function
 * for function, with identical results down to list and dict key order.
 * The one slice walk, census_slice, keeps one level (gcd, element mask,
 * sumset mask, and when a leaf needs it the kernel of the relation rows) per
 * interior depth up to the prefix, the set less its last interior element,
 * and it walks only the interiors with e[1] + e[k-2] <= m: the reflexion
 * x -> m - x covers the rest (see Slice below). One loop per prefix runs
 * every last element x and reads |2A| off the prefix's words in place, a
 * shifted AND and a popcount per word. Every
 * one-dimensional set of a wanted doubling, one whose listing is nonzero, is
 * a hit, and the walk takes the extension census of each hit and its
 * mirror: their right extensions, read off one pool per hit, counted per
 * doubling, and the sets the caller's listing asks for, each recorded whole
 * (census_hit). sweep_slice, the benchmark probe's entry, reads only the
 * doublings of that census.
 * right_extensions lists the right extensions of one set with their
 * doublings and overlaps, one call per set of a sweep, and chain_children
 * the canonical out-of-hull children of one normal set with their doublings,
 * one call per parent of a chain level, building no child below the floor
 * the level passes for its doubling. Both visit only the points y of one mask
 * of 2A - A (see read_masks), so their cost is linear in the span for a
 * given |A|, and count |2(A | {y})| = |2A| + |A| + 1 - |2A & (y + A)| by one
 * shifted read on either side of the hull. No child is rank tested: the
 * chain levels grow from {0, 1, 2}, and a child of a one-dimensional parent
 * is one-dimensional (y in 2A - A gives a relation y + a = b + c with
 * y-coefficient 1, independent of A's relations).
 * The slice walk releases the GIL, so callers can run slices on threads: the
 * walk touches no Python object, and the tuples are built after taking the
 * GIL back.
 * lambda_rank and is_one_dimensional rank-test with relation_rank, which
 * eliminates over F_p, p = 2^31 - 1, by cross-multiplication, with no
 * division. It gives the rank over Q that the pure twin computes by Bareiss
 * elimination, capped at k - 2, on every input: each relation row
 * u_a + u_b - u_c - u_d has L2 norm at most sqrt(8), so by Hadamard's bound
 * every r x r minor with r <= k - 2 <= 10 is at most 8^5 = 32,768 < p in
 * absolute value and cannot vanish mod p unless it is 0 (see relation_rank).
 * The slice walk calls no relation_rank: a leaf is a hit when its relation
 * rows, restricted to the interior columns e[1..k-2], have kernel 0 over F_p,
 * read off the prefix's kernel and the rows x adds (see Slice). That is
 * relation_rank's verdict. The solutions of the relations hold 1 and A, whose
 * values at 0 and m are independent, so the rank is k - 2 exactly when no
 * nonzero solution has z_0 = z_m = 0. The rows span every relation: each
 * level adds one row per sum of its element e[i] that the level below holds,
 * against one pair of that sum, and any other pair of it differs from that
 * one by a relation of the level below (no other pair holding e[i] reaches
 * it). Each row is still u_a + u_b - u_c - u_d, of L2 norm at most sqrt(8) on
 * the interior columns, so the Hadamard argument holds with the same p.
 * Popcount: the slice walk is built as target_clones("popcnt", "default")
 * where the compiler has that attribute on x86-64 ELF with glibc, whose ifunc
 * lets the dynamic loader pick the popcnt clone on a CPU that has the
 * instruction; GCC compiles the portable popcount to popcnt in that clone.
 * Every other build, and the default clone, keeps the portable count, and
 * setup.py passes no instruction-set flag.
 * Input: doubling_size, lambda_rank, is_one_dimensional, right_extensions
 * and chain_children take a set, a nonempty, strictly ascending iterable of
 * ints, which read_set reads for all five. A non-integer raises TypeError,
 * empty input IndexError and input not strictly ascending ValueError, with
 * the pure twin's messages.
 * Limits: elements with |e| <= 2^60 (the IntSet range), at most 12 elements
 * for rank work (the prime bound above), slice maxima m <= 511, and spans
 * <= 2^20 for the masks (read_masks). Past a limit it raises OverflowError;
 * kernel.py routes such input to the pure-Python reference instead. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef long long i64;
typedef unsigned long long u64;

#define MAXK 12
#define MAXPAIRS (MAXK * (MAXK + 1) / 2) /* also the largest |A + A| */
#define MAX_M 511
#define MAX_SPAN (1LL << 20)
#define MAX_ABS_ELEMENT (1LL << 60)
#define SLICE_MASK_WORDS ((MAX_M + 1 + 63) / 64)
#define SLICE_ACC_WORDS ((2 * MAX_M + 1 + 63) / 64)

/* portable bit count; the slice walk's popcnt clone runs it as the popcnt
 * instruction (see the header) */
static int popcount(u64 x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}

/* Reads a set (see Input in the header) through __index__ into a PyMem
 * array of its *k offsets from the minimum *base.
 * Returns NULL with an exception set: OverflowError for an element past
 * |e| <= 2^60, else the errors of _kernel_py's _read_set, in its order. */
static i64 *read_set(PyObject *elements, const char *what, Py_ssize_t *k, i64 *base)
{
    PyObject *seq = PySequence_Tuple(elements);
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(seq), i;
    i64 *off = PyMem_Malloc(n * sizeof(i64));
    if (off == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (i = 0; i < n; i++) {
        PyObject *v = PyNumber_Index(PyTuple_GET_ITEM(seq, i));
        off[i] = v == NULL ? -1 : PyLong_AsLongLong(v);
        Py_XDECREF(v);
        if (off[i] == -1 && PyErr_Occurred())
            goto fail;
        if (off[i] > MAX_ABS_ELEMENT || off[i] < -MAX_ABS_ELEMENT) {
            PyErr_SetString(PyExc_OverflowError,
                            "the compiled kernel takes elements with |e| <= 2**60");
            goto fail;
        }
    }
    if (n == 0) {
        PyErr_Format(PyExc_IndexError, "%s of an empty sequence", what);
        goto fail;
    }
    for (i = 1; i < n; i++) {
        if (off[i] <= off[i - 1]) {
            PyErr_Format(PyExc_ValueError, "%s takes strictly ascending elements", what);
            goto fail;
        }
    }
    *k = n;
    *base = off[0];
    for (i = 0; i < n; i++)
        off[i] -= *base;
    Py_DECREF(seq);
    return off;
fail:
    PyMem_Free(off);
    Py_DECREF(seq);
    return NULL;
}

static i64 gcd(i64 a, i64 b)
{
    while (b) {
        i64 t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/* acc |= mask << x for a mask of mw words; acc needs a word to spare above
 * the highest bit the shift reaches. */
static void shift_or(u64 *acc, const u64 *mask, Py_ssize_t mw, i64 x)
{
    Py_ssize_t base = (Py_ssize_t)(x >> 6);
    int bit = (int)(x & 63);
    for (Py_ssize_t w = 0; w < mw; w++) {
        acc[w + base] |= mask[w] << bit;
        if (bit)
            acc[w + base + 1] |= mask[w] >> (64 - bit);
    }
}

/* The popcount of two AND (mask << x) for a mask of mw words and x >= 0;
 * two needs mw + x / 64 + 1 words. */
static inline int shifted_overlap(const u64 *two, const u64 *mask, Py_ssize_t mw, i64 x)
{
    Py_ssize_t base = (Py_ssize_t)(x >> 6);
    int bit = (int)(x & 63), total = 0;
    for (Py_ssize_t w = 0; w < mw; w++) {
        total += popcount(two[w + base] & (mask[w] << bit));
        if (bit)
            total += popcount(two[w + base + 1] & (mask[w] >> (64 - bit)));
    }
    return total;
}

/* A set and its masks: A and 2A from read_masks, 2A - A from pool_mask. */
typedef struct {
    Py_ssize_t k, mw;
    i64 base, span, *off; /* read_set's offsets */
    u64 *a, *two, *pool;  /* one zeroed block: mw, 4 mw and 4 mw words */
    int size;             /* |2A| */
} Masks;

/* Builds the masks of A and 2A of s->off (k offsets of span s->span, mw =
 * span / 64 + 1 words) into block, 9 mw zeroed words, in the layout argued
 * at read_masks; pool_mask fills in the rest. */
static void build_masks(Masks *s, u64 *block)
{
    Py_ssize_t i;
    s->a = block;
    s->two = s->a + s->mw;
    s->pool = s->two + 4 * s->mw;
    for (i = 0; i < s->k; i++)
        s->a[s->off[i] >> 6] |= 1ULL << (s->off[i] & 63);
    for (i = 0; i < s->k; i++)
        shift_or(s->two, s->a, s->mw, s->span + s->off[i]);
    for (i = s->mw - 1, s->size = 0; i < 3 * s->mw; i++)
        s->size += popcount(s->two[i]);
}

/* Reads a set with read_set, as a normal set (min 0, gcd 1) when normal is
 * set, and builds the masks of A and 2A from its offsets into s (build_masks),
 * which free_masks releases. Returns 0, or -1 with an exception set and nothing
 * held: read_set's errors, ValueError for a set that is not normal, and
 * OverflowError past span 2^20.
 *
 * One layout serves every read the mask primitives make: bit i of a stands
 * for the offset i, bit span + s of two for the sum s, and bit 2 span + y of
 * pool for the point y of 2A - A, so no shift is negative. With mw = span /
 * 64 + 1 words for A, a shift by x <= c span starts at word x / 64 < c mw:
 * - shift_or(two, a, mw, span + e) with e <= span writes two up to word
 *   (mw - 1) + (2 mw - 1) + 1 = 3 mw - 1: 2A lies in words mw - 1 to 3 mw - 1;
 * - shifted_overlap(two, a, mw, span + y) with y <= 2 span reads two up to
 *   word (mw - 1) + (3 mw - 1) + 1 = 4 mw - 1;
 * - shift_or(pool, two, 3 mw, span - a) with a >= 0 writes pool up to word
 *   (3 mw - 1) + (mw - 1) + 1 = 4 mw - 1. */
static int read_masks(PyObject *elements, const char *what, int normal, Masks *s)
{
    Py_ssize_t i;
    i64 g = 0;
    u64 *block = NULL;
    if ((s->off = read_set(elements, what, &s->k, &s->base)) == NULL)
        return -1;
    s->span = s->off[s->k - 1];
    for (i = 0; normal && i < s->k; i++)
        g = gcd(g, s->off[i]);
    if (normal && (s->base != 0 || (s->k > 1 && g != 1)))
        PyErr_Format(PyExc_ValueError, "%s takes a normal set (min 0, gcd 1)", what);
    else if (s->span > MAX_SPAN)
        PyErr_Format(PyExc_OverflowError, "the compiled %s takes spans <= 2**20", what);
    else {
        s->mw = (Py_ssize_t)(s->span >> 6) + 1;
        if ((block = PyMem_Calloc(9 * s->mw, sizeof(u64))) == NULL)
            PyErr_NoMemory();
    }
    if (block == NULL) {
        PyMem_Free(s->off);
        return -1;
    }
    build_masks(s, block);
    return 0;
}

/* The pool, 2A - A: two shifted by span - a, ORed over a in A (not for doubling_size). */
static void pool_mask(Masks *s)
{
    for (Py_ssize_t i = 0; i < s->k; i++)
        shift_or(s->pool, s->two, 3 * s->mw, s->span - s->off[i]);
}

/* The first set bit at or past j of the pool mask, or -1: each point y of
 * 2A - A, at bit 2 span + y, in ascending order. */
static i64 next_point(const Masks *s, i64 j)
{
    Py_ssize_t w = (Py_ssize_t)(j >> 6);
    u64 x = w < 4 * s->mw ? s->pool[w] & (~0ULL << (j & 63)) : 0;
    while (x == 0 && ++w < 4 * s->mw)
        x = s->pool[w];
    return x == 0 ? -1 : 64 * (i64)w + popcount((x - 1) & ~x);
}

static void free_masks(Masks *s)
{
    PyMem_Free(s->a);
    PyMem_Free(s->off);
}

static PyObject *doubling_size(PyObject *self, PyObject *elements)
{
    Masks s;
    if (read_masks(elements, "doubling_size", 0, &s) < 0)
        return NULL;
    free_masks(&s);
    return PyLong_FromLong(s.size);
}

/* The rank arithmetic works over F_p, p = 2^31 - 1: residues fit in 31
 * bits, so a * b + c * d < 2^63 for residues a, b, c, d, and 2^31 = 1 mod p
 * reduces a product with two folds and no division. */
#define RANK_P 2147483647ULL

/* relation_rank and the slice walk's kernels are exact while p exceeds
 * 8^(r/2) for every rank r <= MAXK - 2 they reach; 1 << ceil(3r / 2) bounds
 * 8^(r/2) from above. */
_Static_assert(RANK_P > (1ULL << ((3 * (MAXK - 2) + 1) / 2)),
               "raising MAXK needs a larger rank prime: see relation_rank");

/* x mod p for x < 2^63 */
static u64 mod_p(u64 x)
{
    x = (x & RANK_P) + (x >> 31);
    x = (x & RANK_P) + (x >> 31);
    return x >= RANK_P ? x - RANK_P : x;
}

/* Slots of the pair-sum table: a power of two above 2 * MAXPAIRS, whose
 * entries (pair index + 1) fit in a byte. */
#define SUM_SLOTS 256
_Static_assert(2 * MAXPAIRS < SUM_SLOTS && SUM_SLOTS <= 256, "resize the pair-sum table");

/* Rank over Q of the relation rows of a set e[0..k-1], k <= MAXK, capped at
 * k - 2 as in _kernel_py: each pair (i <= j), in order, whose sum an earlier
 * pair had gives the row (latest such pair) - (this pair); a small hash
 * table on the sums finds that pair.
 *
 * The elimination runs over F_p by cross-multiplication (row_r = row_r * pivot
 * - row_pivot * f), so no step divides, and it gives the same capped rank:
 * - Each row is u_a + u_b - u_c - u_d. The elements are distinct, so an
 *   index repeats only within a pair, as in the row (2, -1, -1) of
 *   a + a = b + c. Its positive and negative parts each have L1 norm at
 *   most 2, so its L2 norm is at most sqrt(8).
 * - By Hadamard's bound every r x r minor is at most 8^(r/2) <= 8^5 =
 *   32,768 < p in absolute value, for r <= cap <= MAXK - 2 = 10.
 * - The rank mod p never exceeds the rank over Q, as a minor that is nonzero
 *   mod p is nonzero over Q. A nonzero minor of size min(rank over Q, cap)
 *   stays nonzero mod p. So min(rank, cap) is the same over F_p and over Q,
 *   and the elimination stops at cap on both. */
static int relation_rank(const i64 *e, int k)
{
    i64 key[SUM_SLOTS];
    unsigned rows[MAXPAIRS][MAXK]; /* residues mod p */
    unsigned char slot[SUM_SLOTS] = {0}; /* pair index + 1, 0 when free */
    unsigned char pi[MAXPAIRS], pj[MAXPAIRS];
    int n = 0, nr = 0, i, j, c, r;
    for (i = 0; i < k; i++) {
        for (j = i; j < k; j++) {
            i64 s = e[i] + e[j];
            unsigned h = (unsigned)(((u64)s * 0x9E3779B97F4A7C15ULL) >> 56);
            while (slot[h] && key[h] != s)
                h = (h + 1) & (SUM_SLOTS - 1);
            if (slot[h]) {
                int q = slot[h] - 1, d[MAXK] = {0};
                d[pi[q]]++;
                d[pj[q]]++;
                d[i]--;
                d[j]--;
                for (c = 0; c < k; c++)
                    rows[nr][c] = (unsigned)(d[c] < 0 ? (i64)RANK_P + d[c] : d[c]);
                nr++;
            }
            key[h] = s;
            pi[n] = (unsigned char)i;
            pj[n] = (unsigned char)j;
            slot[h] = (unsigned char)(++n);
        }
    }
    int rank = 0, cap = k - 2;
    for (int col = 0; col < k && nr > 0; col++) {
        int pivot = rank;
        while (pivot < nr && rows[pivot][col] == 0)
            pivot++;
        if (pivot == nr)
            continue;
        if (pivot != rank) {
            unsigned t[MAXK];
            memcpy(t, rows[rank], sizeof(t));
            memcpy(rows[rank], rows[pivot], sizeof(t));
            memcpy(rows[pivot], t, sizeof(t));
        }
        u64 p = rows[rank][col];
        for (r = rank + 1; r < nr; r++) {
            u64 f = rows[r][col];
            if (f == 0)
                continue;
            for (c = col + 1; c < k; c++)
                rows[r][c] = (unsigned)mod_p(rows[r][c] * p + rows[rank][c] * (RANK_P - f));
            rows[r][col] = 0;
        }
        rank++;
        if (rank >= cap)
            return rank;
    }
    return rank;
}

/* relation_rank of the offsets read_set reads (the rank does not see a
 * translation), and the size *k of the set; -1 with an exception set,
 * OverflowError past MAXK elements. */
static int set_rank(PyObject *elements, const char *what, Py_ssize_t *k)
{
    i64 base, *off = read_set(elements, what, k, &base);
    int rank = -1;
    if (off == NULL)
        return -1;
    if (*k > MAXK)
        PyErr_Format(PyExc_OverflowError, "the compiled %s takes at most %d elements", what, MAXK);
    else
        rank = relation_rank(off, (int)*k);
    PyMem_Free(off);
    return rank;
}

static PyObject *lambda_rank(PyObject *self, PyObject *elements)
{
    Py_ssize_t k;
    int rank = set_rank(elements, "lambda_rank", &k);
    return rank < 0 ? NULL : PyLong_FromLong(rank);
}

static PyObject *is_one_dimensional(PyObject *self, PyObject *elements)
{
    Py_ssize_t k;
    int rank = set_rank(elements, "is_one_dimensional", &k);
    /* rank 0 for every 1- and 2-set, which have no relation */
    return rank < 0 ? NULL : PyBool_FromLong(rank == k - 2);
}

/* A slice walks the normal-form k-sets {0 < e[1] < ... < e[r] < m}, r = k - 2,
 * interiors in lexicographic order, with bitsets sized from m: mw =
 * ceil((m + 1) / 64) mask words, aw = ceil((2m + 1) / 64) sumset words.
 * Position k - 1 holds m, so the set of level i below is e[0..i] and e[k-1].
 *
 * Levels: level i (0 <= i < r) holds the gcd, the element mask M and the
 * sumset mask S of {0, m, e[1..i]}; level 0 is {0, m}. A change at position j
 * rebuilds the levels from j on and marks their kernels stale (dim -1).
 *
 * Kernels: level i's kernel, computed when a leaf needs it (level_dim), is a
 * basis over F_p of the z with z_0 = z_m = 0 that level i's relation rows
 * annihilate: kern[i][q] holds its dim[i] values at position q, 0 at 0, m
 * and past i. rep[v] is a pair of positions that sums to v: level_kernel
 * writes the pairs of the sums its element adds, and as a deeper level writes
 * only sums new to it, a level with a current kernel keeps its sums' pairs.
 *
 * Leaves: a leaf is the prefix (level r - 1) plus a last element x. One loop
 * per prefix runs every x and reads |2A| = |S| + k - |S & (M << x)|
 * - [2x in S] off the prefix's words (walk); a leaf whose doubling is wanted
 * goes through the gcd and rank tests (leaf_test).
 *
 * Mirror half: x -> m - x maps the slice onto itself and keeps gcd, doubling
 * and relation rank. The walk takes only the interiors with e[1] + e[r] <= m.
 * The mirror of one with e[1] + e[r] < m has e[1] + e[r] > m and is not
 * walked; when e[1] + e[r] == m the mirror is walked itself. */
#define KDIM (MAXK - 2)
typedef struct {
    int k, r, m;
    Py_ssize_t mw, aw;
    i64 e[MAXK];
    i64 g[MAXK];
    u64 mask[MAXK][SLICE_MASK_WORDS];
    u64 sums[MAXK][SLICE_ACC_WORDS + 1];
    int dim[MAXK];
    unsigned kern[MAXK][MAXK][KDIM];
    unsigned char rep[2 * MAX_M + 1][2];
} Slice;

/* The largest value position j takes in the half walk: e[1] <= (m - r + 1) / 2,
 * so that e[r] >= e[1] + r - 1 still fits under m - e[1]; e[j] <= m - e[1] - (r - j). */
static i64 slice_limit(const Slice *s, int j)
{
    return j == 1 ? (s->m - s->r + 1) / 2 : s->m - s->e[1] - (s->r - j);
}

/* Level i from level i - 1 and e[i], its kernel stale. */
static void slice_level(Slice *s, int i)
{
    i64 x = s->e[i];
    s->g[i] = s->g[i - 1] == 1 ? 1 : gcd(s->g[i - 1], x);
    memcpy(s->mask[i], s->mask[i - 1], s->mw * sizeof(u64));
    s->mask[i][x >> 6] |= 1ULL << (x & 63);
    memcpy(s->sums[i], s->sums[i - 1], (s->aw + 1) * sizeof(u64));
    shift_or(s->sums[i], s->mask[i], s->mw, x);
    s->dim[i] = -1;
}

static inline int has_sum(const u64 *sums, i64 v)
{
    return (int)((sums[v >> 6] >> (v & 63)) & 1);
}

/* Level i's kernel from level i - 1's, which is current: the old basis at
 * positions 1..i - 1 and a new vector, 1 at position i. Each relation
 * e[i] + e[q] = e[b] + e[c] (q <= i, 2 e[i] at q = i, or q = m) of a sum that
 * level i - 1 holds, (b, c) its rep, takes each basis vector b_j to a value
 * l_j; while some l_j0 != 0 the basis loses b_j0 and keeps every
 * l_j0 b_j - l_j b_j0, which the relation annihilates. Writes the pair of
 * every sum e[i] adds to rep. */
static void level_kernel(Slice *s, int i)
{
    unsigned(*kern)[KDIM] = s->kern[i], l[KDIM];
    int d = s->dim[i - 1], q, j, a;
    u64 f;
    memcpy(kern + 1, s->kern[i - 1] + 1, (i - 1) * sizeof(*kern));
    for (q = 1; q < i; q++)
        kern[q][d] = 0;
    memset(kern[i], 0, sizeof(*kern));
    kern[i][d++] = 1;
    for (q = 0; q <= i + 1; q++) {
        int p = q <= i ? q : s->k - 1, j0 = -1;
        i64 v = s->e[i] + s->e[p];
        const unsigned char *bc = s->rep[v];
        if (!has_sum(s->sums[i - 1], v)) {
            s->rep[v][0] = (unsigned char)p;
            s->rep[v][1] = (unsigned char)i;
            continue;
        }
        for (j = 0; j < d; j++) {
            l[j] = (unsigned)mod_p((u64)kern[i][j] + kern[p][j] + 2 * RANK_P - kern[bc[0]][j]
                                   - kern[bc[1]][j]);
            j0 = l[j] ? j : j0;
        }
        if (j0 < 0)
            continue;
        d--;
        for (j = 0, f = l[j0]; j <= d; j++)
            if (j != j0 && l[j])
                for (a = 1; a <= i; a++)
                    kern[a][j] = (unsigned)mod_p(kern[a][j] * f + kern[a][j0] * (RANK_P - l[j]));
        for (a = 1; a <= i; a++)
            kern[a][j0] = kern[a][d];
    }
    s->dim[i] = d;
}

/* The dimension of level i's kernel, computing the stale kernels up to it. */
static int level_dim(Slice *s, int i)
{
    int j = i;
    while (s->dim[j] < 0)
        j--;
    while (j < i)
        level_kernel(s, ++j);
    return s->dim[i];
}

/* Checks k and m as every slice walk takes them; -1 with an exception set. */
static int slice_check(int k, int m, const char *what)
{
    if (k < 3) {
        PyErr_Format(PyExc_ValueError, "%s requires k >= 3", what);
        return -1;
    }
    if (k > MAXK || m > MAX_M) {
        PyErr_Format(PyExc_OverflowError, "the compiled %s takes k <= %d and m <= %d", what,
                     MAXK, MAX_M);
        return -1;
    }
    return 0;
}

/* Sets up the first prefix of a checked slice and its levels; 0 means the
 * slice is empty. */
static int slice_start(Slice *s, int k, int m)
{
    if (m - 1 < k - 2)
        return 0;
    *s = (Slice){.k = k, .r = k - 2, .m = m, .mw = m / 64 + 1, .aw = m / 32 + 1};
    s->e[k - 1] = m;
    s->g[0] = m;
    s->mask[0][0] = 1;
    s->mask[0][m >> 6] |= 1ULL << (m & 63);
    s->sums[0][0] = 1;
    s->sums[0][m >> 6] |= 1ULL << (m & 63);
    s->sums[0][(2 * m) >> 6] |= 1ULL << ((2 * m) & 63);
    /* level 0's pairs 0 + 0, 0 + m and m + m; rep starts zeroed */
    s->rep[m][1] = s->rep[2 * m][0] = s->rep[2 * m][1] = (unsigned char)(k - 1);
    for (int i = 1; i < s->r; i++) {
        s->e[i] = i;
        slice_level(s, i);
    }
    return 1;
}

/* The next prefix e[1..r-1] of the half walk, in lexicographic order; 0 when
 * the slice is done. Every prefix has a leaf: e[r-1] < m - e[1]. */
static int slice_advance(Slice *s)
{
    int r = s->r, j = r - 1;
    while (j >= 1 && s->e[j] == slice_limit(s, j))
        j--;
    if (j < 1)
        return 0;
    s->e[j]++;
    for (int i = j + 1; i < r; i++)
        s->e[i] = s->e[i - 1] + 1;
    for (int i = j; i < r; i++)
        slice_level(s, i);
    return 1;
}

/* A new tuple of the ints e[0..n-1], or NULL with an exception set. */
static PyObject *int_tuple(const i64 *e, Py_ssize_t n)
{
    PyObject *tup = PyTuple_New(n);
    for (Py_ssize_t i = 0; tup != NULL && i < n; i++) {
        PyObject *v = PyLong_FromLongLong(e[i]);
        if (v == NULL)
            Py_CLEAR(tup);
        else
            PyTuple_SET_ITEM(tup, i, v);
    }
    return tup;
}

/* The listed sets of a scan, recorded without the GIL: k + 1 values per
 * set, the doubling t and the elements e[0..k-1]. The raw allocators need
 * no GIL. */
typedef struct {
    i64 *data;
    Py_ssize_t used, cap; /* in values */
} Hits;

static int hits_add(Hits *h, int k, int t, const i64 *e)
{
    if (h->used + k + 1 > h->cap) {
        Py_ssize_t cap = h->cap ? 2 * h->cap : 64 * (k + 1);
        i64 *data = PyMem_RawRealloc(h->data, cap * sizeof(i64));
        if (data == NULL)
            return -1;
        h->data = data;
        h->cap = cap;
    }
    h->data[h->used] = t;
    memcpy(h->data + h->used + 1, e, k * sizeof(i64));
    h->used += k + 1;
    return 0;
}

/* What the slice walk keeps, all without the GIL: a doubling t is wanted
 * when listing[t] is nonzero, as every wanted t has its bits past k + 1 set,
 * and a leaf is rank tested only when its doubling is wanted. Every hit and
 * its mirror add to the extension census of t (census_hit), which counts
 * sets and pairs and keeps only the sets it lists. */
typedef struct {
    u64 listing[MAXPAIRS + 1]; /* overlaps that list a set, 0 when t is not wanted */
    i64 sets[MAXPAIRS + 1], pairs[MAXPAIRS + 1];
    Hits hits;
} Scan;

/* The census of the hit A = e[0..k-1] of a slice of doubling t: the pool of
 * 2A - A, built as for chain_children. Its points x above the hull are A's
 * right extensions with overlap |2A & (x + A)|. When the mirror A' = m - A
 * is not walked itself (e[1] + e[k-2] < m), its points y < 0 are the
 * mirror's, x' = m - y: 2A' - A' = m - (2A - A), and the reflexion maps
 * 2A & (y + A) onto 2A' & (x' + A'), so the overlap is read by the same
 * shifted_overlap. A set is listed when the bit of some overlap is set in
 * listing[t], and goes to hits whole. -1 when hits cannot grow. */
static int census_hit(Slice *s, Scan *sc, int t)
{
    u64 block[9 * SLICE_MASK_WORDS];
    Masks a = {.k = s->k, .mw = s->mw, .span = s->m, .off = s->e};
    const i64 hull = 2 * a.span; /* the pool bit of y = 0 */
    int mirror = s->e[1] + s->e[s->r] < s->m, listed[2] = {0, 0};
    i64 refl[MAXK];
    memset(block, 0, 9 * a.mw * sizeof(u64));
    build_masks(&a, block);
    pool_mask(&a);
    for (i64 j = next_point(&a, mirror ? 0 : 3 * a.span + 1); j >= 0; j = next_point(&a, j + 1)) {
        if (j >= hull && j <= hull + a.span) {
            j = hull + a.span;
            continue;
        }
        int o = shifted_overlap(a.two, a.a, a.mw, j - a.span);
        sc->pairs[t]++;
        listed[j < hull] |= (int)((sc->listing[t] >> o) & 1);
    }
    sc->sets[t] += 1 + mirror;
    if (listed[0] && hits_add(&sc->hits, s->k, t, s->e) < 0)
        return -1;
    for (int i = 0; i < s->k; i++)
        refl[i] = s->m - s->e[s->k - 1 - i];
    return listed[1] ? hits_add(&sc->hits, s->k, t, refl) : 0;
}

/* Reduces rows[j] (w residues) against the echelon rows, at[c] the row whose
 * pivot is column c or -1, by cross-multiplication as relation_rank does; 1
 * when it stays nonzero, as the pivot of its first nonzero column. */
static int insert_row(unsigned (*rows)[KDIM], signed char *at, int j, int w)
{
    unsigned *row = rows[j];
    for (int c = 0; c < w; c++) {
        if (row[c] == 0)
            continue;
        if (at[c] < 0) {
            at[c] = (signed char)j;
            return 1;
        }
        const unsigned *piv = rows[at[c]];
        u64 p = piv[c], f = RANK_P - row[c];
        for (int e = c; e < w; e++)
            row[e] = (unsigned)mod_p(row[e] * p + piv[e] * f);
    }
    return 0;
}

/* A leaf x of the current prefix whose doubling t is wanted, n the number of
 * its sums x + e[q] (q = r for 2x) that the prefix's sums hold: with gcd 1
 * and kernel 0 it is a hit, which census_hit counts. Each such relation is a
 * row: its coefficient of x, 1 or 2, then its values on the prefix's basis
 * as in level_kernel; the kernel is 0 when the rows reach rank d + 1, d the
 * prefix kernel's dimension. -1 when hits cannot grow. */
static int leaf_test(Slice *s, Scan *sc, i64 x, int t, int n)
{
    const int r = s->r;
    if (s->g[r - 1] != 1 && gcd(s->g[r - 1], x) != 1)
        return 0;
    const int d = level_dim(s, r - 1);
    const unsigned(*kern)[KDIM] = s->kern[r - 1];
    unsigned rows[KDIM][KDIM];
    signed char at[KDIM];
    int rank = 0;
    memset(at, -1, sizeof(at));
    s->e[r] = x;
    /* each row raises the rank by at most 1 */
    for (int q = 0; rank <= d && rank + n > d; q++) {
        i64 v = x + s->e[q];
        if (!has_sum(s->sums[r - 1], v))
            continue;
        const unsigned char *bc = s->rep[v];
        rows[rank][0] = 1 + (q == r);
        for (int j = 0; j < d; j++)
            rows[rank][j + 1] = (unsigned)mod_p((u64)kern[q][j] + 2 * RANK_P - kern[bc[0]][j]
                                                - kern[bc[1]][j]);
        rank += insert_row(rows, at, rank, d + 1);
        n--;
    }
    return rank > d ? census_hit(s, sc, t) : 0;
}

/* The walk from the current prefix on, for mw mask words and aw sumset
 * words: at each prefix, one loop runs every leaf x = e[r-1] + 1 ..
 * slice_limit(s, r). -1 when hits cannot grow. */
static inline int walk(Slice *s, Scan *sc, Py_ssize_t mw, Py_ssize_t aw)
{
    const int r = s->r;
    const u64 *mask = s->mask[r - 1], *sums = s->sums[r - 1];
    do {
        const i64 top = slice_limit(s, r);
        int fresh = s->k;
        for (Py_ssize_t w = 0; w < aw; w++)
            fresh += popcount(sums[w]);
        for (i64 x = s->e[r - 1] + 1; x <= top; x++) {
            int n = shifted_overlap(sums, mask, mw, x) + has_sum(sums, 2 * x);
            if (sc->listing[fresh - n] && leaf_test(s, sc, x, fresh - n, n) < 0)
                return -1;
        }
    } while (slice_advance(s));
    return 0;
}

/* The walk of a started slice, in the popcnt clone where the platform
 * dispatches one (see the header); the loop gets constant word counts for
 * m <= 63. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
__attribute__((target_clones("popcnt", "default")))
#endif
#endif
static int slice_walk(Slice *s, Scan *sc)
{
    if (s->mw == 1)
        return walk(s, sc, 1, 2);
    return walk(s, sc, s->mw, s->aw);
}

/* The one slice walk over the normal one-dimensional k-sets with max m whose
 * doubling t is wanted, for a slice that passed slice_check:
 * {t: (sets, pairs, sorted listed sets)} in ascending t. The walk runs
 * without the GIL, and not at all when no doubling is wanted. */
static PyObject *scan(int k, int m, Scan *sc)
{
    static const u64 unwanted[MAXPAIRS + 1];
    Slice s;
    PyObject *out = NULL, *group[MAXPAIRS + 1] = {NULL};
    Py_ssize_t i;
    int t, no_memory = 0;
    if (memcmp(sc->listing, unwanted, sizeof(unwanted)) != 0 && slice_start(&s, k, m)) {
        Py_BEGIN_ALLOW_THREADS
        no_memory = slice_walk(&s, sc) < 0;
        Py_END_ALLOW_THREADS
    }
    if (no_memory) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < sc->hits.used; i += k + 1) {
        const i64 *rec = sc->hits.data + i;
        PyObject **sets = &group[rec[0]], *elems = int_tuple(rec + 1, k);
        int rc = elems == NULL || (*sets == NULL && (*sets = PyList_New(0)) == NULL)
                     ? -1 : PyList_Append(*sets, elems);
        Py_XDECREF(elems);
        if (rc < 0)
            goto done;
    }
    if ((out = PyDict_New()) == NULL)
        goto done;
    for (t = 0; t <= MAXPAIRS; t++) {
        if (sc->sets[t] == 0)
            continue;
        PyObject *key = NULL, *value = NULL;
        /* mirrors joined their groups out of order */
        if ((group[t] != NULL || (group[t] = PyList_New(0)) != NULL) && PyList_Sort(group[t]) == 0
            && (key = PyLong_FromLong(t)) != NULL)
            value = Py_BuildValue("(LLO)", sc->sets[t], sc->pairs[t], group[t]);
        int rc = value == NULL ? -1 : PyDict_SetItem(out, key, value);
        Py_XDECREF(key);
        Py_XDECREF(value);
        if (rc < 0) {
            Py_CLEAR(out);
            break;
        }
    }
done:
    for (t = 0; t <= MAXPAIRS; t++)
        Py_XDECREF(group[t]);
    PyMem_RawFree(sc->hits.data);
    return out;
}

/* The keys of census_slice(k, m, dict.fromkeys(range(t_max + 1), 0)): the
 * entry point of the benchmark's kernel probe, which goes when the probe
 * calls census_slice (ROADMAP item 1). */
static PyObject *sweep_slice(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"k", "m", "t_max", NULL};
    int k, m;
    Py_ssize_t t_max;
    Scan sc = {0};
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iin:sweep_slice", kwlist, &k, &m, &t_max)
        || slice_check(k, m, "sweep_slice") < 0)
        return NULL;
    for (Py_ssize_t t = 0; t <= t_max && t <= MAXPAIRS; t++)
        sc.listing[t] = ~0ULL << (k + 2);
    PyObject *found = scan(k, m, &sc), *keys = found == NULL ? NULL : PyDict_Keys(found);
    Py_XDECREF(found);
    return keys;
}

/* {t: (sets, pairs, listed)} over the doublings t that key the dict listing,
 * as in _kernel_py: the slice walk, every bit of listing[t] past k + 1 set,
 * so an overlap outside 0..k + 1 lists its set. */
static PyObject *census_slice(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"k", "m", "listing", NULL};
    int k, m;
    PyObject *listing, *key, *value;
    Py_ssize_t pos = 0;
    Scan sc = {0};
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiO:census_slice", kwlist, &k, &m, &listing)
        || slice_check(k, m, "census_slice") < 0)
        return NULL;
    if (!PyDict_Check(listing)) {
        PyErr_SetString(PyExc_TypeError, "census_slice takes a dict {doubling: overlap mask}");
        return NULL;
    }
    while (PyDict_Next(listing, &pos, &key, &value)) {
        Py_ssize_t t = PyNumber_AsSsize_t(key, NULL);
        PyObject *mask = t == -1 && PyErr_Occurred() ? NULL : PyNumber_Index(value);
        if (mask == NULL)
            return NULL;
        /* the low 64 bits of the two's complement, which hold bits 0..k + 1 */
        u64 bits = PyLong_AsUnsignedLongLongMask(mask);
        Py_DECREF(mask);
        if (t >= 0 && t <= MAXPAIRS)
            sc.listing[t] = bits | ~0ULL << (k + 2);
    }
    return scan(k, m, &sc);
}

/* (x, |2(A | {x})|, |2A & (x + A)|) for every x > max A in 2A - A, ascending,
 * as in _kernel_py: the points of the pool past bit 3 span, each adding
 * |A| + 1 - overlap sums to 2A. */
static PyObject *right_extensions(PyObject *self, PyObject *elements)
{
    Masks s;
    if (read_masks(elements, "right_extensions", 0, &s) < 0)
        return NULL;
    pool_mask(&s);
    int fresh = s.size + (int)s.k + 1;
    PyObject *out = PyList_New(0);
    for (i64 j = next_point(&s, 3 * s.span + 1); out != NULL && j >= 0; j = next_point(&s, j + 1)) {
        int overlap = shifted_overlap(s.two, s.a, s.mw, j - s.span);
        PyObject *item = Py_BuildValue("(Lii)", s.base + j - 2 * s.span, fresh - overlap, overlap);
        if (item == NULL || PyList_Append(out, item) < 0)
            Py_CLEAR(out);
        Py_XDECREF(item);
    }
    free_masks(&s);
    return out;
}

/* Appends (canon, t) to out, canon the larger of the n-element normal set
 * child and its reflexion, which it writes to refl (n slots). */
static int append_child(PyObject *out, const i64 *child, i64 *refl, Py_ssize_t n, int t)
{
    const i64 *canon = child;
    Py_ssize_t i;
    for (i = 0; i < n; i++)
        refl[i] = child[n - 1] - child[n - 1 - i];
    for (i = 0; i < n && refl[i] == child[i]; i++)
        ;
    if (i < n && refl[i] > child[i])
        canon = refl;
    PyObject *elems = int_tuple(canon, n);
    PyObject *item = elems == NULL ? NULL : Py_BuildValue("(Ni)", elems, t);
    int rc = item == NULL ? -1 : PyList_Append(out, item);
    Py_XDECREF(item);
    return rc;
}

/* chain_children's floors, an iterable of ints, read into a tuple and then
 * through __index__ into a PyMem array of its *n entries; or NULL with
 * _kernel_py's TypeErrors, or OverflowError past the i64 range. */
static i64 *read_floors(PyObject *floors, Py_ssize_t *n)
{
    PyObject *seq = PySequence_Tuple(floors);
    i64 *out = seq == NULL ? NULL : PyMem_Malloc((PyTuple_GET_SIZE(seq) + 1) * sizeof(i64));
    if (seq != NULL && out == NULL)
        PyErr_NoMemory();
    for (*n = 0; out != NULL && *n < PyTuple_GET_SIZE(seq); ++*n)
        if ((out[*n] = PyLong_AsLongLong(PyTuple_GET_ITEM(seq, *n))) == -1 && PyErr_Occurred())
            PyMem_Free(out), out = NULL;
    Py_XDECREF(seq);
    return out;
}

/* (canon, |2 canon|) for every y in 2A - A outside [0, max A], ascending, for
 * a normal set A, as in _kernel_py: canon is the larger of the normal form
 * of A | {y} and its reflexion, kept when t = |2 canon| <= t_max and, where
 * floors lists a t (past MAXPAIRS too), its top (span) is at least floors[t]:
 * y past the hull, max A - y below it. One walk of the pool, as in
 * right_extensions, on both sides of the hull. */
static PyObject *chain_children(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"elements", "t_max", "floors", NULL};
    PyObject *elements, *floors = NULL;
    Py_ssize_t t_max, nf = 0, i;
    i64 *floor = NULL;
    Masks s;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "On|O:chain_children", kwlist, &elements,
                                     &t_max, &floors)
        || (floors != NULL && (floor = read_floors(floors, &nf)) == NULL)
        || read_masks(elements, "chain_children", 1, &s) < 0) {
        PyMem_Free(floor);
        return NULL;
    }
    pool_mask(&s);
    int fresh = s.size + (int)s.k + 1;
    i64 *child = PyMem_Malloc(2 * (s.k + 1) * sizeof(i64));
    PyObject *out = child == NULL ? PyErr_NoMemory() : PyList_New(0);
    for (i64 j = next_point(&s, 0); out != NULL && j >= 0; j = next_point(&s, j + 1)) {
        i64 y = j - 2 * s.span;
        if (y >= 0 && y <= s.span)
            continue;
        int t = fresh - shifted_overlap(s.two, s.a, s.mw, j - s.span);
        if (t > t_max || (t < nf && (y > 0 ? y : s.span - y) < floor[t]))
            continue;
        /* the normal form of A | {y}: A + (y,), or (0, *(A - y)) for y < 0 */
        i64 low = y < 0 ? y : 0;
        child[y < 0 ? 0 : s.k] = y - low;
        for (i = 0; i < s.k; i++)
            child[i + (y < 0)] = s.off[i] - low;
        if (append_child(out, child, child + s.k + 1, s.k + 1, t) < 0)
            Py_CLEAR(out);
    }
    PyMem_Free(child);
    PyMem_Free(floor);
    free_masks(&s);
    return out;
}

static PyMethodDef kernel_methods[] = {
    {"doubling_size", doubling_size, METH_O, "|A + A| for a set A."},
    {"lambda_rank", lambda_rank, METH_O, "Rank of the additive-relation vectors of A."},
    {"is_one_dimensional", is_one_dimensional, METH_O, "Whether lambda_rank(A) is |A| - 2."},
    {"right_extensions", right_extensions, METH_O,
     "(x, |2(A | {x})|, |2A & (x + A)|) for every x > max A in 2A - A, ascending."},
    {"chain_children", (PyCFunction)(void (*)(void))chain_children, METH_VARARGS | METH_KEYWORDS,
     "(canon, |2 canon|) for every y in 2A - A outside the hull of a normal set A, ascending."},
    {"sweep_slice", (PyCFunction)(void (*)(void))sweep_slice, METH_VARARGS | METH_KEYWORDS,
     "Sorted doublings <= t_max of the normal one-dimensional k-sets with max m."},
    {"census_slice", (PyCFunction)(void (*)(void))census_slice, METH_VARARGS | METH_KEYWORDS,
     "{t: (sets, pairs, listed sets)}: the extension census of a slice."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel", "Compiled twin of sumsetchains._kernel_py.", -1,
    kernel_methods};

PyMODINIT_FUNC PyInit__kernel(void)
{
    PyObject *mod = PyModule_Create(&kernel_module);
    if (mod != NULL && PyModule_AddStringConstant(mod, "BACKEND", "c") < 0)
        Py_CLEAR(mod);
    return mod;
}
