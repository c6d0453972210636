/* Compiled kernel: the hot primitives behind the search sweeps, built by
 * setup.py with any C compiler. Mirrors _kernel_py, the reference, function
 * for function, with identical results down to list and dict key order.
 * The slice walk keeps one level (gcd, element mask, sumset mask) per
 * interior depth, so a leaf costs one shifted OR and a popcount, and it
 * walks only the interiors with e[1] + e[k-2] <= m: the reflexion
 * x -> m - x covers the rest (see Slice below).
 * Limits: elements with |e| <= 2^60 (the IntSet range), at most 12 elements
 * for rank work (Bareiss minors stay inside int64), slice maxima m <= 511,
 * doubling spans <= 2^20. Past a limit it raises OverflowError; kernel.py
 * routes such input to the pure-Python reference instead. */

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

/* portable bit count: no compiler builtin, no instruction-set flag */
static int popcount(u64 x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}

/* Reads a sequence of ints into out[0..cap-1] through __index__, so a float
 * raises TypeError as on the pure path. Returns the length, or -1 with an
 * exception set (OverflowError naming the function what past cap). */
static Py_ssize_t read_elements(PyObject *obj, i64 *out, Py_ssize_t cap, const char *what)
{
    PyObject *seq = PySequence_Fast(obj, "elements must be a sequence of ints");
    if (seq == NULL)
        return -1;
    Py_ssize_t k = PySequence_Fast_GET_SIZE(seq);
    if (k > cap) {
        PyErr_Format(PyExc_OverflowError, "the compiled %s takes at most %zd elements", what, cap);
        goto fail;
    }
    for (Py_ssize_t i = 0; i < k; i++) {
        PyObject *v = PyNumber_Index(PySequence_Fast_GET_ITEM(seq, i));
        out[i] = v == NULL ? -1 : PyLong_AsLongLong(v);
        Py_XDECREF(v);
        if (out[i] == -1 && PyErr_Occurred())
            goto fail;
        if (out[i] > MAX_ABS_ELEMENT || out[i] < -MAX_ABS_ELEMENT) {
            PyErr_SetString(PyExc_OverflowError,
                            "the compiled kernel takes elements with |e| <= 2**60");
            goto fail;
        }
    }
    Py_DECREF(seq);
    return k;
fail:
    Py_DECREF(seq);
    return -1;
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

/* |A + A| for offsets off[0..k-1] in [0, 64 * mw), OR-ing the element mask
 * (amask, mw words) shifted by each offset into acc (aw + 1 words, where
 * aw = ceil((2 * max offset + 1) / 64)). */
static int bitset_doubling(const i64 *off, Py_ssize_t k, u64 *amask, Py_ssize_t mw,
                           u64 *acc, Py_ssize_t aw)
{
    Py_ssize_t i, w;
    memset(amask, 0, mw * sizeof(u64));
    memset(acc, 0, (aw + 1) * sizeof(u64));
    for (i = 0; i < k; i++)
        amask[off[i] >> 6] |= 1ULL << (off[i] & 63);
    for (i = 0; i < k; i++)
        shift_or(acc, amask, mw, off[i]);
    int total = 0;
    for (w = 0; w < aw; w++)
        total += popcount(acc[w]);
    return total;
}

static PyObject *doubling_size(PyObject *self, PyObject *elements)
{
    Py_ssize_t n = PyObject_Length(elements), k, mw, aw;
    PyObject *result = NULL;
    u64 *words = NULL;
    i64 base, span = 0, *off = n < 0 ? NULL : PyMem_Malloc((n + 1) * sizeof(i64));
    if (off == NULL)
        return n < 0 ? NULL : PyErr_NoMemory();
    k = read_elements(elements, off, n, "doubling_size");
    if (k < 0)
        goto done;
    if (k == 0) {
        PyErr_SetString(PyExc_IndexError, "doubling_size of an empty sequence");
        goto done;
    }
    base = off[0];
    for (Py_ssize_t i = 0; i < k; i++) {
        off[i] -= base;
        if (off[i] < 0) {
            PyErr_SetString(PyExc_ValueError, "negative shift count");
            goto done;
        }
        if (off[i] > span)
            span = off[i];
    }
    if (span > MAX_SPAN) {
        PyErr_SetString(PyExc_OverflowError, "the compiled doubling_size takes spans <= 2**20");
        goto done;
    }
    mw = (Py_ssize_t)(span >> 6) + 1;
    aw = (Py_ssize_t)((2 * span) >> 6) + 1;
    words = PyMem_Malloc((mw + aw + 1) * sizeof(u64));
    if (words == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    result = PyLong_FromLong(bitset_doubling(off, k, words, mw, words + mw, aw));
done:
    PyMem_Free(words);
    PyMem_Free(off);
    return result;
}

/* Rank over Q of the relation rows of e[0..k-1], k <= MAXK: each pair
 * (i <= j), in order, whose sum an earlier pair had gives the row (latest
 * such pair) - (this pair), as in _kernel_py. Fraction-free (Bareiss)
 * elimination, early exit at k - 2: every entry stays a minor of a matrix
 * of small entries, so the divisions are exact and fit in int64. */
static int relation_rank(const i64 *e, int k)
{
    i64 sum[MAXPAIRS], rows[MAXPAIRS][MAXK];
    int pi[MAXPAIRS], pj[MAXPAIRS];
    int n = 0, nr = 0, i, j, q, c, r;
    for (i = 0; i < k; i++) {
        for (j = i; j < k; j++) {
            sum[n] = e[i] + e[j];
            pi[n] = i;
            pj[n] = j;
            for (q = n - 1; q >= 0 && sum[q] != sum[n]; q--)
                ;
            if (q >= 0) {
                i64 *row = rows[nr++];
                memset(row, 0, sizeof(rows[0]));
                row[pi[q]]++;
                row[pj[q]]++;
                row[i]--;
                row[j]--;
            }
            n++;
        }
    }
    int rank = 0, cap = k - 2;
    i64 prev = 1;
    for (int col = 0; col < k && nr > 0; col++) {
        int pivot = rank;
        while (pivot < nr && rows[pivot][col] == 0)
            pivot++;
        if (pivot == nr)
            continue;
        if (pivot != rank) {
            i64 t[MAXK];
            memcpy(t, rows[rank], sizeof(t));
            memcpy(rows[rank], rows[pivot], sizeof(t));
            memcpy(rows[pivot], t, sizeof(t));
        }
        i64 p = rows[rank][col];
        for (r = rank + 1; r < nr; r++) {
            i64 f = rows[r][col];
            if (f != 0) {
                for (c = col + 1; c < k; c++)
                    rows[r][c] = (rows[r][c] * p - rows[rank][c] * f) / prev;
                rows[r][col] = 0;
            }
            else if (p != 1 || prev != 1) {
                for (c = col + 1; c < k; c++)
                    rows[r][c] = rows[r][c] * p / prev;
            }
        }
        prev = p;
        rank++;
        if (rank >= cap)
            return rank;
    }
    return rank;
}

static PyObject *lambda_rank(PyObject *self, PyObject *elements)
{
    i64 e[MAXK];
    Py_ssize_t k = read_elements(elements, e, MAXK, "lambda_rank");
    return k < 0 ? NULL : PyLong_FromLong(relation_rank(e, (int)k));
}

static PyObject *is_one_dimensional(PyObject *self, PyObject *elements)
{
    i64 e[MAXK];
    Py_ssize_t k = PyObject_Length(elements);
    if (k >= 0 && k <= 2)
        return PyBool_FromLong(k == 2);
    if (k < 0 || (k = read_elements(elements, e, MAXK, "is_one_dimensional")) < 0)
        return NULL;
    return PyBool_FromLong(relation_rank(e, (int)k) == k - 2);
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

/* A slice walks the normal-form k-sets {0 < e[1] < ... < e[r] < m}, r = k - 2,
 * interiors in lexicographic order, with bitsets sized from m: mw =
 * ceil((m + 1) / 64) mask words, aw = ceil((2m + 1) / 64) sumset words.
 *
 * Levels: level i (0 <= i < r) holds the gcd, the element mask and the
 * sumset mask of {0, m, e[1..i]}; level 0 is {0, m}. A change at position j
 * rebuilds the levels from j on, and a leaf only adds e[r] to level r - 1:
 * one shifted OR and a popcount.
 *
 * Mirror half: x -> m - x maps the slice onto itself and keeps gcd, doubling
 * and relation rank. The walk takes only the interiors with e[1] + e[r] <= m.
 * The mirror of one with e[1] + e[r] < m has e[1] + e[r] > m and is not
 * walked; when e[1] + e[r] == m the mirror is walked itself. */
typedef struct {
    int k, r, m;
    Py_ssize_t mw, aw;
    i64 e[MAXK];
    i64 g[MAXK];
    u64 mask[MAXK][SLICE_MASK_WORDS];
    u64 sums[MAXK][SLICE_ACC_WORDS + 1];
} Slice;

/* The largest value position j takes in the half walk: e[1] <= (m - r + 1) / 2,
 * so that e[r] >= e[1] + r - 1 still fits under m - e[1]; e[j] <= m - e[1] - (r - j). */
static i64 slice_limit(const Slice *s, int j)
{
    return j == 1 ? (s->m - s->r + 1) / 2 : s->m - s->e[1] - (s->r - j);
}

/* Level i from level i - 1 and e[i]. */
static void slice_level(Slice *s, int i)
{
    i64 x = s->e[i];
    s->g[i] = s->g[i - 1] == 1 ? 1 : gcd(s->g[i - 1], x);
    memcpy(s->mask[i], s->mask[i - 1], s->mw * sizeof(u64));
    s->mask[i][x >> 6] |= 1ULL << (x & 63);
    memcpy(s->sums[i], s->sums[i - 1], (s->aw + 1) * sizeof(u64));
    shift_or(s->sums[i], s->mask[i], s->mw, x);
}

/* Checks k and m and sets up the first interior and its levels; 0 means the
 * slice is empty, -1 that an exception is set. */
static int slice_start(Slice *s, int k, int m, const char *what)
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
    for (int i = 1; i <= s->r; i++)
        s->e[i] = i;
    for (int i = 1; i < s->r; i++)
        slice_level(s, i);
    return 1;
}

/* The next interior of the half walk, in lexicographic order; 0 when the
 * slice is done. */
static int slice_advance(Slice *s)
{
    int r = s->r, j = r;
    while (j >= 1 && s->e[j] == slice_limit(s, j))
        j--;
    if (j < 1)
        return 0;
    s->e[j]++;
    for (int i = j + 1; i <= r; i++)
        s->e[i] = s->e[i - 1] + 1;
    for (int i = j; i < r; i++)
        slice_level(s, i);
    return 1;
}

/* |A + A| of the current set when its gcd is 1, else -1: level r - 1 plus
 * the last interior element x, whose sums are x + {0, m, e[1..r-1]} and 2x. */
static int slice_doubling(const Slice *s)
{
    int r = s->r;
    i64 x = s->e[r];
    if (s->g[r - 1] != 1 && gcd(s->g[r - 1], x) != 1)
        return -1;
    u64 acc[SLICE_ACC_WORDS + 1];
    memcpy(acc, s->sums[r - 1], (s->aw + 1) * sizeof(u64));
    shift_or(acc, s->mask[r - 1], s->mw, x);
    acc[x >> 5] |= 1ULL << ((2 * x) & 63);
    int total = 0;
    for (Py_ssize_t w = 0; w < s->aw; w++)
        total += popcount(acc[w]);
    return total;
}

static PyObject *sweep_slice(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"k", "m", "t_max", NULL};
    int k, m;
    Py_ssize_t t_max;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iin:sweep_slice", kwlist, &k, &m, &t_max))
        return NULL;
    Slice s;
    int started = slice_start(&s, k, m, "sweep_slice");
    if (started < 0)
        return NULL;
    char realized[MAXPAIRS + 1] = {0};
    if (started && t_max >= 0) {
        do {
            int t = slice_doubling(&s);
            if (t >= 0 && t <= t_max && !realized[t] && relation_rank(s.e, k) == k - 2)
                realized[t] = 1;
        } while (slice_advance(&s));
    }
    PyObject *out = PyList_New(0);
    for (int t = 0; out != NULL && t <= MAXPAIRS; t++) {
        PyObject *v = realized[t] ? PyLong_FromLong(t) : NULL;
        if (realized[t] && (v == NULL || PyList_Append(out, v) < 0))
            Py_CLEAR(out);
        Py_XDECREF(v);
    }
    return out;
}

/* Appends the current set, or its mirror {m - e[k-1-i]}, to sets as a tuple. */
static int append_set(PyObject *sets, const Slice *s, int mirror)
{
    PyObject *elems = PyTuple_New(s->k);
    for (int i = 0; elems != NULL && i < s->k; i++) {
        PyObject *v = PyLong_FromLongLong(mirror ? s->m - s->e[s->k - 1 - i] : s->e[i]);
        if (v == NULL)
            Py_CLEAR(elems);
        else
            PyTuple_SET_ITEM(elems, i, v);
    }
    int rc = elems == NULL ? -1 : PyList_Append(sets, elems);
    Py_XDECREF(elems);
    return rc;
}

static PyObject *collect_slice(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"k", "m", "ts", NULL};
    int k, m;
    PyObject *ts;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iiO:collect_slice", kwlist, &k, &m, &ts))
        return NULL;
    Slice s;
    int started = slice_start(&s, k, m, "collect_slice");
    if (started < 0)
        return NULL;
    /* out is keyed by sorted(set(ts)), as in _kernel_py; group[t] is the
     * list (borrowed) that a set of doubling t joins, NULL if t is unwanted */
    PyObject *keys = NULL, *out = PyDict_New(), *group[MAXPAIRS + 1] = {NULL}, *sets;
    PyObject *wanted = out == NULL ? NULL : PySet_New(ts);
    Py_ssize_t i;
    if (wanted == NULL || (keys = PySequence_List(wanted)) == NULL || PyList_Sort(keys) < 0)
        goto fail;
    for (i = 0; i < PyList_GET_SIZE(keys); i++) {
        sets = PyList_New(0);
        int rc = sets == NULL ? -1 : PyDict_SetItem(out, PyList_GET_ITEM(keys, i), sets);
        Py_XDECREF(sets);
        if (rc < 0)
            goto fail;
    }
    for (int t = 0; t <= MAXPAIRS; t++) {
        PyObject *t_obj = PyLong_FromLong(t);
        if (t_obj == NULL)
            goto fail;
        group[t] = PyDict_GetItemWithError(out, t_obj);
        Py_DECREF(t_obj);
        if (group[t] == NULL && PyErr_Occurred())
            goto fail;
    }
    if (started) {
        do {
            int t = slice_doubling(&s);
            if (t < 0 || group[t] == NULL || relation_rank(s.e, k) != k - 2)
                continue;
            if (append_set(group[t], &s, 0) < 0
                || (s.e[1] + s.e[k - 2] < m && append_set(group[t], &s, 1) < 0))
                goto fail;
        } while (slice_advance(&s));
    }
    /* drop the groups that stayed empty; sort the others, whose mirrors
     * joined them out of order */
    for (i = 0; i < PyList_GET_SIZE(keys); i++) {
        PyObject *key = PyList_GET_ITEM(keys, i);
        sets = PyDict_GetItemWithError(out, key);
        if (sets == NULL)
            goto fail;
        if (PyList_GET_SIZE(sets) == 0 ? PyDict_DelItem(out, key) < 0 : PyList_Sort(sets) < 0)
            goto fail;
    }
    Py_DECREF(wanted);
    Py_DECREF(keys);
    return out;
fail:
    Py_XDECREF(out);
    Py_XDECREF(wanted);
    Py_XDECREF(keys);
    return NULL;
}

static PyMethodDef kernel_methods[] = {
    {"doubling_size", doubling_size, METH_O, "|A + A| for a sorted tuple of distinct ints."},
    {"lambda_rank", lambda_rank, METH_O, "Rank of the additive-relation vectors of A."},
    {"is_one_dimensional", is_one_dimensional, METH_O, "Whether lambda_rank(A) is |A| - 2."},
    {"sweep_slice", (PyCFunction)(void (*)(void))sweep_slice, METH_VARARGS | METH_KEYWORDS,
     "Sorted doublings <= t_max of the normal one-dimensional k-sets with max m."},
    {"collect_slice", (PyCFunction)(void (*)(void))collect_slice, METH_VARARGS | METH_KEYWORDS,
     "The normal one-dimensional k-sets with max m and doubling in ts, by doubling."},
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
