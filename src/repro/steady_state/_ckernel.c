/* _ckernel.c — compiled kernel backend for DeltaAnalyzer.
 *
 * Native implementations of the paths the dense numpy kernels leave
 * scalar, exported as exactly three functions that DeltaAnalyzer calls
 * directly: eval_changes (per-candidate verdict and the _apply commit
 * path), sweep (the mapping-dependent target sweep, including the
 * incremental firstPeriod worklist) and rebuild (the from-scratch
 * _rebuild accumulation behind resync).  The module keeps NO mirrored
 * C state: every function operates directly on the analyzer's own
 * Python lists/dicts (single source of truth), so there is nothing to
 * invalidate or resynchronize.
 *
 * Exactness contract (same as backend_numpy): every float operation
 * mirrors the scalar kernel's accumulation order, so results are
 * bit-identical on integer-valued graphs and within one ulp otherwise.
 * The only ordering liberty taken is iterating the `dirty`-footprint
 * set of _buffer_model in discovery order instead of Python set order
 * — the per-task sums themselves keep buffer_requirements order, so
 * this only permutes commutative additions (exact on integer data).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* ---------------------------------------------------------------- */
/* Interned attribute names                                          */

#define ATTRS(X)                                                        \
    X(_cg) X(_pe) X(_members) X(_need) X(_fp) X(_esize)                 \
    X(_compute) X(_in_bytes) X(_out_bytes) X(_peak)                     \
    X(_buffer) X(_dma_in) X(_dma_proxy) X(_link_bytes) X(_link_count)   \
    X(_app_compute) X(_app_in) X(_app_out) X(_app_peak)                 \
    X(_app_link_bytes) X(_app_link_count)                               \
    X(_is_ppe) X(_is_spe) X(_cell) X(_n_pes) X(_bw) X(_bif_bw)          \
    X(_budget) X(_in_slots) X(_proxy_slots) X(_multi)                   \
    X(_mapping_dependent) X(elide_local_comm) X(merge_same_pe_buffers)  \
    X(_n_violations) X(_state_version) X(platform) X(n_cells)           \
    X(spe_indices)                                                      \
    X(n) X(n_edges) X(n_apps) X(wppe) X(wspe) X(read) X(write) X(peek)  \
    X(in_ptr) X(in_src) X(in_data) X(in_eid)                            \
    X(out_ptr) X(out_dst) X(out_data) X(out_eid)                        \
    X(edge_src) X(edge_dst) X(edge_data) X(inc_ptr) X(inc_eid)          \
    X(topo_index) X(app_index)

#define DECL_NAME(name) static PyObject *S_##name;
ATTRS(DECL_NAME)
#undef DECL_NAME

static int
intern_names(void)
{
#define INTERN(name)                                    \
    S_##name = PyUnicode_InternFromString(#name);       \
    if (S_##name == NULL) return -1;
    ATTRS(INTERN)
#undef INTERN
    return 0;
}

/* ---------------------------------------------------------------- */
/* Conversion helpers (tolerate int-valued entries in float tables)  */

static inline double
as_d(PyObject *o)
{
    if (PyFloat_CheckExact(o))
        return PyFloat_AS_DOUBLE(o);
    return PyFloat_AsDouble(o);
}

static inline long
as_l(PyObject *o)
{
    return PyLong_AsLong(o);
}

#define GI(list, i) PyList_GET_ITEM((list), (i))
#define LD(list, i) as_d(GI((list), (i)))
#define LI(list, i) as_l(GI((list), (i)))

/* Replace list[i] with a new float/long (handles the old ref). */
static inline int
set_f(PyObject *list, Py_ssize_t i, double v)
{
    PyObject *o = PyFloat_FromDouble(v);
    if (o == NULL) return -1;
    return PyList_SetItem(list, i, o);
}

static inline int
set_l(PyObject *list, Py_ssize_t i, long v)
{
    PyObject *o = PyLong_FromLong(v);
    if (o == NULL) return -1;
    return PyList_SetItem(list, i, o);
}

/* ---------------------------------------------------------------- */
/* Analyzer context: borrowed view of the Python-side state          */

typedef struct {
    PyObject *az;
    /* new references, released by ctx_clear */
    PyObject *cg, *platform;
    PyObject *pe, *members, *need, *fp, *esize; /* fp/esize may be Py_None */
    PyObject *compute, *in_bytes, *out_bytes, *peak;
    PyObject *buffer, *dma_in, *dma_proxy, *link_bytes, *link_count;
    PyObject *app_compute, *app_in, *app_out, *app_peak;
    PyObject *app_link_bytes, *app_link_count;
    PyObject *wppe, *wspe, *read, *write, *peek;
    PyObject *in_ptr, *in_src, *in_data, *in_eid;
    PyObject *out_ptr, *out_dst, *out_data, *out_eid;
    PyObject *edge_src, *edge_dst, *edge_data, *inc_ptr, *inc_eid;
    PyObject *topo, *app_index; /* app_index may be Py_None */

    Py_ssize_t n, m, P, A, n_cells, CC;
    double bw, bif_bw, budget;
    long in_slots, proxy_slots, n_violations;
    int multi, mapping_dependent, elide, merge;

    /* dense per-PE / per-link snapshots (loaded once per call; the
     * apply path mutates the Python containers, never these) */
    int *is_ppe, *is_spe;
    long *cell;
    double *buf_d;
    long *dmain_d, *dproxy_d;
    double *lb_d;      /* link_bytes by c1*n_cells+c2 */
    unsigned char *lb_has;
    long *lb_list;
    Py_ssize_t lb_cnt;
    void *dense_block;
} Ctx;

static void
ctx_clear(Ctx *c)
{
    Py_CLEAR(c->cg); Py_CLEAR(c->platform);
    Py_CLEAR(c->pe); Py_CLEAR(c->members); Py_CLEAR(c->need);
    Py_CLEAR(c->fp); Py_CLEAR(c->esize);
    Py_CLEAR(c->compute); Py_CLEAR(c->in_bytes); Py_CLEAR(c->out_bytes);
    Py_CLEAR(c->peak);
    Py_CLEAR(c->buffer); Py_CLEAR(c->dma_in); Py_CLEAR(c->dma_proxy);
    Py_CLEAR(c->link_bytes); Py_CLEAR(c->link_count);
    Py_CLEAR(c->app_compute); Py_CLEAR(c->app_in); Py_CLEAR(c->app_out);
    Py_CLEAR(c->app_peak);
    Py_CLEAR(c->app_link_bytes); Py_CLEAR(c->app_link_count);
    Py_CLEAR(c->wppe); Py_CLEAR(c->wspe); Py_CLEAR(c->read);
    Py_CLEAR(c->write); Py_CLEAR(c->peek);
    Py_CLEAR(c->in_ptr); Py_CLEAR(c->in_src); Py_CLEAR(c->in_data);
    Py_CLEAR(c->in_eid);
    Py_CLEAR(c->out_ptr); Py_CLEAR(c->out_dst); Py_CLEAR(c->out_data);
    Py_CLEAR(c->out_eid);
    Py_CLEAR(c->edge_src); Py_CLEAR(c->edge_dst); Py_CLEAR(c->edge_data);
    Py_CLEAR(c->inc_ptr); Py_CLEAR(c->inc_eid);
    Py_CLEAR(c->topo); Py_CLEAR(c->app_index);
    if (c->dense_block) {
        PyMem_Free(c->dense_block);
        c->dense_block = NULL;
    }
}

static int
ctx_load(Ctx *c, PyObject *az)
{
    memset(c, 0, sizeof(*c));
    c->az = az;

    PyObject *tmp;
#define GET(dst, obj, name)                                   \
    do {                                                      \
        (dst) = PyObject_GetAttr((obj), S_##name);            \
        if ((dst) == NULL) goto fail;                         \
    } while (0)
#define GET_L(dst, obj, name)                                 \
    do {                                                      \
        GET(tmp, obj, name);                                  \
        (dst) = as_l(tmp);                                    \
        Py_DECREF(tmp);                                       \
        if ((dst) == -1 && PyErr_Occurred()) goto fail;       \
    } while (0)
#define GET_D(dst, obj, name)                                 \
    do {                                                      \
        GET(tmp, obj, name);                                  \
        (dst) = as_d(tmp);                                    \
        Py_DECREF(tmp);                                       \
        if ((dst) == -1.0 && PyErr_Occurred()) goto fail;     \
    } while (0)
#define GET_B(dst, obj, name)                                 \
    do {                                                      \
        GET(tmp, obj, name);                                  \
        (dst) = PyObject_IsTrue(tmp);                         \
        Py_DECREF(tmp);                                       \
        if ((dst) < 0) goto fail;                             \
    } while (0)

    GET(c->cg, az, _cg);
    GET(c->platform, az, platform);
    GET(c->pe, az, _pe);
    GET(c->members, az, _members);
    GET(c->need, az, _need);
    GET(c->fp, az, _fp);
    GET(c->esize, az, _esize);
    GET(c->compute, az, _compute);
    GET(c->in_bytes, az, _in_bytes);
    GET(c->out_bytes, az, _out_bytes);
    GET(c->peak, az, _peak);
    GET(c->buffer, az, _buffer);
    GET(c->dma_in, az, _dma_in);
    GET(c->dma_proxy, az, _dma_proxy);
    GET(c->link_bytes, az, _link_bytes);
    GET(c->link_count, az, _link_count);
    GET(c->app_compute, az, _app_compute);
    GET(c->app_in, az, _app_in);
    GET(c->app_out, az, _app_out);
    GET(c->app_peak, az, _app_peak);
    GET(c->app_link_bytes, az, _app_link_bytes);
    GET(c->app_link_count, az, _app_link_count);

    GET_L(c->P, az, _n_pes);
    GET_D(c->bw, az, _bw);
    GET_D(c->bif_bw, az, _bif_bw);
    GET_D(c->budget, az, _budget);
    GET_L(c->in_slots, az, _in_slots);
    GET_L(c->proxy_slots, az, _proxy_slots);
    GET_L(c->n_violations, az, _n_violations);
    GET_B(c->multi, az, _multi);
    GET_B(c->mapping_dependent, az, _mapping_dependent);
    GET_B(c->elide, az, elide_local_comm);
    GET_B(c->merge, az, merge_same_pe_buffers);
    GET_L(c->n_cells, c->platform, n_cells);

    GET_L(c->n, c->cg, n);
    GET_L(c->m, c->cg, n_edges);
    GET(c->wppe, c->cg, wppe);
    GET(c->wspe, c->cg, wspe);
    GET(c->read, c->cg, read);
    GET(c->write, c->cg, write);
    GET(c->peek, c->cg, peek);
    GET(c->in_ptr, c->cg, in_ptr);
    GET(c->in_src, c->cg, in_src);
    GET(c->in_data, c->cg, in_data);
    GET(c->in_eid, c->cg, in_eid);
    GET(c->out_ptr, c->cg, out_ptr);
    GET(c->out_dst, c->cg, out_dst);
    GET(c->out_data, c->cg, out_data);
    GET(c->out_eid, c->cg, out_eid);
    GET(c->edge_src, c->cg, edge_src);
    GET(c->edge_dst, c->cg, edge_dst);
    GET(c->edge_data, c->cg, edge_data);
    GET(c->inc_ptr, c->cg, inc_ptr);
    GET(c->inc_eid, c->cg, inc_eid);
    GET(c->topo, c->cg, topo_index);
    GET(c->app_index, c->cg, app_index);
    c->A = 0;
    if (c->app_index != Py_None)
        GET_L(c->A, c->cg, n_apps);
    c->CC = c->n_cells * c->n_cells;

    /* dense per-PE snapshots */
    {
        Py_ssize_t P = c->P, CC = c->CC;
        size_t bytes = (size_t)(P * (2 * sizeof(int) + 3 * sizeof(long) +
                                     sizeof(double)) +
                                CC * (sizeof(double) + sizeof(long) + 1));
        char *blk = PyMem_Malloc(bytes ? bytes : 1);
        if (blk == NULL) { PyErr_NoMemory(); goto fail; }
        c->dense_block = blk;
        c->buf_d = (double *)blk;            blk += P * sizeof(double);
        c->lb_d = (double *)blk;             blk += CC * sizeof(double);
        c->cell = (long *)blk;               blk += P * sizeof(long);
        c->dmain_d = (long *)blk;            blk += P * sizeof(long);
        c->dproxy_d = (long *)blk;           blk += P * sizeof(long);
        c->lb_list = (long *)blk;            blk += CC * sizeof(long);
        c->is_ppe = (int *)blk;              blk += P * sizeof(int);
        c->is_spe = (int *)blk;              blk += P * sizeof(int);
        c->lb_has = (unsigned char *)blk;
        memset(c->lb_has, 0, (size_t)CC);

        PyObject *isp, *iss, *cel;
        GET(isp, az, _is_ppe);
        GET(iss, az, _is_spe);
        GET(cel, az, _cell);
        for (Py_ssize_t i = 0; i < P; i++) {
            c->is_ppe[i] = PyObject_IsTrue(GI(isp, i));
            c->is_spe[i] = PyObject_IsTrue(GI(iss, i));
            c->cell[i] = LI(cel, i);
            c->buf_d[i] = 0.0;
            c->dmain_d[i] = 0;
            c->dproxy_d[i] = 0;
        }
        Py_DECREF(isp); Py_DECREF(iss); Py_DECREF(cel);

        PyObject *key, *value;
        Py_ssize_t pos = 0;
        while (PyDict_Next(c->buffer, &pos, &key, &value))
            c->buf_d[as_l(key)] = as_d(value);
        pos = 0;
        while (PyDict_Next(c->dma_in, &pos, &key, &value))
            c->dmain_d[as_l(key)] = as_l(value);
        pos = 0;
        while (PyDict_Next(c->dma_proxy, &pos, &key, &value))
            c->dproxy_d[as_l(key)] = as_l(value);
        c->lb_cnt = 0;
        pos = 0;
        while (PyDict_Next(c->link_bytes, &pos, &key, &value)) {
            long c1 = as_l(PyTuple_GET_ITEM(key, 0));
            long c2 = as_l(PyTuple_GET_ITEM(key, 1));
            long cc = c1 * c->n_cells + c2;
            c->lb_d[cc] = as_d(value);
            c->lb_has[cc] = 1;
            c->lb_list[c->lb_cnt++] = cc;
        }
    }
    if (PyErr_Occurred()) goto fail;
    return 0;
fail:
    ctx_clear(c);
    return -1;
#undef GET_B
#undef GET_D
#undef GET_L
}

/* ---------------------------------------------------------------- */
/* Scratch: stamped delta accumulators, reused across candidates     */

typedef struct {
    Py_ssize_t n, m, P, CC, A, AP, ACC;
    unsigned long gen;
    void *block;

    /* per-PE deltas + insertion-order key lists */
    double *dc, *di, *dout, *db;
    long *ddi, *ddp;
    long *dc_list, *di_list, *dout_list, *db_list, *ddi_list, *ddp_list;
    Py_ssize_t dc_cnt, di_cnt, dout_cnt, db_cnt, ddi_cnt, ddp_cnt;
    unsigned long *s_dc, *s_di, *s_dout, *s_db, *s_ddi, *s_ddp;
    /* touched = union(dc, di, dout) */
    long *t_list;
    Py_ssize_t t_cnt;
    unsigned long *s_t;
    /* link deltas, dense over (c1, c2) */
    double *dl;
    long *dln, *dl_list;
    Py_ssize_t dl_cnt;
    unsigned long *s_dl;
    /* per-app deltas, dense over a*P+pe and a*CC+cc */
    double *adc, *adi, *adout, *adl;
    long *adln;
    long *adc_list, *adi_list, *adout_list, *adl_list, *ta_list;
    Py_ssize_t adc_cnt, adi_cnt, adout_cnt, adl_cnt, ta_cnt;
    unsigned long *s_adc, *s_adi, *s_adout, *s_adl, *s_ta;
    /* edge dedup (insertion order mirrors the eids dict) */
    long *eid_list;
    Py_ssize_t eid_cnt;
    unsigned long *s_eid;
    /* moved set */
    long *mv_t, *mv_p, *mv_new;
    Py_ssize_t mv_cnt;
    unsigned long *s_mv;
    /* mapping-dependent buffer model */
    long *fp_new, *fp_list;
    Py_ssize_t fp_cnt;
    unsigned long *s_fp;
    double *esz_new;
    long *esz_list;
    Py_ssize_t esz_cnt;
    unsigned long *s_esz;
    double *need_new;
    long *need_list;
    Py_ssize_t need_cnt;
    unsigned long *s_need;
    long *dirty_list;
    Py_ssize_t dirty_cnt;
    unsigned long *s_dirty;
    unsigned long *s_queued;
    long *heap_topo, *heap_tid;
    Py_ssize_t heap_len;
} Scratch;

static int
scratch_alloc(Scratch *s, const Ctx *c)
{
    memset(s, 0, sizeof(*s));
    Py_ssize_t n = c->n, m = c->m, P = c->P, CC = c->CC, A = c->A;
    Py_ssize_t AP = A * P, ACC = A * CC;
    s->n = n; s->m = m; s->P = P; s->CC = CC; s->A = A;
    s->AP = AP; s->ACC = ACC;

    size_t nd = (size_t)(4 * P + CC + 3 * AP + ACC + m + n);   /* doubles */
    size_t nl = (size_t)(2 * P + CC + ACC                      /* ddi/ddp/dln/adln */
                         + 7 * P + CC + 4 * AP + ACC           /* key lists */
                         + m + 5 * n                           /* eid/mv lists */
                         + 2 * n + m + n                       /* fp/esz/need/dirty lists */
                         + 2 * (n + 1));                       /* heap */
    size_t ns = (size_t)(7 * P + CC + 5 * AP + ACC + 2 * m + 5 * n); /* stamps */
    s->block = PyMem_Calloc(nd + nl + ns, sizeof(double));
    if (s->block == NULL) { PyErr_NoMemory(); return -1; }

    double *dp = (double *)s->block;
    s->dc = dp; dp += P;
    s->di = dp; dp += P;
    s->dout = dp; dp += P;
    s->db = dp; dp += P;
    s->dl = dp; dp += CC;
    s->adc = dp; dp += AP;
    s->adi = dp; dp += AP;
    s->adout = dp; dp += AP;
    s->adl = dp; dp += ACC;
    s->esz_new = dp; dp += m;
    s->need_new = dp; dp += n;

    long *lp = (long *)dp;
    s->ddi = lp; lp += P;
    s->ddp = lp; lp += P;
    s->dln = lp; lp += CC;
    s->adln = lp; lp += ACC;
    s->dc_list = lp; lp += P;
    s->di_list = lp; lp += P;
    s->dout_list = lp; lp += P;
    s->db_list = lp; lp += P;
    s->ddi_list = lp; lp += P;
    s->ddp_list = lp; lp += P;
    s->t_list = lp; lp += P;
    s->dl_list = lp; lp += CC;
    s->adc_list = lp; lp += AP;
    s->adi_list = lp; lp += AP;
    s->adout_list = lp; lp += AP;
    s->adl_list = lp; lp += ACC;
    s->ta_list = lp; lp += AP;
    s->eid_list = lp; lp += m;
    s->mv_t = lp; lp += n;
    s->mv_p = lp; lp += n;
    s->mv_new = lp; lp += n;
    s->fp_new = lp; lp += n;
    s->fp_list = lp; lp += n;
    s->esz_list = lp; lp += m;
    s->need_list = lp; lp += n;
    s->dirty_list = lp; lp += n;
    s->heap_topo = lp; lp += n + 1;
    s->heap_tid = lp; lp += n + 1;

    unsigned long *sp = (unsigned long *)lp;
    s->s_dc = sp; sp += P;
    s->s_di = sp; sp += P;
    s->s_dout = sp; sp += P;
    s->s_db = sp; sp += P;
    s->s_ddi = sp; sp += P;
    s->s_ddp = sp; sp += P;
    s->s_t = sp; sp += P;
    s->s_dl = sp; sp += CC;
    s->s_adc = sp; sp += AP;
    s->s_adi = sp; sp += AP;
    s->s_adout = sp; sp += AP;
    s->s_adl = sp; sp += ACC;
    s->s_ta = sp; sp += AP;
    s->s_eid = sp; sp += m;
    s->s_mv = sp; sp += n;
    s->s_fp = sp; sp += n;
    s->s_esz = sp; sp += m;
    s->s_need = sp; sp += n;
    s->s_dirty = sp; sp += n;
    s->s_queued = sp;
    s->gen = 0;
    return 0;
}

static void
scratch_free(Scratch *s)
{
    if (s->block) {
        PyMem_Free(s->block);
        s->block = NULL;
    }
}

/* Delta accumulators: first touch zeroes + records the key. */
#define DADD_F(pref, key, val)                                          \
    do {                                                                \
        long _k = (long)(key);                                          \
        if (s->s_##pref[_k] != g) {                                     \
            s->s_##pref[_k] = g;                                        \
            s->pref[_k] = 0.0;                                          \
            s->pref##_list[s->pref##_cnt++] = _k;                       \
        }                                                               \
        s->pref[_k] += (val);                                           \
    } while (0)

#define DADD_L(pref, key, val)                                          \
    do {                                                                \
        long _k = (long)(key);                                          \
        if (s->s_##pref[_k] != g) {                                     \
            s->s_##pref[_k] = g;                                        \
            s->pref[_k] = 0;                                            \
            s->pref##_list[s->pref##_cnt++] = _k;                       \
        }                                                               \
        s->pref[_k] += (val);                                           \
    } while (0)

/* Link deltas keep a byte total and an edge count at the same key, so
 * the count array rides the byte array's stamp + key list. */
#define DADD_LINK(pref, cpref, key, bytes, cnt)                         \
    do {                                                                \
        long _k = (long)(key);                                          \
        if (s->s_##pref[_k] != g) {                                     \
            s->s_##pref[_k] = g;                                        \
            s->pref[_k] = 0.0;                                          \
            s->cpref[_k] = 0;                                           \
            s->pref##_list[s->pref##_cnt++] = _k;                       \
        }                                                               \
        s->pref[_k] += (bytes);                                         \
        s->cpref[_k] += (cnt);                                          \
    } while (0)

#define NEWPE(t) (s->s_mv[(t)] == g ? s->mv_new[(t)] : LI(c->pe, (t)))

/* ---------------------------------------------------------------- */
/* firstPeriod worklist (binary min-heap on topo index)              */

static void
heap_push(Scratch *s, long topo, long tid)
{
    Py_ssize_t i = s->heap_len++;
    while (i > 0) {
        Py_ssize_t par = (i - 1) / 2;
        if (s->heap_topo[par] <= topo)
            break;
        s->heap_topo[i] = s->heap_topo[par];
        s->heap_tid[i] = s->heap_tid[par];
        i = par;
    }
    s->heap_topo[i] = topo;
    s->heap_tid[i] = tid;
}

static long
heap_pop(Scratch *s)
{
    long out = s->heap_tid[0];
    Py_ssize_t len = --s->heap_len;
    if (len > 0) {
        long topo = s->heap_topo[len], tid = s->heap_tid[len];
        Py_ssize_t i = 0;
        for (;;) {
            Py_ssize_t l = 2 * i + 1, r = l + 1, small = i;
            long best = topo;
            if (l < len && s->heap_topo[l] < best) {
                small = l;
                best = s->heap_topo[l];
            }
            if (r < len && s->heap_topo[r] < best)
                small = r;
            if (small == i)
                break;
            s->heap_topo[i] = s->heap_topo[small];
            s->heap_tid[i] = s->heap_tid[small];
            i = small;
        }
        s->heap_topo[i] = topo;
        s->heap_tid[i] = tid;
    }
    return out;
}

static inline void
push_task(const Ctx *c, Scratch *s, unsigned long g, long t)
{
    if (s->s_queued[t] == g)
        return;
    s->s_queued[t] = g;
    heap_push(s, LI(c->topo, t), t);
}

/* ---------------------------------------------------------------- */
/* _buffer_model + _buffer_d_buf: mapping-dependent buffer updates  */

static void
buffer_deltas(const Ctx *c, Scratch *s)
{
    unsigned long g = s->gen;

    /* 1. propagate firstPeriod changes (elision only) */
    if (c->elide) {
        s->heap_len = 0;
        for (Py_ssize_t i = 0; i < s->mv_cnt; i++) {
            long t = s->mv_t[i];
            push_task(c, s, g, t);
            long lo = LI(c->out_ptr, t), hi = LI(c->out_ptr, t + 1);
            for (long k = lo; k < hi; k++)
                push_task(c, s, g, LI(c->out_dst, k));
        }
        while (s->heap_len) {
            long t = heap_pop(s);
            long lo = LI(c->in_ptr, t), hi = LI(c->in_ptr, t + 1);
            long value;
            if (lo == hi) {
                value = 0;
            } else {
                long pe = NEWPE(t);
                long best = -1;
                for (long k = lo; k < hi; k++) {
                    long p = LI(c->in_src, k);
                    long fpp = (s->s_fp[p] == g) ? s->fp_new[p]
                                                 : LI(c->fp, p);
                    long cand = fpp + 1 + ((NEWPE(p) == pe) ? 0 : 1);
                    if (cand > best)
                        best = cand;
                }
                value = best + LI(c->peek, t);
            }
            if (value != LI(c->fp, t)) {
                if (s->s_fp[t] != g) {
                    s->s_fp[t] = g;
                    s->fp_list[s->fp_cnt++] = t;
                }
                s->fp_new[t] = value;
                long olo = LI(c->out_ptr, t), ohi = LI(c->out_ptr, t + 1);
                for (long k = olo; k < ohi; k++)
                    push_task(c, s, g, LI(c->out_dst, k));
            }
        }
    }

    /* 2. edge buffer sizes that change */
    for (Py_ssize_t i = 0; i < s->fp_cnt; i++) {
        long t = s->fp_list[i];
        long lo = LI(c->inc_ptr, t), hi = LI(c->inc_ptr, t + 1);
        for (long k = lo; k < hi; k++) {
            long e = LI(c->inc_eid, k);
            if (s->s_esz[e] == g)
                continue;
            long u = LI(c->edge_src, e), v = LI(c->edge_dst, e);
            long fpu = (s->s_fp[u] == g) ? s->fp_new[u] : LI(c->fp, u);
            long fpv = (s->s_fp[v] == g) ? s->fp_new[v] : LI(c->fp, v);
            double size = LD(c->edge_data, e) * (double)(fpv - fpu);
            if (size != LD(c->esize, e)) {
                s->s_esz[e] = g;
                s->esz_new[e] = size;
                s->esz_list[s->esz_cnt++] = e;
            }
        }
    }

    /* 3. per-task footprints to recompute */
#define DIRTY(tid)                                                      \
    do {                                                                \
        long _t = (tid);                                                \
        if (s->s_dirty[_t] != g) {                                      \
            s->s_dirty[_t] = g;                                         \
            s->dirty_list[s->dirty_cnt++] = _t;                         \
        }                                                               \
    } while (0)
    for (Py_ssize_t i = 0; i < s->esz_cnt; i++) {
        long e = s->esz_list[i];
        DIRTY(LI(c->edge_src, e));
        DIRTY(LI(c->edge_dst, e));
    }
    if (c->merge) {
        for (Py_ssize_t i = 0; i < s->mv_cnt; i++) {
            long t = s->mv_t[i];
            DIRTY(t);
            long lo = LI(c->out_ptr, t), hi = LI(c->out_ptr, t + 1);
            for (long k = lo; k < hi; k++)
                DIRTY(LI(c->out_dst, k));
        }
    }
#undef DIRTY
    for (Py_ssize_t i = 0; i < s->dirty_cnt; i++) {
        long t = s->dirty_list[i];
        /* buffer_requirements accumulation order: incident edges in
         * global edge order, producer side always counted, consumer
         * side skipped when merged. */
        double total = 0.0;
        long lo = LI(c->inc_ptr, t), hi = LI(c->inc_ptr, t + 1);
        for (long k = lo; k < hi; k++) {
            long e = LI(c->inc_eid, k);
            double size = (s->s_esz[e] == g) ? s->esz_new[e]
                                             : LD(c->esize, e);
            long u = LI(c->edge_src, e);
            if (t != u) {
                if (c->merge && NEWPE(u) == NEWPE(LI(c->edge_dst, e)))
                    continue;
            }
            total += size;
        }
        if (total != LD(c->need, t)) {
            s->s_need[t] = g;
            s->need_new[t] = total;
            s->need_list[s->need_cnt++] = t;
        }
    }

    /* 4. per-SPE buffer deltas */
    for (Py_ssize_t i = 0; i < s->mv_cnt; i++) {
        long t = s->mv_t[i], pe = s->mv_p[i];
        long old_pe = LI(c->pe, t);
        double old_need = LD(c->need, t);
        if (c->is_spe[old_pe])
            DADD_F(db, old_pe, -old_need);
        if (c->is_spe[pe]) {
            double nn = (s->s_need[t] == g) ? s->need_new[t] : old_need;
            DADD_F(db, pe, nn);
        }
    }
    for (Py_ssize_t i = 0; i < s->need_cnt; i++) {
        long t = s->need_list[i];
        if (s->s_mv[t] == g)
            continue;
        long pe = LI(c->pe, t);
        if (c->is_spe[pe])
            DADD_F(db, pe, s->need_new[t] - LD(c->need, t));
    }
}

/* ---------------------------------------------------------------- */
/* _deltas_ids: per-resource deltas for a validated move set         */

static void
compute_deltas(const Ctx *c, Scratch *s, Py_ssize_t nm,
               const long *mv_t, const long *mv_p)
{
    unsigned long g = ++s->gen;
    s->dc_cnt = s->di_cnt = s->dout_cnt = s->db_cnt = 0;
    s->ddi_cnt = s->ddp_cnt = s->t_cnt = s->dl_cnt = 0;
    s->adc_cnt = s->adi_cnt = s->adout_cnt = s->adl_cnt = s->ta_cnt = 0;
    s->eid_cnt = s->fp_cnt = s->esz_cnt = s->need_cnt = s->dirty_cnt = 0;
    s->mv_cnt = nm;
    int track_app = (c->app_index != Py_None);

    if (mv_t != s->mv_t) {
        memcpy(s->mv_t, mv_t, (size_t)nm * sizeof(long));
        memcpy(s->mv_p, mv_p, (size_t)nm * sizeof(long));
    }
    for (Py_ssize_t i = 0; i < nm; i++) {
        s->s_mv[s->mv_t[i]] = g;
        s->mv_new[s->mv_t[i]] = s->mv_p[i];
    }

    for (Py_ssize_t i = 0; i < nm; i++) {
        long t = s->mv_t[i], new_pe = s->mv_p[i];
        long old_pe = LI(c->pe, t);
        double old_cost = c->is_ppe[old_pe] ? LD(c->wppe, t)
                                            : LD(c->wspe, t);
        double new_cost = c->is_ppe[new_pe] ? LD(c->wppe, t)
                                            : LD(c->wspe, t);
        double rd = LD(c->read, t), wr = LD(c->write, t);
        DADD_F(dc, old_pe, -old_cost);
        DADD_F(dc, new_pe, new_cost);
        DADD_F(di, old_pe, -rd);
        DADD_F(di, new_pe, rd);
        DADD_F(dout, old_pe, -wr);
        DADD_F(dout, new_pe, wr);
        if (track_app) {
            long a = LI(c->app_index, t);
            DADD_F(adc, a * c->P + old_pe, -old_cost);
            DADD_F(adc, a * c->P + new_pe, new_cost);
            DADD_F(adi, a * c->P + old_pe, -rd);
            DADD_F(adi, a * c->P + new_pe, rd);
            DADD_F(adout, a * c->P + old_pe, -wr);
            DADD_F(adout, a * c->P + new_pe, wr);
        }
        if (!c->mapping_dependent) {
            double need = LD(c->need, t);
            if (c->is_spe[old_pe])
                DADD_F(db, old_pe, -need);
            if (c->is_spe[new_pe])
                DADD_F(db, new_pe, need);
        }
        long lo = LI(c->in_ptr, t), hi = LI(c->in_ptr, t + 1);
        for (long k = lo; k < hi; k++) {
            long e = LI(c->in_eid, k);
            if (s->s_eid[e] != g) {
                s->s_eid[e] = g;
                s->eid_list[s->eid_cnt++] = e;
            }
        }
        lo = LI(c->out_ptr, t);
        hi = LI(c->out_ptr, t + 1);
        for (long k = lo; k < hi; k++) {
            long e = LI(c->out_eid, k);
            if (s->s_eid[e] != g) {
                s->s_eid[e] = g;
                s->eid_list[s->eid_cnt++] = e;
            }
        }
    }

    for (Py_ssize_t i = 0; i < s->eid_cnt; i++) {
        long e = s->eid_list[i];
        long u = LI(c->edge_src, e), v = LI(c->edge_dst, e);
        double data = LD(c->edge_data, e);
        long old_u = LI(c->pe, u), old_v = LI(c->pe, v);
        long new_u = (s->s_mv[u] == g) ? s->mv_new[u] : old_u;
        long new_v = (s->s_mv[v] == g) ? s->mv_new[v] : old_v;
        long a = track_app ? LI(c->app_index, u) : 0;
        if (old_u != old_v) { /* retract the old cross-PE contribution */
            DADD_F(dout, old_u, -data);
            DADD_F(di, old_v, -data);
            if (track_app) {
                DADD_F(adout, a * c->P + old_u, -data);
                DADD_F(adi, a * c->P + old_v, -data);
            }
            if (c->is_spe[old_v])
                DADD_L(ddi, old_v, -1);
            if (c->is_spe[old_u] && c->is_ppe[old_v])
                DADD_L(ddp, old_u, -1);
            if (c->multi && c->cell[old_u] != c->cell[old_v]) {
                long cc = c->cell[old_u] * c->n_cells + c->cell[old_v];
                DADD_LINK(dl, dln, cc, -data, -1);
                if (track_app)
                    DADD_LINK(adl, adln, a * c->CC + cc, -data, -1);
            }
        }
        if (new_u != new_v) { /* add the new cross-PE contribution */
            DADD_F(dout, new_u, data);
            DADD_F(di, new_v, data);
            if (track_app) {
                DADD_F(adout, a * c->P + new_u, data);
                DADD_F(adi, a * c->P + new_v, data);
            }
            if (c->is_spe[new_v])
                DADD_L(ddi, new_v, 1);
            if (c->is_spe[new_u] && c->is_ppe[new_v])
                DADD_L(ddp, new_u, 1);
            if (c->multi && c->cell[new_u] != c->cell[new_v]) {
                long cc = c->cell[new_u] * c->n_cells + c->cell[new_v];
                DADD_LINK(dl, dln, cc, data, 1);
                if (track_app)
                    DADD_LINK(adl, adln, a * c->CC + cc, data, 1);
            }
        }
    }

    if (c->mapping_dependent)
        buffer_deltas(c, s);

    /* touched = union of the d_compute/d_in/d_out key sets */
    for (Py_ssize_t i = 0; i < s->dc_cnt; i++) {
        long pe = s->dc_list[i];
        if (s->s_t[pe] != g) { s->s_t[pe] = g; s->t_list[s->t_cnt++] = pe; }
    }
    for (Py_ssize_t i = 0; i < s->di_cnt; i++) {
        long pe = s->di_list[i];
        if (s->s_t[pe] != g) { s->s_t[pe] = g; s->t_list[s->t_cnt++] = pe; }
    }
    for (Py_ssize_t i = 0; i < s->dout_cnt; i++) {
        long pe = s->dout_list[i];
        if (s->s_t[pe] != g) { s->s_t[pe] = g; s->t_list[s->t_cnt++] = pe; }
    }
}

/* ---------------------------------------------------------------- */
/* _judge / _violation_shift                                         */

static long
violation_shift(const Ctx *c, const Scratch *s)
{
    long shift = 0;
    for (Py_ssize_t i = 0; i < s->db_cnt; i++) {
        long spe = s->db_list[i];
        double old = c->buf_d[spe];
        shift += ((old + s->db[spe]) > c->budget) - (old > c->budget);
    }
    for (Py_ssize_t i = 0; i < s->ddi_cnt; i++) {
        long spe = s->ddi_list[i];
        long old = c->dmain_d[spe];
        shift += ((old + s->ddi[spe]) > c->in_slots) - (old > c->in_slots);
    }
    for (Py_ssize_t i = 0; i < s->ddp_cnt; i++) {
        long spe = s->ddp_list[i];
        long old = c->dproxy_d[spe];
        shift += ((old + s->ddp[spe]) > c->proxy_slots) -
                 (old > c->proxy_slots);
    }
    return shift;
}

static double
score_period(const Ctx *c, const Scratch *s)
{
    unsigned long g = s->gen;
    double bw = c->bw, worst = 0.0;
    for (Py_ssize_t pe = 0; pe < c->P; pe++) {
        double value;
        if (s->s_t[pe] == g) {
            value = LD(c->compute, pe) +
                    (s->s_dc[pe] == g ? s->dc[pe] : 0.0);
            double comm = (LD(c->in_bytes, pe) +
                           (s->s_di[pe] == g ? s->di[pe] : 0.0)) / bw;
            if (comm > value)
                value = comm;
            comm = (LD(c->out_bytes, pe) +
                    (s->s_dout[pe] == g ? s->dout[pe] : 0.0)) / bw;
            if (comm > value)
                value = comm;
        } else {
            value = LD(c->peak, pe);
        }
        if (value > worst)
            worst = value;
    }
    if (c->multi) {
        for (Py_ssize_t i = 0; i < s->dl_cnt; i++) {
            long cc = s->dl_list[i];
            double base = c->lb_has[cc] ? c->lb_d[cc] : 0.0;
            double time = (base + s->dl[cc]) / c->bif_bw;
            if (time > worst)
                worst = time;
        }
        for (Py_ssize_t i = 0; i < c->lb_cnt; i++) {
            long cc = c->lb_list[i];
            if (s->s_dl[cc] == g)
                continue;
            double time = c->lb_d[cc] / c->bif_bw;
            if (time > worst)
                worst = time;
        }
    }
    return worst;
}

/* period() of the unchanged state (origin candidates in a sweep) */
static double
current_period(const Ctx *c)
{
    double worst = LD(c->peak, 0);
    for (Py_ssize_t pe = 1; pe < c->P; pe++) {
        double v = LD(c->peak, pe);
        if (v > worst)
            worst = v;
    }
    if (c->multi) {
        for (Py_ssize_t i = 0; i < c->lb_cnt; i++) {
            double time = c->lb_d[c->lb_list[i]] / c->bif_bw;
            if (time > worst)
                worst = time;
        }
    }
    return worst;
}

/* ---------------------------------------------------------------- */
/* _apply                                                            */

static int
dict_add_f(PyObject *dict, PyObject *key, double dv)
{
    PyObject *old = PyDict_GetItemWithError(dict, key);
    if (old == NULL && PyErr_Occurred())
        return -1;
    PyObject *val = PyFloat_FromDouble((old ? as_d(old) : 0.0) + dv);
    if (val == NULL)
        return -1;
    int rc = PyDict_SetItem(dict, key, val);
    Py_DECREF(val);
    return rc;
}

static int
dict_add_l(PyObject *dict, PyObject *key, long dv)
{
    PyObject *old = PyDict_GetItemWithError(dict, key);
    if (old == NULL && PyErr_Occurred())
        return -1;
    PyObject *val = PyLong_FromLong((old ? as_l(old) : 0) + dv);
    if (val == NULL)
        return -1;
    int rc = PyDict_SetItem(dict, key, val);
    Py_DECREF(val);
    return rc;
}

static int
dict_pop(PyObject *dict, PyObject *key)
{
    int has = PyDict_Contains(dict, key);
    if (has < 0)
        return -1;
    if (has)
        return PyDict_DelItem(dict, key);
    return 0;
}

static int
apply_deltas(Ctx *c, Scratch *s, long shift)
{
    unsigned long g = s->gen;
    PyObject *az = c->az;

    /* _state_version += 1; _n_violations += shift */
    {
        PyObject *tmp = PyObject_GetAttr(az, S__state_version);
        if (tmp == NULL)
            return -1;
        long ver = as_l(tmp);
        Py_DECREF(tmp);
        tmp = PyLong_FromLong(ver + 1);
        if (tmp == NULL || PyObject_SetAttr(az, S__state_version, tmp) < 0) {
            Py_XDECREF(tmp);
            return -1;
        }
        Py_DECREF(tmp);
        c->n_violations += shift;
        tmp = PyLong_FromLong(c->n_violations);
        if (tmp == NULL || PyObject_SetAttr(az, S__n_violations, tmp) < 0) {
            Py_XDECREF(tmp);
            return -1;
        }
        Py_DECREF(tmp);
    }

    for (Py_ssize_t i = 0; i < s->mv_cnt; i++) {
        long t = s->mv_t[i], pe = s->mv_p[i];
        long old_pe = LI(c->pe, t);
        PyObject *tid = PyLong_FromLong(t);
        if (tid == NULL)
            return -1;
        if (PySet_Discard(GI(c->members, old_pe), tid) < 0 ||
            PySet_Add(GI(c->members, pe), tid) < 0) {
            Py_DECREF(tid);
            return -1;
        }
        Py_DECREF(tid);
        if (set_l(c->pe, t, pe) < 0)
            return -1;
    }

    if (c->mapping_dependent) {
        for (Py_ssize_t i = 0; i < s->fp_cnt; i++) {
            long t = s->fp_list[i];
            if (set_l(c->fp, t, s->fp_new[t]) < 0)
                return -1;
        }
        for (Py_ssize_t i = 0; i < s->esz_cnt; i++) {
            long e = s->esz_list[i];
            if (set_f(c->esize, e, s->esz_new[e]) < 0)
                return -1;
        }
        for (Py_ssize_t i = 0; i < s->need_cnt; i++) {
            long t = s->need_list[i];
            if (set_f(c->need, t, s->need_new[t]) < 0)
                return -1;
        }
    }

    for (Py_ssize_t i = 0; i < s->dc_cnt; i++) {
        long pe = s->dc_list[i];
        if (set_f(c->compute, pe, LD(c->compute, pe) + s->dc[pe]) < 0)
            return -1;
    }
    for (Py_ssize_t i = 0; i < s->di_cnt; i++) {
        long pe = s->di_list[i];
        if (set_f(c->in_bytes, pe, LD(c->in_bytes, pe) + s->di[pe]) < 0)
            return -1;
    }
    for (Py_ssize_t i = 0; i < s->dout_cnt; i++) {
        long pe = s->dout_list[i];
        if (set_f(c->out_bytes, pe, LD(c->out_bytes, pe) + s->dout[pe]) < 0)
            return -1;
    }
    for (Py_ssize_t i = 0; i < s->db_cnt; i++) {
        long spe = s->db_list[i];
        PyObject *key = PyLong_FromLong(spe);
        if (key == NULL)
            return -1;
        int rc = dict_add_f(c->buffer, key, s->db[spe]);
        Py_DECREF(key);
        if (rc < 0)
            return -1;
    }
    for (Py_ssize_t i = 0; i < s->ddi_cnt; i++) {
        long spe = s->ddi_list[i];
        PyObject *key = PyLong_FromLong(spe);
        if (key == NULL)
            return -1;
        int rc = dict_add_l(c->dma_in, key, s->ddi[spe]);
        Py_DECREF(key);
        if (rc < 0)
            return -1;
    }
    for (Py_ssize_t i = 0; i < s->ddp_cnt; i++) {
        long spe = s->ddp_list[i];
        PyObject *key = PyLong_FromLong(spe);
        if (key == NULL)
            return -1;
        int rc = dict_add_l(c->dma_proxy, key, s->ddp[spe]);
        Py_DECREF(key);
        if (rc < 0)
            return -1;
    }
    for (Py_ssize_t i = 0; i < s->dl_cnt; i++) {
        long cc = s->dl_list[i];
        PyObject *key = Py_BuildValue("(ll)", cc / c->n_cells,
                                      cc % c->n_cells);
        if (key == NULL)
            return -1;
        PyObject *old = PyDict_GetItemWithError(c->link_count, key);
        if (old == NULL && PyErr_Occurred()) {
            Py_DECREF(key);
            return -1;
        }
        long count = (old ? as_l(old) : 0) + s->dln[cc];
        int rc;
        if (count) {
            PyObject *val = PyLong_FromLong(count);
            rc = (val == NULL) ? -1
                               : PyDict_SetItem(c->link_count, key, val);
            Py_XDECREF(val);
            if (rc == 0)
                rc = dict_add_f(c->link_bytes, key, s->dl[cc]);
        } else { /* no cross-cell edge left on this link direction */
            rc = dict_pop(c->link_count, key);
            if (rc == 0)
                rc = dict_pop(c->link_bytes, key);
        }
        Py_DECREF(key);
        if (rc < 0)
            return -1;
    }
    for (Py_ssize_t i = 0; i < s->t_cnt; i++) {
        long pe = s->t_list[i];
        double v = LD(c->compute, pe);
        double comm = LD(c->in_bytes, pe) / c->bw;
        if (comm > v)
            v = comm;
        comm = LD(c->out_bytes, pe) / c->bw;
        if (comm > v)
            v = comm;
        if (set_f(c->peak, pe, v) < 0)
            return -1;
    }

    if (c->app_index != Py_None) {
        for (Py_ssize_t i = 0; i < s->adc_cnt; i++) {
            long idx = s->adc_list[i], a = idx / c->P, pe = idx % c->P;
            PyObject *row = GI(c->app_compute, a);
            if (set_f(row, pe, LD(row, pe) + s->adc[idx]) < 0)
                return -1;
        }
        for (Py_ssize_t i = 0; i < s->adi_cnt; i++) {
            long idx = s->adi_list[i], a = idx / c->P, pe = idx % c->P;
            PyObject *row = GI(c->app_in, a);
            if (set_f(row, pe, LD(row, pe) + s->adi[idx]) < 0)
                return -1;
        }
        for (Py_ssize_t i = 0; i < s->adout_cnt; i++) {
            long idx = s->adout_list[i], a = idx / c->P, pe = idx % c->P;
            PyObject *row = GI(c->app_out, a);
            if (set_f(row, pe, LD(row, pe) + s->adout[idx]) < 0)
                return -1;
        }
        for (Py_ssize_t i = 0; i < s->adl_cnt; i++) {
            long idx = s->adl_list[i], a = idx / c->CC, cc = idx % c->CC;
            PyObject *key = Py_BuildValue("(l(ll))", a, cc / c->n_cells,
                                          cc % c->n_cells);
            if (key == NULL)
                return -1;
            PyObject *old =
                PyDict_GetItemWithError(c->app_link_count, key);
            if (old == NULL && PyErr_Occurred()) {
                Py_DECREF(key);
                return -1;
            }
            long count = (old ? as_l(old) : 0) + s->adln[idx];
            int rc;
            if (count) {
                PyObject *val = PyLong_FromLong(count);
                rc = (val == NULL)
                         ? -1
                         : PyDict_SetItem(c->app_link_count, key, val);
                Py_XDECREF(val);
                if (rc == 0)
                    rc = dict_add_f(c->app_link_bytes, key, s->adl[idx]);
            } else {
                rc = dict_pop(c->app_link_count, key);
                if (rc == 0)
                    rc = dict_pop(c->app_link_bytes, key);
            }
            Py_DECREF(key);
            if (rc < 0)
                return -1;
        }
        /* touched (a, pe) pairs: union of the three app delta key sets */
        s->ta_cnt = 0;
        for (Py_ssize_t i = 0; i < s->adc_cnt; i++) {
            long idx = s->adc_list[i];
            if (s->s_ta[idx] != g) {
                s->s_ta[idx] = g;
                s->ta_list[s->ta_cnt++] = idx;
            }
        }
        for (Py_ssize_t i = 0; i < s->adi_cnt; i++) {
            long idx = s->adi_list[i];
            if (s->s_ta[idx] != g) {
                s->s_ta[idx] = g;
                s->ta_list[s->ta_cnt++] = idx;
            }
        }
        for (Py_ssize_t i = 0; i < s->adout_cnt; i++) {
            long idx = s->adout_list[i];
            if (s->s_ta[idx] != g) {
                s->s_ta[idx] = g;
                s->ta_list[s->ta_cnt++] = idx;
            }
        }
        for (Py_ssize_t i = 0; i < s->ta_cnt; i++) {
            long idx = s->ta_list[i], a = idx / c->P, pe = idx % c->P;
            double v = LD(GI(c->app_compute, a), pe);
            double comm = LD(GI(c->app_in, a), pe) / c->bw;
            if (comm > v)
                v = comm;
            comm = LD(GI(c->app_out, a), pe) / c->bw;
            if (comm > v)
                v = comm;
            if (set_f(GI(c->app_peak, a), pe, v) < 0)
                return -1;
        }
    }
    return 0;
}

/* ---------------------------------------------------------------- */
/* Entry points                                                      */

#define MODE_SCORE 1
#define MODE_APPLY 2
#define MODE_APPLY_IF_FEASIBLE 4

/* eval_changes(analyzer, moved, mode) -> (period | None, nviol, applied)
 *
 * `moved` is the non-empty, pre-validated tid -> PE dict _to_moved
 * builds (every entry changes PE).  MODE_SCORE computes the candidate
 * period; MODE_APPLY commits unconditionally; MODE_APPLY_IF_FEASIBLE
 * commits only when the candidate has zero violations. */
static PyObject *
ck_eval_changes(PyObject *self, PyObject *args)
{
    PyObject *az, *moved;
    int mode;
    if (!PyArg_ParseTuple(args, "OO!i", &az, &PyDict_Type, &moved, &mode))
        return NULL;

    Ctx c;
    Scratch s;
    if (ctx_load(&c, az) < 0)
        return NULL;
    if (scratch_alloc(&s, &c) < 0) {
        ctx_clear(&c);
        return NULL;
    }

    PyObject *result = NULL;
    Py_ssize_t nm = 0, pos = 0;
    PyObject *key, *value;
    while (PyDict_Next(moved, &pos, &key, &value)) {
        s.mv_t[nm] = as_l(key);
        s.mv_p[nm] = as_l(value);
        nm++;
    }
    if (PyErr_Occurred() || nm == 0) {
        if (nm == 0)
            PyErr_SetString(PyExc_ValueError, "empty move set");
        goto done;
    }

    compute_deltas(&c, &s, nm, s.mv_t, s.mv_p);
    long shift = violation_shift(&c, &s);
    long nviol = c.n_violations + shift;
    double period = 0.0;
    int have_period = (mode & MODE_SCORE) != 0;
    if (have_period)
        period = score_period(&c, &s);

    int applied = 0;
    if ((mode & MODE_APPLY) ||
        ((mode & MODE_APPLY_IF_FEASIBLE) && nviol == 0)) {
        if (apply_deltas(&c, &s, shift) < 0)
            goto done;
        applied = 1;
    }

    if (have_period)
        result = Py_BuildValue("(dlO)", period, nviol,
                               applied ? Py_True : Py_False);
    else
        result = Py_BuildValue("(OlO)", Py_None, nviol,
                               applied ? Py_True : Py_False);
done:
    scratch_free(&s);
    ctx_clear(&c);
    return result;
}

/* sweep(analyzer, tid, pes) -> list[(period, nviol)]
 *
 * Mapping-dependent per-candidate move sweep: one (period, nviol)
 * verdict per target PE, entries whose target equals the task's
 * current PE holding the unchanged state's verdict — the native
 * _sweep_fallback. */
static PyObject *
ck_sweep(PyObject *self, PyObject *args)
{
    PyObject *az, *pes;
    long tid;
    if (!PyArg_ParseTuple(args, "OlO", &az, &tid, &pes))
        return NULL;

    Ctx c;
    Scratch s;
    if (ctx_load(&c, az) < 0)
        return NULL;
    if (scratch_alloc(&s, &c) < 0) {
        ctx_clear(&c);
        return NULL;
    }

    PyObject *result = NULL;
    PyObject *fast = PySequence_Fast(pes, "pes must be a sequence");
    if (fast == NULL)
        goto done;
    Py_ssize_t npes = PySequence_Fast_GET_SIZE(fast);
    result = PyList_New(npes);
    if (result == NULL)
        goto done_fast;

    long origin = LI(c.pe, tid);
    double cur_period = -1.0;
    for (Py_ssize_t j = 0; j < npes; j++) {
        long p = as_l(PySequence_Fast_GET_ITEM(fast, j));
        double period;
        long nviol;
        if (p == origin) {
            if (cur_period < 0.0)
                cur_period = current_period(&c);
            period = cur_period;
            nviol = c.n_violations;
        } else {
            long mv_t = tid, mv_p = p;
            compute_deltas(&c, &s, 1, &mv_t, &mv_p);
            period = score_period(&c, &s);
            nviol = c.n_violations + violation_shift(&c, &s);
        }
        PyObject *entry = Py_BuildValue("(dl)", period, nviol);
        if (entry == NULL) {
            Py_CLEAR(result);
            goto done_fast;
        }
        PyList_SET_ITEM(result, j, entry);
    }
    if (PyErr_Occurred())
        Py_CLEAR(result);
done_fast:
    Py_DECREF(fast);
done:
    scratch_free(&s);
    ctx_clear(&c);
    return result;
}

/* ---------------------------------------------------------------- */
/* rebuild(analyzer) -> None — native _rebuild accumulation.         */

static PyObject *
ck_rebuild(PyObject *self, PyObject *args)
{
    PyObject *az;
    if (!PyArg_ParseTuple(args, "O", &az))
        return NULL;

    Ctx c;
    if (ctx_load(&c, az) < 0)
        return NULL;

    PyObject *result = NULL;
    Py_ssize_t n = c.n, m = c.m, P = c.P, A = c.A, CC = c.CC;
    int track_app = (c.app_index != Py_None);

    PyObject *compute = NULL, *in_bytes = NULL, *out_bytes = NULL;
    PyObject *peak = NULL, *members = NULL;
    PyObject *buffer = NULL, *dma_in = NULL, *dma_proxy = NULL;
    PyObject *link_bytes = NULL, *link_count = NULL;
    PyObject *app_compute = NULL, *app_in = NULL, *app_out = NULL;
    PyObject *app_peak = NULL, *app_lb = NULL, *app_lc = NULL;
    PyObject *spes = NULL;

    size_t nd = (size_t)(3 * P + 3 * A * P + CC + A * CC + P);
    size_t nl = (size_t)(2 * P + 2 * CC + 2 * A * CC);
    double *blk = PyMem_Calloc(nd + nl, sizeof(double));
    if (blk == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    double *d_compute = blk;
    double *d_in = d_compute + P;
    double *d_out = d_in + P;
    double *d_buf = d_out + P;
    double *d_lb = d_buf + P;
    double *d_ac = d_lb + CC;
    double *d_ai = d_ac + A * P;
    double *d_ao = d_ai + A * P;
    double *d_alb = d_ao + A * P;
    long *l_dmain = (long *)(d_alb + A * CC);
    long *l_dproxy = l_dmain + P;
    long *l_lc = l_dproxy + P;
    long *l_lorder = l_lc + CC; /* first-touch order of link keys */
    long *l_alc = l_lorder + CC;
    long *l_alorder = l_alc + A * CC;
    Py_ssize_t lorder_cnt = 0, alorder_cnt = 0;

    members = PyList_New(P);
    if (members == NULL)
        goto fail;
    for (Py_ssize_t pe = 0; pe < P; pe++) {
        PyObject *st = PySet_New(NULL);
        if (st == NULL)
            goto fail;
        PyList_SET_ITEM(members, pe, st);
    }

    for (Py_ssize_t t = 0; t < n; t++) {
        long pe = LI(c.pe, t);
        PyObject *tid = PyLong_FromSsize_t(t);
        if (tid == NULL)
            goto fail;
        int rc = PySet_Add(GI(members, pe), tid);
        Py_DECREF(tid);
        if (rc < 0)
            goto fail;
        double cost = c.is_ppe[pe] ? LD(c.wppe, t) : LD(c.wspe, t);
        d_compute[pe] += cost;
        d_in[pe] += LD(c.read, t);
        d_out[pe] += LD(c.write, t);
        if (track_app) {
            long a = LI(c.app_index, t);
            d_ac[a * P + pe] += cost;
            d_ai[a * P + pe] += LD(c.read, t);
            d_ao[a * P + pe] += LD(c.write, t);
        }
    }

    for (Py_ssize_t e = 0; e < m; e++) {
        long u = LI(c.edge_src, e), v = LI(c.edge_dst, e);
        long src_pe = LI(c.pe, u), dst_pe = LI(c.pe, v);
        if (src_pe == dst_pe)
            continue;
        double data = LD(c.edge_data, e);
        d_out[src_pe] += data;
        d_in[dst_pe] += data;
        if (track_app) {
            long a = LI(c.app_index, u);
            d_ao[a * P + src_pe] += data;
            d_ai[a * P + dst_pe] += data;
        }
        if (c.is_spe[dst_pe])
            l_dmain[dst_pe] += 1;
        if (c.is_spe[src_pe] && c.is_ppe[dst_pe])
            l_dproxy[src_pe] += 1;
        if (c.multi && c.cell[src_pe] != c.cell[dst_pe]) {
            long cc = c.cell[src_pe] * c.n_cells + c.cell[dst_pe];
            if (l_lc[cc] == 0)
                l_lorder[lorder_cnt++] = cc;
            d_lb[cc] += data;
            l_lc[cc] += 1;
            if (track_app) {
                long a = LI(c.app_index, u);
                long acc = a * CC + cc;
                if (l_alc[acc] == 0)
                    l_alorder[alorder_cnt++] = acc;
                d_alb[acc] += data;
                l_alc[acc] += 1;
            }
        }
    }

    /* buffer bytes per SPE, in task order (same accumulation order) */
    for (Py_ssize_t t = 0; t < n; t++) {
        long pe = LI(c.pe, t);
        if (c.is_spe[pe])
            d_buf[pe] += LD(c.need, t);
    }

    compute = PyList_New(P);
    in_bytes = PyList_New(P);
    out_bytes = PyList_New(P);
    peak = PyList_New(P);
    if (!compute || !in_bytes || !out_bytes || !peak)
        goto fail;
    for (Py_ssize_t pe = 0; pe < P; pe++) {
        double v = d_compute[pe];
        double comm = d_in[pe] / c.bw;
        if (comm > v)
            v = comm;
        comm = d_out[pe] / c.bw;
        if (comm > v)
            v = comm;
        PyObject *o;
        o = PyFloat_FromDouble(d_compute[pe]);
        if (o == NULL) goto fail;
        PyList_SET_ITEM(compute, pe, o);
        o = PyFloat_FromDouble(d_in[pe]);
        if (o == NULL) goto fail;
        PyList_SET_ITEM(in_bytes, pe, o);
        o = PyFloat_FromDouble(d_out[pe]);
        if (o == NULL) goto fail;
        PyList_SET_ITEM(out_bytes, pe, o);
        o = PyFloat_FromDouble(v);
        if (o == NULL) goto fail;
        PyList_SET_ITEM(peak, pe, o);
    }

    /* dicts keyed by SPE index, insertion order == platform.spe_indices */
    buffer = PyDict_New();
    dma_in = PyDict_New();
    dma_proxy = PyDict_New();
    if (!buffer || !dma_in || !dma_proxy)
        goto fail;
    {
        PyObject *spe_obj = PyObject_GetAttr(c.platform, S_spe_indices);
        if (spe_obj == NULL)
            goto fail;
        spes = PySequence_List(spe_obj);
        Py_DECREF(spe_obj);
        if (spes == NULL)
            goto fail;
    }
    long violations = 0;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(spes); i++) {
        long spe = LI(spes, i);
        PyObject *key = GI(spes, i);
        PyObject *val = PyFloat_FromDouble(d_buf[spe]);
        if (val == NULL || PyDict_SetItem(buffer, key, val) < 0) {
            Py_XDECREF(val);
            goto fail;
        }
        Py_DECREF(val);
        val = PyLong_FromLong(l_dmain[spe]);
        if (val == NULL || PyDict_SetItem(dma_in, key, val) < 0) {
            Py_XDECREF(val);
            goto fail;
        }
        Py_DECREF(val);
        val = PyLong_FromLong(l_dproxy[spe]);
        if (val == NULL || PyDict_SetItem(dma_proxy, key, val) < 0) {
            Py_XDECREF(val);
            goto fail;
        }
        Py_DECREF(val);
        violations += d_buf[spe] > c.budget;
        violations += l_dmain[spe] > c.in_slots;
        violations += l_dproxy[spe] > c.proxy_slots;
    }

    link_bytes = PyDict_New();
    link_count = PyDict_New();
    if (!link_bytes || !link_count)
        goto fail;
    for (Py_ssize_t i = 0; i < lorder_cnt; i++) {
        long cc = l_lorder[i];
        PyObject *key = Py_BuildValue("(ll)", cc / c.n_cells,
                                      cc % c.n_cells);
        if (key == NULL)
            goto fail;
        PyObject *val = PyFloat_FromDouble(d_lb[cc]);
        int rc = (val == NULL) ? -1 : PyDict_SetItem(link_bytes, key, val);
        Py_XDECREF(val);
        if (rc == 0) {
            val = PyLong_FromLong(l_lc[cc]);
            rc = (val == NULL) ? -1 : PyDict_SetItem(link_count, key, val);
            Py_XDECREF(val);
        }
        Py_DECREF(key);
        if (rc < 0)
            goto fail;
    }

    if (track_app) {
        app_compute = PyList_New(A);
        app_in = PyList_New(A);
        app_out = PyList_New(A);
        app_peak = PyList_New(A);
        if (!app_compute || !app_in || !app_out || !app_peak)
            goto fail;
        for (Py_ssize_t a = 0; a < A; a++) {
            PyObject *rc_ = PyList_New(P), *ri = PyList_New(P);
            PyObject *ro = PyList_New(P), *rp = PyList_New(P);
            if (!rc_ || !ri || !ro || !rp) {
                Py_XDECREF(rc_); Py_XDECREF(ri);
                Py_XDECREF(ro); Py_XDECREF(rp);
                goto fail;
            }
            for (Py_ssize_t pe = 0; pe < P; pe++) {
                double ac = d_ac[a * P + pe];
                double ai = d_ai[a * P + pe];
                double ao = d_ao[a * P + pe];
                double v = ac;
                double comm = ai / c.bw;
                if (comm > v)
                    v = comm;
                comm = ao / c.bw;
                if (comm > v)
                    v = comm;
                PyList_SET_ITEM(rc_, pe, PyFloat_FromDouble(ac));
                PyList_SET_ITEM(ri, pe, PyFloat_FromDouble(ai));
                PyList_SET_ITEM(ro, pe, PyFloat_FromDouble(ao));
                PyList_SET_ITEM(rp, pe, PyFloat_FromDouble(v));
            }
            PyList_SET_ITEM(app_compute, a, rc_);
            PyList_SET_ITEM(app_in, a, ri);
            PyList_SET_ITEM(app_out, a, ro);
            PyList_SET_ITEM(app_peak, a, rp);
        }
        app_lb = PyDict_New();
        app_lc = PyDict_New();
        if (!app_lb || !app_lc)
            goto fail;
        for (Py_ssize_t i = 0; i < alorder_cnt; i++) {
            long acc = l_alorder[i], a = acc / CC, cc = acc % CC;
            PyObject *key = Py_BuildValue("(l(ll))", a, cc / c.n_cells,
                                          cc % c.n_cells);
            if (key == NULL)
                goto fail;
            PyObject *val = PyFloat_FromDouble(d_alb[acc]);
            int rc = (val == NULL) ? -1 : PyDict_SetItem(app_lb, key, val);
            Py_XDECREF(val);
            if (rc == 0) {
                val = PyLong_FromLong(l_alc[acc]);
                rc = (val == NULL) ? -1 : PyDict_SetItem(app_lc, key, val);
                Py_XDECREF(val);
            }
            Py_DECREF(key);
            if (rc < 0)
                goto fail;
        }
    }

    /* commit */
    if (PyObject_SetAttr(az, S__compute, compute) < 0 ||
        PyObject_SetAttr(az, S__in_bytes, in_bytes) < 0 ||
        PyObject_SetAttr(az, S__out_bytes, out_bytes) < 0 ||
        PyObject_SetAttr(az, S__peak, peak) < 0 ||
        PyObject_SetAttr(az, S__members, members) < 0 ||
        PyObject_SetAttr(az, S__buffer, buffer) < 0 ||
        PyObject_SetAttr(az, S__dma_in, dma_in) < 0 ||
        PyObject_SetAttr(az, S__dma_proxy, dma_proxy) < 0 ||
        PyObject_SetAttr(az, S__link_bytes, link_bytes) < 0 ||
        PyObject_SetAttr(az, S__link_count, link_count) < 0)
        goto fail;
    if (track_app) {
        if (PyObject_SetAttr(az, S__app_compute, app_compute) < 0 ||
            PyObject_SetAttr(az, S__app_in, app_in) < 0 ||
            PyObject_SetAttr(az, S__app_out, app_out) < 0 ||
            PyObject_SetAttr(az, S__app_peak, app_peak) < 0 ||
            PyObject_SetAttr(az, S__app_link_bytes, app_lb) < 0 ||
            PyObject_SetAttr(az, S__app_link_count, app_lc) < 0)
            goto fail;
    }
    {
        PyObject *nv = PyLong_FromLong(violations);
        if (nv == NULL || PyObject_SetAttr(az, S__n_violations, nv) < 0) {
            Py_XDECREF(nv);
            goto fail;
        }
        Py_DECREF(nv);
    }
    result = Py_None;
    Py_INCREF(result);
fail:
    Py_XDECREF(compute); Py_XDECREF(in_bytes); Py_XDECREF(out_bytes);
    Py_XDECREF(peak); Py_XDECREF(members);
    Py_XDECREF(buffer); Py_XDECREF(dma_in); Py_XDECREF(dma_proxy);
    Py_XDECREF(link_bytes); Py_XDECREF(link_count);
    Py_XDECREF(app_compute); Py_XDECREF(app_in); Py_XDECREF(app_out);
    Py_XDECREF(app_peak); Py_XDECREF(app_lb); Py_XDECREF(app_lc);
    Py_XDECREF(spes);
    if (blk)
        PyMem_Free(blk);
    ctx_clear(&c);
    return result;
}

/* ---------------------------------------------------------------- */

static PyMethodDef ck_methods[] = {
    {"eval_changes", ck_eval_changes, METH_VARARGS,
     "eval_changes(analyzer, moved, mode) -> (period|None, nviol, applied)"},
    {"sweep", ck_sweep, METH_VARARGS,
     "sweep(analyzer, tid, pes) -> [(period, nviol), ...]"},
    {"rebuild", ck_rebuild, METH_VARARGS,
     "rebuild(analyzer) -> None (native _rebuild accumulation)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ck_module = {
    PyModuleDef_HEAD_INIT,
    "repro.steady_state._ckernel",
    "Compiled kernel backend: native DeltaAnalyzer hot paths.",
    -1,
    ck_methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if (intern_names() < 0)
        return NULL;
    return PyModule_Create(&ck_module);
}
