/* _trace_kernel.c — the columnar trace walker.
 *
 * Replays the dynamic CFG walk of repro/cpu/workloads.py in C,
 * bit-exact against CPython's random.Random. The Python side builds the
 * static program (structure stream untouched) and transplants the
 * walk/data generators' raw MT19937 states via Random.getstate(); this
 * engine implements only the downstream draw shapes with exactly
 * CPython's arithmetic:
 *
 *   random()        two tempered words -> 53-bit double
 *                   (a >> 5) * 2^26 + (b >> 6), scaled by 2^-53
 *   randbelow(n)    k = n.bit_length(); r = getrandbits(k) until r < n,
 *                   where getrandbits(k <= 32) is one word >> (32 - k)
 *   geometric(m)    the inverse-CDF trial loop of DeterministicRng
 *                   (m == 1.0 draws nothing), 10M safety cap included
 *
 * Because the states are transplanted and every comparison runs on the
 * identical IEEE-754 doubles the Python walk would use, the emitted
 * stream is digest-identical to the reference walk — enforced by
 * tests/test_columnar.py, never assumed.
 *
 * Plain C99 + libc only (no Python.h), same contract as
 * _pipeline_kernel.c: the lazy ctypes build needs nothing beyond cc.
 *
 * Draw-order contract (mirrors _walk_trace, the reference walk):
 *   body op:     dep1 draw, second-source chance, [dep2 draw],
 *                [address roll (+offset draw) for load/store],
 *                [load-chain chance iff a load has retired]
 *   call:        dep1 draw (data stream)
 *   return:      block draw from the walk stream iff the stack is empty
 *   branch:      outcome (walk stream), [indirect target (walk)],
 *                then dep1 (data stream)
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---- MT19937 core (state transplanted from CPython) ---------------- */

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfU
#define MT_UPPER 0x80000000U
#define MT_LOWER 0x7fffffffU

typedef struct {
    uint32_t mt[MT_N];
    uint32_t idx;
} Mt;

static void mt_regen(Mt *s) {
    uint32_t *mt = s->mt;
    uint32_t y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & MT_UPPER) | (mt[kk + 1] & MT_LOWER);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ ((y & 1U) ? MT_MATRIX_A : 0U);
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & MT_UPPER) | (mt[kk + 1] & MT_LOWER);
        mt[kk] =
            mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ ((y & 1U) ? MT_MATRIX_A : 0U);
    }
    y = (mt[MT_N - 1] & MT_UPPER) | (mt[0] & MT_LOWER);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ ((y & 1U) ? MT_MATRIX_A : 0U);
    s->idx = 0;
}

static uint32_t mt_next(Mt *s) {
    uint32_t y;
    if (s->idx >= MT_N) mt_regen(s);
    y = s->mt[s->idx++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* CPython Random.random(). */
static double mt_random(Mt *s) {
    uint32_t a = mt_next(s) >> 5;
    uint32_t b = mt_next(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static int bit_length32(uint32_t n) {
#if defined(__GNUC__) || defined(__clang__)
    return 32 - __builtin_clz(n);
#else
    int k = 0;
    while (n) {
        k++;
        n >>= 1;
    }
    return k;
#endif
}

/* CPython Random._randbelow_with_getrandbits, for 1 <= n < 2^32. */
static uint32_t mt_randbelow(Mt *s, uint32_t n) {
    int shift = 32 - bit_length32(n);
    uint32_t r = mt_next(s) >> shift;
    while (r >= n) r = mt_next(s) >> shift;
    return r;
}

/* DeterministicRng.geometric: >= 1, mean == 1.0 draws nothing. */
static int64_t mt_geometric(Mt *s, double mean) {
    double success;
    int64_t value = 1;
    if (mean == 1.0) return 1;
    success = 1.0 / mean;
    while (!(mt_random(s) < success)) {
        value += 1;
        if (value > 10000000) break;
    }
    return value;
}

/* ---- configuration layout (mirrored by workloads.py) --------------- */

/* cfg_f indices */
enum {
    TF_FIRST_PROB = 0,
    TF_SECOND_PROB = 1,
    TF_DEP_MEAN = 2,
    TF_CHAIN_PROB = 3,
    TF_STACK_PROB = 4,
    TF_STACK_OR_STREAM = 5,
    TF_HOT_PROB = 6,
    TF_LEN = 7
};

/* cfg_i indices */
enum {
    TI_NUM_INSTR = 0,
    TI_MAIN_BLOCKS = 1,
    TI_STACK_SPAN = 2,
    TI_HOT_SPAN = 3,
    TI_HEAP_SPAN = 4,
    TI_STRIDE = 5,
    TI_STREAM_MOD = 6,
    TI_STACK_BASE = 7,
    TI_STREAM_BASE = 8,
    TI_HEAP_BASE = 9,
    TI_LEN = 10
};

/* OpClass values (IntEnum in repro/cpu/isa.py; stable by contract). */
enum {
    OP_LOAD = 2,
    OP_STORE = 3,
    OP_BRANCH = 4,
    OP_CALL = 5,
    OP_RETURN = 6
};

/* Terminator codes (workloads._TERM_*). */
enum { TERM_BRANCH = 0, TERM_CALL = 1, TERM_RETURN = 2 };

#define INDIRECT_TARGETS 6

/* ---- walk state ---------------------------------------------------- */

typedef struct {
    /* profile constants */
    double first_prob, second_prob, dep_mean, chain_prob;
    double stack_prob, stack_or_stream, hot_prob;
    int64_t num_instructions;
    int32_t main_blocks, nblocks;
    uint32_t stack_span1, hot_span1, heap_span1; /* randbelow args: span+1 */
    int64_t stride, stream_mod;
    int64_t stack_base, stream_base, heap_base;
    /* static program (owned copies) */
    int64_t *start_pc;
    int64_t *term_pc;
    uint8_t *terminator;
    int32_t *call_target;
    int32_t *body_off;
    int32_t *body_len;
    uint8_t *body_ops;
    uint8_t *br_is_loop;
    double *br_trip_mean;
    double *br_taken_prob;
    int64_t *br_fixed;
    int32_t *br_target;   /* mutable: indirect dispatch rewrites it */
    int32_t *br_indirect; /* nblocks * INDIRECT_TARGETS */
    uint8_t *br_has_ind;
    int64_t *br_trips_left; /* mutable loop state, starts at 0 */
    /* RNG streams */
    Mt walk, data;
    /* dynamic walk state */
    int64_t position;
    int32_t current;
    int32_t body_pos;
    int64_t last_load;
    int64_t stream_offset;
    int32_t *stack;
    int64_t stack_len, stack_cap;
} Walk;

static void *copy_block(const void *src, size_t bytes) {
    void *dst = malloc(bytes ? bytes : 1);
    if (dst && bytes) memcpy(dst, src, bytes);
    return dst;
}

static void mt_load(Mt *s, const uint32_t *state625) {
    memcpy(s->mt, state625, MT_N * sizeof(uint32_t));
    s->idx = state625[MT_N];
}

void repro_trace_destroy(void *handle) {
    Walk *w = (Walk *)handle;
    if (!w) return;
    free(w->start_pc);
    free(w->term_pc);
    free(w->terminator);
    free(w->call_target);
    free(w->body_off);
    free(w->body_len);
    free(w->body_ops);
    free(w->br_is_loop);
    free(w->br_trip_mean);
    free(w->br_taken_prob);
    free(w->br_fixed);
    free(w->br_target);
    free(w->br_indirect);
    free(w->br_has_ind);
    free(w->br_trips_left);
    free(w->stack);
    free(w);
}

void *repro_trace_create(
    const double *cfg_f, const int64_t *cfg_i,
    const uint32_t *mt_walk_state, const uint32_t *mt_data_state,
    int32_t nblocks,
    const int64_t *start_pc, const int64_t *term_pc,
    const uint8_t *terminator, const int32_t *call_target,
    const int32_t *body_off, const int32_t *body_len,
    const uint8_t *body_ops, int64_t body_total,
    const uint8_t *br_is_loop, const double *br_trip_mean,
    const int64_t *br_fixed, const double *br_taken_prob,
    const int32_t *br_target, const int32_t *br_indirect,
    const uint8_t *br_has_ind) {
    Walk *w = (Walk *)calloc(1, sizeof(Walk));
    if (!w) return NULL;

    w->first_prob = cfg_f[TF_FIRST_PROB];
    w->second_prob = cfg_f[TF_SECOND_PROB];
    w->dep_mean = cfg_f[TF_DEP_MEAN];
    w->chain_prob = cfg_f[TF_CHAIN_PROB];
    w->stack_prob = cfg_f[TF_STACK_PROB];
    w->stack_or_stream = cfg_f[TF_STACK_OR_STREAM];
    w->hot_prob = cfg_f[TF_HOT_PROB];

    w->num_instructions = cfg_i[TI_NUM_INSTR];
    w->main_blocks = (int32_t)cfg_i[TI_MAIN_BLOCKS];
    w->stack_span1 = (uint32_t)cfg_i[TI_STACK_SPAN] + 1U;
    w->hot_span1 = (uint32_t)cfg_i[TI_HOT_SPAN] + 1U;
    w->heap_span1 = (uint32_t)cfg_i[TI_HEAP_SPAN] + 1U;
    w->stride = cfg_i[TI_STRIDE];
    w->stream_mod = cfg_i[TI_STREAM_MOD];
    w->stack_base = cfg_i[TI_STACK_BASE];
    w->stream_base = cfg_i[TI_STREAM_BASE];
    w->heap_base = cfg_i[TI_HEAP_BASE];
    w->nblocks = nblocks;

    w->start_pc = (int64_t *)copy_block(start_pc, nblocks * sizeof(int64_t));
    w->term_pc = (int64_t *)copy_block(term_pc, nblocks * sizeof(int64_t));
    w->terminator =
        (uint8_t *)copy_block(terminator, nblocks * sizeof(uint8_t));
    w->call_target =
        (int32_t *)copy_block(call_target, nblocks * sizeof(int32_t));
    w->body_off = (int32_t *)copy_block(body_off, nblocks * sizeof(int32_t));
    w->body_len = (int32_t *)copy_block(body_len, nblocks * sizeof(int32_t));
    w->body_ops =
        (uint8_t *)copy_block(body_ops, (size_t)body_total * sizeof(uint8_t));
    w->br_is_loop =
        (uint8_t *)copy_block(br_is_loop, nblocks * sizeof(uint8_t));
    w->br_trip_mean =
        (double *)copy_block(br_trip_mean, nblocks * sizeof(double));
    w->br_taken_prob =
        (double *)copy_block(br_taken_prob, nblocks * sizeof(double));
    w->br_fixed = (int64_t *)copy_block(br_fixed, nblocks * sizeof(int64_t));
    w->br_target = (int32_t *)copy_block(br_target, nblocks * sizeof(int32_t));
    w->br_indirect = (int32_t *)copy_block(
        br_indirect, (size_t)nblocks * INDIRECT_TARGETS * sizeof(int32_t));
    w->br_has_ind =
        (uint8_t *)copy_block(br_has_ind, nblocks * sizeof(uint8_t));
    w->br_trips_left = (int64_t *)calloc(nblocks, sizeof(int64_t));

    w->stack_cap = 16;
    w->stack = (int32_t *)malloc(w->stack_cap * sizeof(int32_t));

    if (!w->start_pc || !w->term_pc || !w->terminator || !w->call_target ||
        !w->body_off || !w->body_len || !w->body_ops || !w->br_is_loop ||
        !w->br_trip_mean || !w->br_taken_prob || !w->br_fixed ||
        !w->br_target || !w->br_indirect || !w->br_has_ind ||
        !w->br_trips_left || !w->stack) {
        repro_trace_destroy(w);
        return NULL;
    }

    mt_load(&w->walk, mt_walk_state);
    mt_load(&w->data, mt_data_state);

    w->position = 0;
    w->current = 0;
    w->body_pos = 0;
    w->last_load = -1;
    w->stream_offset = 0;
    w->stack_len = 0;
    return w;
}

static int stack_push(Walk *w, int32_t block) {
    if (w->stack_len == w->stack_cap) {
        int64_t cap = w->stack_cap * 2;
        int32_t *grown =
            (int32_t *)realloc(w->stack, (size_t)cap * sizeof(int32_t));
        if (!grown) return -1;
        w->stack = grown;
        w->stack_cap = cap;
    }
    w->stack[w->stack_len++] = block;
    return 0;
}

static int64_t draw_dep(Walk *w, int64_t position) {
    int64_t distance;
    if (!(mt_random(&w->data) < w->first_prob)) return 0;
    distance = mt_geometric(&w->data, w->dep_mean);
    return distance < position ? distance : position;
}

static int64_t next_address(Walk *w) {
    double roll = mt_random(&w->data);
    int64_t address;
    if (roll < w->stack_prob) {
        return w->stack_base +
               ((int64_t)mt_randbelow(&w->data, w->stack_span1) &
                ~(int64_t)7);
    }
    if (roll < w->stack_or_stream) {
        address = w->stream_base + w->stream_offset;
        w->stream_offset = (w->stream_offset + w->stride) % w->stream_mod;
        return address;
    }
    if (mt_random(&w->data) < w->hot_prob) {
        return w->heap_base +
               ((int64_t)mt_randbelow(&w->data, w->hot_span1) & ~(int64_t)7);
    }
    return w->heap_base +
           ((int64_t)mt_randbelow(&w->data, w->heap_span1) & ~(int64_t)7);
}

/* Emit up to max_rows instructions into the column buffers. Returns the
 * number written (0 = trace complete), or -1 on allocation failure. The
 * walk pauses exactly where it stopped, so consecutive calls produce
 * one contiguous stream with boundaries wherever the caller put them.
 */
int64_t repro_trace_fill(void *handle, int64_t max_rows, uint8_t *op,
                         int64_t *pc, int64_t *dep1, int64_t *dep2,
                         int64_t *addr, uint8_t *taken, int64_t *target) {
    Walk *w = (Walk *)handle;
    int64_t rows = 0;
    while (rows < max_rows && w->position < w->num_instructions) {
        int32_t cur = w->current;
        if (w->body_pos < w->body_len[cur]) {
            int32_t bp = w->body_pos;
            uint8_t o = w->body_ops[w->body_off[cur] + bp];
            int64_t position = w->position;
            int64_t d1 = draw_dep(w, position);
            int64_t d2 = (mt_random(&w->data) < w->second_prob)
                             ? draw_dep(w, position)
                             : 0;
            int64_t address = 0;
            if (o == OP_LOAD) {
                address = next_address(w);
                if (w->last_load >= 0 &&
                    mt_random(&w->data) < w->chain_prob) {
                    d1 = position - w->last_load;
                }
                w->last_load = position;
            } else if (o == OP_STORE) {
                address = next_address(w);
            }
            op[rows] = o;
            pc[rows] = w->start_pc[cur] + 4 * (int64_t)bp;
            dep1[rows] = d1;
            dep2[rows] = d2;
            addr[rows] = address;
            taken[rows] = 0;
            target[rows] = 0;
            rows++;
            w->position++;
            w->body_pos++;
        } else if (w->terminator[cur] == TERM_CALL) {
            int32_t entry = w->call_target[cur];
            op[rows] = OP_CALL;
            pc[rows] = w->term_pc[cur];
            dep1[rows] = draw_dep(w, w->position);
            dep2[rows] = 0;
            addr[rows] = 0;
            taken[rows] = 1;
            target[rows] = w->start_pc[entry];
            rows++;
            w->position++;
            if (stack_push(w, (w->current + 1) % w->main_blocks)) return -1;
            w->current = entry;
            w->body_pos = 0;
        } else if (w->terminator[cur] == TERM_RETURN) {
            int32_t return_block;
            if (w->stack_len) {
                return_block = w->stack[--w->stack_len];
            } else {
                return_block = (int32_t)mt_randbelow(
                    &w->walk, (uint32_t)w->main_blocks);
            }
            op[rows] = OP_RETURN;
            pc[rows] = w->term_pc[cur];
            dep1[rows] = 0;
            dep2[rows] = 0;
            addr[rows] = 0;
            taken[rows] = 1;
            target[rows] = w->start_pc[return_block];
            rows++;
            w->position++;
            w->current = return_block;
            w->body_pos = 0;
        } else {
            uint8_t tk;
            int32_t next_block;
            if (w->br_is_loop[cur]) {
                if (w->br_trips_left[cur] == 0) {
                    if (w->br_fixed[cur]) {
                        w->br_trips_left[cur] = w->br_fixed[cur];
                    } else {
                        w->br_trips_left[cur] =
                            mt_geometric(&w->walk, w->br_trip_mean[cur]);
                    }
                }
                w->br_trips_left[cur] -= 1;
                tk = w->br_trips_left[cur] > 0;
            } else {
                tk = mt_random(&w->walk) < w->br_taken_prob[cur];
            }
            if (w->br_has_ind[cur] && tk) {
                w->br_target[cur] = w->br_indirect[
                    cur * INDIRECT_TARGETS +
                    mt_randbelow(&w->walk, INDIRECT_TARGETS)];
            }
            if (tk) {
                next_block = w->br_target[cur];
            } else {
                int32_t limit =
                    cur < w->main_blocks ? w->main_blocks : w->nblocks;
                next_block = cur + 1;
                if (next_block >= limit) {
                    next_block = cur < w->main_blocks ? 0 : cur;
                }
            }
            op[rows] = OP_BRANCH;
            pc[rows] = w->term_pc[cur];
            dep1[rows] = draw_dep(w, w->position);
            dep2[rows] = 0;
            addr[rows] = 0;
            taken[rows] = tk;
            target[rows] = w->start_pc[w->br_target[cur]];
            rows++;
            w->position++;
            w->current = next_block;
            w->body_pos = 0;
        }
    }
    return rows;
}
