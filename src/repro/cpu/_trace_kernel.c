/* _trace_kernel.c — the columnar trace walker.
 *
 * Builds the static program of repro/cpu/workloads.py and replays its
 * dynamic CFG walk in C, bit-exact against CPython's random.Random. The
 * Python side transplants the structure, walk and data generators' raw
 * MT19937 states via Random.getstate() and hands over the ordered
 * 512-op deck (its composition uses Python's round()); this engine
 * implements only the draw shapes with exactly CPython's arithmetic:
 *
 *   random()        two tempered words -> 53-bit double
 *                   (a >> 5) * 2^26 + (b >> 6), scaled by 2^-53
 *   chance(p)       random() < p
 *   uniform()       random()
 *   randbelow(n)    k = n.bit_length(); r = getrandbits(k) until r < n,
 *                   where getrandbits(k <= 32) is one word >> (32 - k)
 *   randint(a, b)   a + randbelow(b - a + 1)
 *   geometric(m)    the inverse-CDF trial loop of DeterministicRng
 *                   (m == 1.0 draws nothing), 10M safety cap included
 *   shuffled(deck)  a fresh copy of the ordered deck, then CPython's
 *                   shuffle: randbelow(i + 1) for i = len - 1 down to 1
 *
 * Because the states are transplanted and every comparison runs on the
 * identical IEEE-754 doubles the Python code would use, the emitted
 * stream is digest-identical to the reference walk — enforced by
 * tests/test_columnar.py, never assumed. The build compiles with
 * -ffp-contract=off, so a random branch's 0.35 + 0.3 * u rounds twice,
 * as in Python, instead of fusing into one multiply-add.
 *
 * Plain C99 + libc only (no Python.h), same contract as
 * _pipeline_kernel.c: the lazy ctypes build needs nothing beyond cc.
 *
 * Build draw order (structure stream; mirrors _StaticProgram):
 *   each block, main region then functions:
 *                geometric body size, [deck refills while dealing it],
 *                [call chance, main blocks only]
 *   each branch block, in block order:
 *                loop chance; a loop: self-loop chance, [span randint],
 *                fixed-trip chance, [trip randint]; else, in the main
 *                region, indirect chance, [6 target randints]; else the
 *                forward span randint (unless the block is its region's
 *                last), random-branch chance, [uniform | bias chance]
 *   each call block, in block order: its function's randint
 *
 * Walk draw order (mirrors _walk_trace, the reference walk):
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

static int mt_chance(Mt *s, double probability) {
    return mt_random(s) < probability;
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

static void mt_load(Mt *s, const uint32_t *state625) {
    memcpy(s->mt, state625, MT_N * sizeof(uint32_t));
    s->idx = state625[MT_N];
}

/* ---- configuration layout (mirrored by workloads.py) --------------- */

/* cfg_f indices: the walk's knobs, then the structure's */
enum {
    TF_FIRST_PROB = 0,
    TF_SECOND_PROB = 1,
    TF_DEP_MEAN = 2,
    TF_CHAIN_PROB = 3,
    TF_STACK_PROB = 4,
    TF_STACK_OR_STREAM = 5,
    TF_HOT_PROB = 6,
    TF_BODY_MEAN = 7, /* mean_block_size - 1 */
    TF_CALL_FRAC = 8,
    TF_LOOP_FRAC = 9,
    TF_FIXED_FRAC = 10,
    TF_TRIP_MEAN = 11, /* max(1, mean_loop_trips) */
    TF_INDIRECT_FRAC = 12,
    TF_RANDOM_FRAC = 13,
    TF_BIASED_PROB = 14,
    TF_LEN = 15
};

/* cfg_i indices: the walk's knobs, then the structure's */
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
    TI_FUNCTIONS = 10,
    TI_FUNCTION_BLOCKS = 11,
    TI_CODE_BASE = 12,
    TI_LEN = 13
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
/* Cards per deck (workloads._DECK_SIZE). */
#define DECK_SIZE 512

/* ---- the static program -------------------------------------------- */

/* One basic block and its terminator's static descriptor. The walk
 * mutates only target (indirect dispatch) and trips_left (loops). */
typedef struct {
    int64_t start_pc, term_pc;
    int64_t body_off, body_len; /* into Walk.body_ops */
    int64_t fixed_trips, trips_left;
    double taken_prob;
    int32_t call_target; /* entry block of the called function */
    int32_t target;
    int32_t indirect[INDIRECT_TARGETS];
    uint8_t terminator, is_loop, has_indirect;
} Block;

typedef struct {
    /* profile constants */
    double first_prob, second_prob, dep_mean, chain_prob;
    double stack_prob, stack_or_stream, hot_prob;
    double trip_mean;
    int64_t num_instructions;
    int32_t main_blocks, nblocks;
    uint32_t stack_span1, hot_span1, heap_span1; /* randbelow args: span+1 */
    int64_t stride, stream_mod;
    int64_t stack_base, stream_base, heap_base;
    /* static program */
    Block *blocks;
    uint8_t *body_ops; /* the shuffled decks, in deal order */
    int64_t body_cap, body_dealt;
    /* RNG streams */
    Mt walk, data;
    /* dynamic walk state */
    int64_t position;
    int32_t current;
    int64_t body_pos;
    int64_t last_load;
    int64_t stream_offset;
    int32_t *stack;
    int64_t stack_len, stack_cap;
} Walk;

/* Deal one more deck: a fresh copy of the ordered deck, shuffled. */
static int deal_deck(Walk *w, Mt *s, const uint8_t *deck) {
    uint8_t *cards;
    int i;
    if (w->body_dealt + DECK_SIZE > w->body_cap) {
        int64_t cap = w->body_cap ? 2 * w->body_cap : 8 * DECK_SIZE;
        uint8_t *grown = (uint8_t *)realloc(w->body_ops, (size_t)cap);
        if (!grown) return -1;
        w->body_ops = grown;
        w->body_cap = cap;
    }
    cards = w->body_ops + w->body_dealt;
    memcpy(cards, deck, DECK_SIZE);
    for (i = DECK_SIZE - 1; i > 0; i--) {
        uint32_t j = mt_randbelow(s, (uint32_t)i + 1U);
        uint8_t card = cards[i];
        cards[i] = cards[j];
        cards[j] = card;
    }
    w->body_dealt += DECK_SIZE;
    return 0;
}

/* _StaticProgram.__init__, draw for draw on the structure stream. */
static int build_program(Walk *w, const double *cfg_f, const int64_t *cfg_i,
                         Mt *s, const uint8_t *deck, int64_t pc_offset) {
    const int32_t main_blocks = w->main_blocks;
    const int32_t functions = (int32_t)cfg_i[TI_FUNCTIONS];
    const int32_t function_blocks = (int32_t)cfg_i[TI_FUNCTION_BLOCKS];
    const double body_mean = cfg_f[TF_BODY_MEAN];
    int64_t pc = cfg_i[TI_CODE_BASE] + pc_offset;
    int64_t total = 0;
    int32_t b;

    /* Blocks: the main region's, ended by a branch or a call, then each
     * function's run of branch blocks closed by a return. */
    for (b = 0; b < w->nblocks; b++) {
        Block *block = &w->blocks[b];
        int64_t size = mt_geometric(s, body_mean);
        while (w->body_dealt < total + size) {
            if (deal_deck(w, s, deck)) return -1;
        }
        block->body_off = total;
        block->body_len = size;
        total += size;
        if (b < main_blocks) {
            block->terminator = mt_chance(s, cfg_f[TF_CALL_FRAC])
                                    ? TERM_CALL
                                    : TERM_BRANCH;
        } else {
            block->terminator =
                (b - main_blocks) % function_blocks == function_blocks - 1
                    ? TERM_RETURN
                    : TERM_BRANCH;
        }
        block->start_pc = pc;
        block->term_pc = pc + 4 * size;
        pc = block->term_pc + 4;
    }

    /* Branch descriptors; a function's branches stay inside it. */
    for (b = 0; b < w->nblocks; b++) {
        Block *block = &w->blocks[b];
        int in_function = b >= main_blocks;
        int32_t entry = 0, last = main_blocks - 1;
        if (block->terminator != TERM_BRANCH) continue;
        if (in_function) {
            entry = main_blocks +
                    (b - main_blocks) / function_blocks * function_blocks;
            last = entry + function_blocks - 1;
        }
        if (mt_chance(s, cfg_f[TF_LOOP_FRAC])) {
            int32_t span =
                mt_chance(s, 0.7) ? 0 : 1 + (int32_t)mt_randbelow(s, 2);
            block->target = b - span > entry ? b - span : entry;
            block->is_loop = 1;
            if (mt_chance(s, cfg_f[TF_FIXED_FRAC])) {
                block->fixed_trips = 3 + (int64_t)mt_randbelow(s, 6);
            }
        } else if (!in_function && mt_chance(s, cfg_f[TF_INDIRECT_FRAC])) {
            int i;
            for (i = 0; i < INDIRECT_TARGETS; i++) {
                block->indirect[i] =
                    (int32_t)mt_randbelow(s, (uint32_t)main_blocks);
            }
            block->target = block->indirect[0];
            block->has_indirect = 1;
            block->taken_prob = 0.85;
        } else {
            if (b < last) {
                int32_t forward = b + 2 + (int32_t)mt_randbelow(s, 5);
                block->target = forward < last ? forward : last;
            } else {
                block->target = (b + 2) % main_blocks;
            }
            if (mt_chance(s, cfg_f[TF_RANDOM_FRAC])) {
                block->taken_prob = 0.35 + 0.3 * mt_random(s);
            } else if (mt_chance(s, 0.5)) {
                block->taken_prob = cfg_f[TF_BIASED_PROB];
            } else {
                block->taken_prob = 1.0 - cfg_f[TF_BIASED_PROB];
            }
        }
    }

    /* Each call site targets one statically chosen function. */
    for (b = 0; b < main_blocks; b++) {
        if (w->blocks[b].terminator == TERM_CALL) {
            w->blocks[b].call_target =
                main_blocks +
                (int32_t)mt_randbelow(s, (uint32_t)functions) * function_blocks;
        }
    }
    return 0;
}

void repro_trace_destroy(void *handle) {
    Walk *w = (Walk *)handle;
    if (!w) return;
    free(w->blocks);
    free(w->body_ops);
    free(w->stack);
    free(w);
}

/* Build the static program and ready the walk over it. Python checks
 * the widths first: block counts fit int32 and randbelow spans 32 bits.
 * Returns NULL when out of memory. */
void *repro_trace_create(const double *cfg_f, const int64_t *cfg_i,
                         const uint32_t *mt_structure_state,
                         const uint32_t *mt_walk_state,
                         const uint32_t *mt_data_state, const uint8_t *deck,
                         int64_t pc_offset) {
    Mt structure;
    Walk *w = (Walk *)calloc(1, sizeof(Walk));
    if (!w) return NULL;

    w->first_prob = cfg_f[TF_FIRST_PROB];
    w->second_prob = cfg_f[TF_SECOND_PROB];
    w->dep_mean = cfg_f[TF_DEP_MEAN];
    w->chain_prob = cfg_f[TF_CHAIN_PROB];
    w->stack_prob = cfg_f[TF_STACK_PROB];
    w->stack_or_stream = cfg_f[TF_STACK_OR_STREAM];
    w->hot_prob = cfg_f[TF_HOT_PROB];
    w->trip_mean = cfg_f[TF_TRIP_MEAN];

    w->num_instructions = cfg_i[TI_NUM_INSTR];
    w->main_blocks = (int32_t)cfg_i[TI_MAIN_BLOCKS];
    w->nblocks = (int32_t)(cfg_i[TI_MAIN_BLOCKS] +
                           cfg_i[TI_FUNCTIONS] * cfg_i[TI_FUNCTION_BLOCKS]);
    w->stack_span1 = (uint32_t)cfg_i[TI_STACK_SPAN] + 1U;
    w->hot_span1 = (uint32_t)cfg_i[TI_HOT_SPAN] + 1U;
    w->heap_span1 = (uint32_t)cfg_i[TI_HEAP_SPAN] + 1U;
    w->stride = cfg_i[TI_STRIDE];
    w->stream_mod = cfg_i[TI_STREAM_MOD];
    w->stack_base = cfg_i[TI_STACK_BASE];
    w->stream_base = cfg_i[TI_STREAM_BASE];
    w->heap_base = cfg_i[TI_HEAP_BASE];

    w->blocks = (Block *)calloc((size_t)w->nblocks, sizeof(Block));
    w->stack_cap = 16;
    w->stack = (int32_t *)malloc(w->stack_cap * sizeof(int32_t));
    mt_load(&structure, mt_structure_state);
    if (!w->blocks || !w->stack ||
        build_program(w, cfg_f, cfg_i, &structure, deck, pc_offset)) {
        repro_trace_destroy(w);
        return NULL;
    }

    mt_load(&w->walk, mt_walk_state);
    mt_load(&w->data, mt_data_state);
    w->last_load = -1;
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
        Block *block = &w->blocks[cur];
        if (w->body_pos < block->body_len) {
            int64_t bp = w->body_pos;
            uint8_t o = w->body_ops[block->body_off + bp];
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
            pc[rows] = block->start_pc + 4 * bp;
            dep1[rows] = d1;
            dep2[rows] = d2;
            addr[rows] = address;
            taken[rows] = 0;
            target[rows] = 0;
            rows++;
            w->position++;
            w->body_pos++;
        } else if (block->terminator == TERM_CALL) {
            int32_t entry = block->call_target;
            op[rows] = OP_CALL;
            pc[rows] = block->term_pc;
            dep1[rows] = draw_dep(w, w->position);
            dep2[rows] = 0;
            addr[rows] = 0;
            taken[rows] = 1;
            target[rows] = w->blocks[entry].start_pc;
            rows++;
            w->position++;
            if (stack_push(w, (cur + 1) % w->main_blocks)) return -1;
            w->current = entry;
            w->body_pos = 0;
        } else if (block->terminator == TERM_RETURN) {
            int32_t return_block;
            if (w->stack_len) {
                return_block = w->stack[--w->stack_len];
            } else {
                return_block = (int32_t)mt_randbelow(
                    &w->walk, (uint32_t)w->main_blocks);
            }
            op[rows] = OP_RETURN;
            pc[rows] = block->term_pc;
            dep1[rows] = 0;
            dep2[rows] = 0;
            addr[rows] = 0;
            taken[rows] = 1;
            target[rows] = w->blocks[return_block].start_pc;
            rows++;
            w->position++;
            w->current = return_block;
            w->body_pos = 0;
        } else {
            uint8_t tk;
            int32_t next_block;
            if (block->is_loop) {
                if (block->trips_left == 0) {
                    if (block->fixed_trips) {
                        block->trips_left = block->fixed_trips;
                    } else {
                        block->trips_left =
                            mt_geometric(&w->walk, w->trip_mean);
                    }
                }
                block->trips_left -= 1;
                tk = block->trips_left > 0;
            } else {
                tk = mt_random(&w->walk) < block->taken_prob;
            }
            if (block->has_indirect && tk) {
                block->target = block->indirect[mt_randbelow(
                    &w->walk, INDIRECT_TARGETS)];
            }
            if (tk) {
                next_block = block->target;
            } else {
                int32_t limit =
                    cur < w->main_blocks ? w->main_blocks : w->nblocks;
                next_block = cur + 1;
                if (next_block >= limit) {
                    next_block = cur < w->main_blocks ? 0 : cur;
                }
            }
            op[rows] = OP_BRANCH;
            pc[rows] = block->term_pc;
            dep1[rows] = draw_dep(w, w->position);
            dep2[rows] = 0;
            addr[rows] = 0;
            taken[rows] = tk;
            target[rows] = w->blocks[block->target].start_pc;
            rows++;
            w->position++;
            w->current = next_block;
            w->body_pos = 0;
        }
    }
    return rows;
}
