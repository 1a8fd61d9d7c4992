//! The generated runtime support header, `accmos_rt.h`.
//!
//! Every generated simulator `#include`s this fixed header after defining
//! its size macros (`ACCMOS_ACTOR_BITS`, `ACCMOS_DIAG_SITES`, ...). The
//! helpers pin down the shared semantics with the interpreter:
//! saturating float→integer conversion (Rust `as`), checked division,
//! the 64-bit LCG random source, the FNV-1a output digest, the coverage
//! bitmaps, the `outputCollect` signal monitor of the paper's Figure 3,
//! and the test-case import of Figure 5.

/// The complete text of `accmos_rt.h`.
pub const RUNTIME_HEADER: &str = r#"/* accmos_rt.h — runtime support for AccMoS-RS generated simulators.
 * Requires GCC (uses __int128) and compilation with -fwrapv. */
#ifndef ACCMOS_RT_H
#define ACCMOS_RT_H

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#include <time.h>
#include <unistd.h>
#include <fcntl.h>
#include <stdarg.h>

typedef __int128 accmos_wide;

/* ---- record emission ------------------------------------------------- */
/* Every `ACCMOS:` protocol record goes through accmos_out. A standalone
 * executable leaves the callback NULL and writes stdout, byte for byte
 * what printf produced before the indirection existed. A host that loads
 * the simulator as a shared object installs a callback via accmos_entry
 * and receives the same bytes as in-process calls instead. */
typedef void (*accmos_emit_fn)(void *ctx, const char *text);
static accmos_emit_fn accmos_emit_cb = NULL;
static void *accmos_emit_ctx = NULL;
__attribute__((format(printf, 1, 2)))
static void accmos_out(const char *fmt, ...) {
    char buf[4096];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    if (accmos_emit_cb) {
        accmos_emit_cb(accmos_emit_ctx, buf);
    } else {
        fputs(buf, stdout);
    }
}

#ifndef ACCMOS_ACTOR_BITS
#define ACCMOS_ACTOR_BITS 0
#endif
#ifndef ACCMOS_COND_BITS
#define ACCMOS_COND_BITS 0
#endif
#ifndef ACCMOS_DEC_BITS
#define ACCMOS_DEC_BITS 0
#endif
#ifndef ACCMOS_MCDC_BITS
#define ACCMOS_MCDC_BITS 0
#endif
#ifndef ACCMOS_DIAG_SITES
#define ACCMOS_DIAG_SITES 0
#endif
#ifndef ACCMOS_CUSTOM_SITES
#define ACCMOS_CUSTOM_SITES 0
#endif
#ifndef ACCMOS_LOG_LIMIT
#define ACCMOS_LOG_LIMIT 0
#endif
#ifndef ACCMOS_MAX_WIDTH
#define ACCMOS_MAX_WIDTH 1
#endif
#ifndef ACCMOS_TC_COLS
#define ACCMOS_TC_COLS 0
#endif

#define ACCMOS_AT_LEAST_1(n) ((n) > 0 ? (n) : 1)
#define ACCMOS_WORDS(bits) ACCMOS_AT_LEAST_1(((bits) + 63) / 64)

static uint64_t accmos_step = 0;

/* ---- saturating float -> integer conversion (Rust `as` semantics) ---- */
#define ACCMOS_DEF_F2I(name, T, LO, HI) \
    static inline T name(double v) { \
        if (v != v) return (T)0; \
        if (v <= (double)(LO)) return (T)(LO); \
        if (v >= (double)(HI)) return (T)(HI); \
        return (T)v; \
    }
ACCMOS_DEF_F2I(accmos_f64_to_i8, int8_t, INT8_MIN, INT8_MAX)
ACCMOS_DEF_F2I(accmos_f64_to_i16, int16_t, INT16_MIN, INT16_MAX)
ACCMOS_DEF_F2I(accmos_f64_to_i32, int32_t, INT32_MIN, INT32_MAX)
ACCMOS_DEF_F2I(accmos_f64_to_i64, int64_t, INT64_MIN, INT64_MAX)
ACCMOS_DEF_F2I(accmos_f64_to_u8, uint8_t, 0, UINT8_MAX)
ACCMOS_DEF_F2I(accmos_f64_to_u16, uint16_t, 0, UINT16_MAX)
ACCMOS_DEF_F2I(accmos_f64_to_u32, uint32_t, 0, UINT32_MAX)
ACCMOS_DEF_F2I(accmos_f64_to_u64, uint64_t, 0, UINT64_MAX)

/* ---- checked division / remainder (0 on zero divisor, MIN/-1 wraps) -- */
#define ACCMOS_DEF_SDIV(name, T, UT, MINV) \
    static inline T name##_div(T a, T b) { \
        if (b == 0) return (T)0; \
        if (b == (T)-1 && a == (MINV)) return a; \
        return (T)(a / b); \
    } \
    static inline T name##_rem(T a, T b) { \
        if (b == 0) return (T)0; \
        if (b == (T)-1) return (T)0; \
        return (T)(a % b); \
    }
ACCMOS_DEF_SDIV(accmos_i8, int8_t, uint8_t, INT8_MIN)
ACCMOS_DEF_SDIV(accmos_i16, int16_t, uint16_t, INT16_MIN)
ACCMOS_DEF_SDIV(accmos_i32, int32_t, uint32_t, INT32_MIN)
ACCMOS_DEF_SDIV(accmos_i64, int64_t, uint64_t, INT64_MIN)
#define ACCMOS_DEF_UDIV(name, T) \
    static inline T name##_div(T a, T b) { return b ? (T)(a / b) : (T)0; } \
    static inline T name##_rem(T a, T b) { return b ? (T)(a % b) : (T)0; }
ACCMOS_DEF_UDIV(accmos_u8, uint8_t)
ACCMOS_DEF_UDIV(accmos_u16, uint16_t)
ACCMOS_DEF_UDIV(accmos_u32, uint32_t)
ACCMOS_DEF_UDIV(accmos_u64, uint64_t)

/* ---- pseudo-random source (64-bit LCG, shared with accmos-interp) ---- */
static inline uint64_t accmos_rng_next(uint64_t *s) {
    *s = *s * 6364136223846793005ULL + 1442695040888963407ULL;
    return *s;
}
static inline double accmos_rng_unit(uint64_t w) {
    return (double)(w >> 11) * (1.0 / 9007199254740992.0);
}

/* ---- raw bit pattern helpers ----------------------------------------- */
static inline uint64_t accmos_bits_f64(double v) {
    uint64_t b;
    memcpy(&b, &v, 8);
    return b;
}
static inline uint64_t accmos_bits_f32(float v) {
    uint32_t b;
    memcpy(&b, &v, 4);
    return (uint64_t)b;
}
static inline double accmos_f64_from_bits(uint64_t b) {
    double v;
    memcpy(&v, &b, 8);
    return v;
}
static inline float accmos_f32_from_bits(uint64_t b) {
    uint32_t x = (uint32_t)b;
    float v;
    memcpy(&v, &x, 4);
    return v;
}

/* ---- FNV-1a output digest --------------------------------------------- */
static inline uint64_t accmos_fnv_fold(uint64_t h, uint64_t w) {
    int i;
    for (i = 0; i < 8; i++) {
        h ^= (w >> (8 * i)) & 0xFF;
        h *= 0x100000001b3ULL;
    }
    return h;
}
static uint64_t accmos_digest = 0xcbf29ce484222325ULL;
static inline void accmos_digest_u64(uint64_t w) {
    accmos_digest = accmos_fnv_fold(accmos_digest, w);
}

/* ---- coverage bitmaps -------------------------------------------------- */
static uint64_t accmos_cov_actor[ACCMOS_WORDS(ACCMOS_ACTOR_BITS)];
static uint64_t accmos_cov_cond[ACCMOS_WORDS(ACCMOS_COND_BITS)];
static uint64_t accmos_cov_dec[ACCMOS_WORDS(ACCMOS_DEC_BITS)];
static uint64_t accmos_cov_mcdc[ACCMOS_WORDS(ACCMOS_MCDC_BITS)];
#define ACCMOS_COV(arr, id) ((arr)[(id) >> 6] |= 1ULL << ((id) & 63))

/* One ACCMOS:COV record: the metric, its point count, then the bitmap's
 * ceil(bits / 64) words in hex. The host counts the set bits, and folds
 * the bitmaps of a lane run's lanes into their union. */
static inline void accmos_print_cov(const char *name, const uint64_t *arr, int bits) {
    int w;
    accmos_out("ACCMOS:COV %s %d", name, bits);
    for (w = 0; w < (bits + 63) / 64; w++) {
        accmos_out(" %llx", (unsigned long long)arr[w]);
    }
    accmos_out("\n");
}

/* ---- diagnosis sites ---------------------------------------------------- */
static uint64_t accmos_diag_first[ACCMOS_AT_LEAST_1(ACCMOS_DIAG_SITES)];
static uint64_t accmos_diag_count[ACCMOS_AT_LEAST_1(ACCMOS_DIAG_SITES)];
static uint64_t accmos_diag_total = 0;
static inline void accmos_diag_hit(int site) {
    if (accmos_diag_count[site] == 0) {
        accmos_diag_first[site] = accmos_step;
    }
    accmos_diag_count[site]++;
    accmos_diag_total++;
}

/* ---- custom signal diagnosis sites -------------------------------------- */
static uint64_t accmos_custom_first[ACCMOS_AT_LEAST_1(ACCMOS_CUSTOM_SITES)];
static uint64_t accmos_custom_count[ACCMOS_AT_LEAST_1(ACCMOS_CUSTOM_SITES)];
static inline void accmos_custom_hit(int site) {
    if (accmos_custom_count[site] == 0) {
        accmos_custom_first[site] = accmos_step;
    }
    accmos_custom_count[site]++;
}

/* ---- signal monitor (paper Figure 3) ------------------------------------- */
typedef struct {
    const char *path;
    const char *type;
    uint64_t step;
    int length;
    uint64_t bits[ACCMOS_MAX_WIDTH];
} accmos_sample;
static accmos_sample accmos_log[ACCMOS_AT_LEAST_1(ACCMOS_LOG_LIMIT)];
static int accmos_log_len = 0;

static inline int accmos_type_size(const char *type) {
    if (type[0] == 'b') return 1;
    if (type[1] == '8') return 1;
    if (type[1] == '1') return 2;
    if (type[1] == '3') return 4;
    return 8;
}

static void outputCollect(const char *path, const void *data, const char *type, int length) {
    accmos_sample *OD;
    const unsigned char *bytes = (const unsigned char *)data;
    int size, e, i;
    if (accmos_log_len >= ACCMOS_LOG_LIMIT) return;
    OD = &accmos_log[accmos_log_len++];
    OD->path = path;
    OD->type = type;
    OD->step = accmos_step;
    OD->length = length > ACCMOS_MAX_WIDTH ? ACCMOS_MAX_WIDTH : length;
    size = accmos_type_size(type);
    for (e = 0; e < OD->length; e++) {
        uint64_t b = 0;
        for (i = 0; i < size; i++) {
            b |= (uint64_t)bytes[e * size + i] << (8 * i);
        }
        OD->bits[e] = b;
    }
}

/* ---- test-case import (paper Figure 5: TestCase_Init / takeTestCase) ---- */
static uint64_t *accmos_tc_data[ACCMOS_AT_LEAST_1(ACCMOS_TC_COLS)];
static size_t accmos_tc_rows = 0;

/* dtype codes: 0=b8 1=i8 2=i16 3=i32 4=i64 5=u8 6=u16 7=u32 8=u64 9=f32 10=f64 */
static int accmos_dtype_code(const char *m) {
    static const char *names[] = {"b8", "i8", "i16", "i32", "i64",
                                  "u8", "u16", "u32", "u64", "f32", "f64"};
    int i;
    for (i = 0; i < 11; i++) {
        if (strcmp(m, names[i]) == 0) return i;
    }
    return -1;
}

static uint64_t accmos_tc_cell(const char *s, int hdr, int want) {
    double d = 0.0;
    long long sll = 0;
    unsigned long long ull = 0;
    int isf = 0, isu = 0;
    if (hdr == 9) { /* parse as f32 first to match single-precision data */
        d = (double)strtof(s, NULL);
        isf = 1;
    } else if (hdr == 10) {
        d = strtod(s, NULL);
        isf = 1;
    } else if (hdr == 8) {
        if (s[0] == '-') {
            sll = strtoll(s, NULL, 10);
        } else {
            ull = strtoull(s, NULL, 10);
            isu = 1;
        }
    } else if (hdr == 0) {
        sll = (strcmp(s, "true") == 0 || strcmp(s, "1") == 0) ? 1 : 0;
    } else {
        if (strchr(s, '.') || strchr(s, 'e') || strchr(s, 'E')) {
            d = strtod(s, NULL);
            isf = 1;
        } else {
            sll = strtoll(s, NULL, 10);
        }
    }
    switch (want) {
        case 0: return (uint64_t)(isf ? (d != 0.0) : (isu ? ull != 0 : sll != 0));
        case 1: return (uint64_t)(uint8_t)(isf ? accmos_f64_to_i8(d) : (int8_t)(isu ? (long long)ull : sll));
        case 2: return (uint64_t)(uint16_t)(isf ? accmos_f64_to_i16(d) : (int16_t)(isu ? (long long)ull : sll));
        case 3: return (uint64_t)(uint32_t)(isf ? accmos_f64_to_i32(d) : (int32_t)(isu ? (long long)ull : sll));
        case 4: return (uint64_t)(isf ? accmos_f64_to_i64(d) : (int64_t)(isu ? (long long)ull : sll));
        case 5: return (uint64_t)(isf ? accmos_f64_to_u8(d) : (uint8_t)(isu ? ull : (unsigned long long)sll));
        case 6: return (uint64_t)(isf ? accmos_f64_to_u16(d) : (uint16_t)(isu ? ull : (unsigned long long)sll));
        case 7: return (uint64_t)(isf ? accmos_f64_to_u32(d) : (uint32_t)(isu ? ull : (unsigned long long)sll));
        case 8: return (uint64_t)(isf ? accmos_f64_to_u64(d) : (uint64_t)(isu ? ull : (unsigned long long)sll));
        case 9: return accmos_bits_f32(isf ? (float)d : (isu ? (float)ull : (float)sll));
        default: return accmos_bits_f64(isf ? d : (isu ? (double)ull : (double)sll));
    }
}

/* Load the CSV test file; `want[i]` is the dtype code of root inport i.
 * Missing file or short column counts leave zeros. Returns 0 on success. */
static int TestCase_Init(const char *path, int ncols, const int *want) {
    FILE *f;
    char line[8192];
    int hdr[ACCMOS_AT_LEAST_1(ACCMOS_TC_COLS)];
    int file_cols = 0, c;
    size_t cap = 1024;
    if (ncols == 0) return 0;
    for (c = 0; c < ncols; c++) {
        accmos_tc_data[c] = (uint64_t *)calloc(cap, sizeof(uint64_t));
    }
    if (!path) return 0;
    f = fopen(path, "r");
    if (!f) {
        fprintf(stderr, "accmos: cannot open test file %s\n", path);
        return 1;
    }
    if (fgets(line, sizeof line, f)) {
        char *tok = strtok(line, ",\r\n");
        while (tok && file_cols < ncols) {
            char *colon = strchr(tok, ':');
            hdr[file_cols] = colon ? accmos_dtype_code(colon + 1) : 10;
            if (hdr[file_cols] < 0) hdr[file_cols] = 10;
            file_cols++;
            tok = strtok(NULL, ",\r\n");
        }
    }
    while (fgets(line, sizeof line, f)) {
        char *tok = strtok(line, ",\r\n");
        if (!tok) continue;
        if (accmos_tc_rows == cap) {
            cap *= 2;
            for (c = 0; c < ncols; c++) {
                accmos_tc_data[c] = (uint64_t *)realloc(accmos_tc_data[c], cap * sizeof(uint64_t));
                memset(accmos_tc_data[c] + accmos_tc_rows, 0,
                       (cap - accmos_tc_rows) * sizeof(uint64_t));
            }
        }
        for (c = 0; c < file_cols && tok; c++) {
            accmos_tc_data[c][accmos_tc_rows] = accmos_tc_cell(tok, hdr[c], want[c]);
            tok = strtok(NULL, ",\r\n");
        }
        accmos_tc_rows++;
    }
    fclose(f);
    return 0;
}

static inline uint64_t takeTestCase(int col) {
    return accmos_tc_rows ? accmos_tc_data[col][accmos_step % accmos_tc_rows] : 0;
}

/* Release the TestCase_Init column allocations. A standalone executable
 * exits right after and never needs this; a host that dlopens the
 * simulator runs many instances per process, so accmos_entry frees the
 * columns before returning to keep the daemon's heap flat. */
static void accmos_tc_free(void) {
    int c;
    for (c = 0; c < ACCMOS_TC_COLS; c++) {
        free(accmos_tc_data[c]);
        accmos_tc_data[c] = NULL;
    }
    accmos_tc_rows = 0;
}

/* ---- lookup tables (mirrors accmos-interp::semantics) --------------------- */
/* methods: 0 = interpolate, 1 = nearest, 2 = below */
static inline int accmos_lut_index(const double *bps, int n, double x) {
    int i = 0, j;
    for (j = 1; j < n - 1; j++) {
        if (bps[j] <= x) i = j;
    }
    return i;
}
static double accmos_lookup1d(const double *bps, const double *tab, int n, int method, double x) {
    int i;
    double t;
    if (x <= bps[0]) return tab[0];
    if (x >= bps[n - 1]) return tab[n - 1];
    i = accmos_lut_index(bps, n, x);
    if (method == 2) return tab[i];
    if (method == 1) {
        if (i + 1 < n && (x - bps[i]) > (bps[i + 1] - x)) return tab[i + 1];
        return tab[i];
    }
    t = (x - bps[i]) / (bps[i + 1] - bps[i]);
    return tab[i] + t * (tab[i + 1] - tab[i]);
}
static inline int accmos_lut_pick(const double *bps, int n, int method, double x) {
    int i;
    if (x <= bps[0]) return 0;
    if (x >= bps[n - 1]) return n - 1;
    i = accmos_lut_index(bps, n, x);
    if (method == 1 && i + 1 < n && (x - bps[i]) > (bps[i + 1] - x)) return i + 1;
    return i;
}
static inline double accmos_clamp(double v, double lo, double hi) {
    return v < lo ? lo : (v > hi ? hi : v);
}
static inline double accmos_clamp01(double v) {
    return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
}
static double accmos_lookup2d(const double *rb, int nr, const double *cb, int nc,
                              const double *tab, int method, double r, double c) {
    if (method == 0) {
        int ri = accmos_lut_index(rb, nr, accmos_clamp(r, rb[0], rb[nr - 1]));
        int ci = accmos_lut_index(cb, nc, accmos_clamp(c, cb[0], cb[nc - 1]));
        int ri1 = ri + 1 < nr ? ri + 1 : nr - 1;
        int ci1 = ci + 1 < nc ? ci + 1 : nc - 1;
        double tr = (ri1 == ri) ? 0.0 : accmos_clamp01((r - rb[ri]) / (rb[ri1] - rb[ri]));
        double tc = (ci1 == ci) ? 0.0 : accmos_clamp01((c - cb[ci]) / (cb[ci1] - cb[ci]));
        double top = tab[ri * nc + ci] + tc * (tab[ri * nc + ci1] - tab[ri * nc + ci]);
        double bot = tab[ri1 * nc + ci] + tc * (tab[ri1 * nc + ci1] - tab[ri1 * nc + ci]);
        return top + tr * (bot - top);
    }
    return tab[accmos_lut_pick(rb, nr, method, r) * nc + accmos_lut_pick(cb, nc, method, c)];
}

/* ---- misc ------------------------------------------------------------------- */
static inline uint64_t accmos_now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (uint64_t)ts.tv_sec * 1000000000ULL + (uint64_t)ts.tv_nsec;
}

#endif /* ACCMOS_RT_H */
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_contains_key_primitives() {
        for needle in [
            "accmos_f64_to_i32",
            "ACCMOS_DEF_SDIV(accmos_i32",
            "accmos_rng_next",
            "accmos_digest_u64",
            "ACCMOS_COV",
            "accmos_diag_hit",
            "outputCollect",
            "TestCase_Init",
            "takeTestCase",
            "accmos_tc_free",
            "accmos_emit_fn",
            "accmos_out",
            "accmos_lookup1d",
            "accmos_lookup2d",
            "accmos_now_ns",
            "accmos_print_cov",
        ] {
            assert!(RUNTIME_HEADER.contains(needle), "runtime header misses {needle}");
        }
    }

    #[test]
    fn lcg_constants_match_interpreter() {
        assert!(RUNTIME_HEADER.contains("6364136223846793005"));
        assert!(RUNTIME_HEADER.contains("1442695040888963407"));
        assert!(RUNTIME_HEADER.contains("0xcbf29ce484222325"));
        assert!(RUNTIME_HEADER.contains("0x100000001b3"));
    }
}
