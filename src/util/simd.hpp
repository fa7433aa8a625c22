// Portable SIMD wrapper for the evaluation hot path.
//
// One backend is chosen at compile time from the compiler's target macros:
// AVX2 (4 doubles per vector), SSE2 (2), NEON/AArch64 (2), or a scalar
// struct backend (1) that compiles the same kernel code to plain scalar
// operations. Building with -DDALUT_SIMD=OFF defines DALUT_SIMD_DISABLE and
// forces the scalar backend regardless of the target.
//
// The wrapper exposes exactly the operations the kernels need, in three
// granularities:
//
//  * Lane vectors (VecD / VecI, kLanes wide): elementwise double and i32
//    arithmetic for the double OptForPart kernels and the bit-cost / error
//    kernels.
//  * Full-register int32 lanes (Vec32, kLanes32 wide: twice kLanes on
//    every vector backend) for the integer OptForPart kernels, with a
//    widening 64-bit accumulator, an in-register transpose, a narrowing
//    byte store and 64-byte compares; and for the serve read kernels, with
//    and/or, run-time-count shifts and a gather granule (4-byte elements,
//    and bytes as a 4-byte gather masked to 0xff). The gather is one
//    vpgatherdd on AVX2 and lane-by-lane loads on the other backends.
//  * Fixed granules (D2 = one interleaved {cost0, cost1} cell, D4 = two
//    cells): the building blocks of the cost-matrix gather, defined for
//    every backend so the blocked gather kernel is backend-generic.
//
// Bit-identity contract: no operation here reassociates floating-point
// arithmetic. Vector adds are elementwise onto independent accumulators,
// bitwise blends select exactly the double the scalar ternary would, and
// integer->double conversions are exact for the value ranges the kernels
// feed them (|v| <= 2^26 everywhere, squares taken in the double domain).
// Kernels that need a sequential reduction keep it scalar and only
// vectorize the elementwise term computation, so results are bit-identical
// across backends, including the forced-scalar fallback.
//
// set_force_scalar(true) makes the kernels take their reference scalar
// paths at runtime; tests use it to compare SIMD and scalar results within
// one binary (docs/performance.md, "SIMD dispatch & out-of-core tables").
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#if !defined(DALUT_SIMD_DISABLE) && defined(__AVX2__)
#define DALUT_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(DALUT_SIMD_DISABLE) && \
    (defined(__SSE2__) || defined(_M_X64) || \
     (defined(_M_IX86_FP) && _M_IX86_FP >= 2))
#define DALUT_SIMD_SSE2 1
#include <emmintrin.h>
#elif !defined(DALUT_SIMD_DISABLE) && defined(__ARM_NEON) && \
    defined(__aarch64__)
#define DALUT_SIMD_NEON 1
#include <arm_neon.h>
#else
#define DALUT_SIMD_SCALAR 1
#endif

namespace dalut::util::simd {

enum class Isa { kScalar, kSse2, kAvx2, kNeon };

#if defined(DALUT_SIMD_AVX2)
inline constexpr Isa kIsa = Isa::kAvx2;
inline constexpr unsigned kLanes = 4;
#elif defined(DALUT_SIMD_SSE2)
inline constexpr Isa kIsa = Isa::kSse2;
inline constexpr unsigned kLanes = 2;
#elif defined(DALUT_SIMD_NEON)
inline constexpr Isa kIsa = Isa::kNeon;
inline constexpr unsigned kLanes = 2;
#else
inline constexpr Isa kIsa = Isa::kScalar;
inline constexpr unsigned kLanes = 1;
#endif

constexpr const char* isa_name() noexcept {
  switch (kIsa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kSse2:
      return "sse2";
    case Isa::kNeon:
      return "neon";
    case Isa::kScalar:
      return "scalar";
  }
  return "scalar";
}

/// Runtime kill switch: kernels route through their reference scalar paths
/// while set. For bit-identity tests; not thread-aware beyond the atomic.
inline std::atomic<bool>& force_scalar_flag() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}
inline bool force_scalar() noexcept {
  return force_scalar_flag().load(std::memory_order_relaxed);
}
inline void set_force_scalar(bool value) noexcept {
  force_scalar_flag().store(value, std::memory_order_relaxed);
}
/// True when kernels should take their vector paths.
inline bool enabled() noexcept {
  return kIsa != Isa::kScalar && !force_scalar();
}

inline void prefetch(const void* p) noexcept {
#if defined(DALUT_SIMD_AVX2) || defined(DALUT_SIMD_SSE2)
  _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
#elif defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

// ---- Lane vectors -------------------------------------------------------

#if defined(DALUT_SIMD_AVX2)

using VecD = __m256d;  ///< kLanes doubles
using VecI = __m128i;  ///< kLanes i32 values

inline VecD dzero() noexcept { return _mm256_setzero_pd(); }
inline VecD dbroadcast(double v) noexcept { return _mm256_set1_pd(v); }
inline VecD dloadu(const double* p) noexcept { return _mm256_loadu_pd(p); }
inline void dstoreu(double* p, VecD v) noexcept { _mm256_storeu_pd(p, v); }
inline VecD dadd(VecD a, VecD b) noexcept { return _mm256_add_pd(a, b); }
inline VecD dsub(VecD a, VecD b) noexcept { return _mm256_sub_pd(a, b); }
inline VecD dmul(VecD a, VecD b) noexcept { return _mm256_mul_pd(a, b); }
inline VecD dand(VecD a, VecD b) noexcept { return _mm256_and_pd(a, b); }
/// Lane mask (all-ones / all-zeros) of a != b, ordered non-signalling.
inline VecD dcmpneq(VecD a, VecD b) noexcept {
  return _mm256_cmp_pd(a, b, _CMP_NEQ_OQ);
}
/// Lane mask of a < b, ordered (false when either is NaN, like C++ `<`).
inline VecD dcmplt(VecD a, VecD b) noexcept {
  return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
}
/// mask ? a : b, per lane; every mask lane is all-ones or all-zeros.
inline VecD dselect(VecD mask, VecD a, VecD b) noexcept {
  return _mm256_blendv_pd(b, a, mask);
}
/// One bit per lane of a lane mask (bit l set iff lane l is all-ones).
inline unsigned dmovemask(VecD mask) noexcept {
  return static_cast<unsigned>(_mm256_movemask_pd(mask));
}

inline VecI iloadu(const std::uint32_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline VecI ibroadcast(std::int32_t v) noexcept { return _mm_set1_epi32(v); }
inline VecI isub(VecI a, VecI b) noexcept { return _mm_sub_epi32(a, b); }
inline VecI iand(VecI a, VecI b) noexcept { return _mm_and_si128(a, b); }
inline VecI ior(VecI a, VecI b) noexcept { return _mm_or_si128(a, b); }
inline VecI iandnot(VecI a, VecI b) noexcept {
  return _mm_andnot_si128(a, b);
}
/// Signed per-lane a > b as an all-ones/all-zeros lane mask.
inline VecI icmpgt(VecI a, VecI b) noexcept { return _mm_cmpgt_epi32(a, b); }
/// mask ? a : b, per lane.
inline VecI iselect(VecI mask, VecI a, VecI b) noexcept {
  return ior(iand(mask, a), iandnot(mask, b));
}
/// Exact conversion of the kLanes signed i32 values to doubles.
inline VecD i_to_d(VecI v) noexcept { return _mm256_cvtepi32_pd(v); }

#elif defined(DALUT_SIMD_SSE2)

using VecD = __m128d;
using VecI = __m128i;  ///< low 2 lanes hold the values

inline VecD dzero() noexcept { return _mm_setzero_pd(); }
inline VecD dbroadcast(double v) noexcept { return _mm_set1_pd(v); }
inline VecD dloadu(const double* p) noexcept { return _mm_loadu_pd(p); }
inline void dstoreu(double* p, VecD v) noexcept { _mm_storeu_pd(p, v); }
inline VecD dadd(VecD a, VecD b) noexcept { return _mm_add_pd(a, b); }
inline VecD dsub(VecD a, VecD b) noexcept { return _mm_sub_pd(a, b); }
inline VecD dmul(VecD a, VecD b) noexcept { return _mm_mul_pd(a, b); }
inline VecD dand(VecD a, VecD b) noexcept { return _mm_and_pd(a, b); }
inline VecD dcmpneq(VecD a, VecD b) noexcept { return _mm_cmpneq_pd(a, b); }
inline VecD dcmplt(VecD a, VecD b) noexcept { return _mm_cmplt_pd(a, b); }
inline VecD dselect(VecD mask, VecD a, VecD b) noexcept {
  return _mm_or_pd(_mm_and_pd(mask, a), _mm_andnot_pd(mask, b));
}
inline unsigned dmovemask(VecD mask) noexcept {
  return static_cast<unsigned>(_mm_movemask_pd(mask));
}

inline VecI iloadu(const std::uint32_t* p) noexcept {
  return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
}
inline VecI ibroadcast(std::int32_t v) noexcept { return _mm_set1_epi32(v); }
inline VecI isub(VecI a, VecI b) noexcept { return _mm_sub_epi32(a, b); }
inline VecI iand(VecI a, VecI b) noexcept { return _mm_and_si128(a, b); }
inline VecI ior(VecI a, VecI b) noexcept { return _mm_or_si128(a, b); }
inline VecI iandnot(VecI a, VecI b) noexcept {
  return _mm_andnot_si128(a, b);
}
inline VecI icmpgt(VecI a, VecI b) noexcept { return _mm_cmpgt_epi32(a, b); }
inline VecI iselect(VecI mask, VecI a, VecI b) noexcept {
  return ior(iand(mask, a), iandnot(mask, b));
}
inline VecD i_to_d(VecI v) noexcept { return _mm_cvtepi32_pd(v); }

#elif defined(DALUT_SIMD_NEON)

using VecD = float64x2_t;
using VecI = int32x2_t;

inline VecD dzero() noexcept { return vdupq_n_f64(0.0); }
inline VecD dbroadcast(double v) noexcept { return vdupq_n_f64(v); }
inline VecD dloadu(const double* p) noexcept { return vld1q_f64(p); }
inline void dstoreu(double* p, VecD v) noexcept { vst1q_f64(p, v); }
inline VecD dadd(VecD a, VecD b) noexcept { return vaddq_f64(a, b); }
inline VecD dsub(VecD a, VecD b) noexcept { return vsubq_f64(a, b); }
inline VecD dmul(VecD a, VecD b) noexcept { return vmulq_f64(a, b); }
inline VecD dand(VecD a, VecD b) noexcept {
  return vreinterpretq_f64_u64(
      vandq_u64(vreinterpretq_u64_f64(a), vreinterpretq_u64_f64(b)));
}
inline VecD dcmpneq(VecD a, VecD b) noexcept {
  return vreinterpretq_f64_u64(
      veorq_u64(vceqq_f64(a, b), vdupq_n_u64(~std::uint64_t{0})));
}
inline VecD dcmplt(VecD a, VecD b) noexcept {
  return vreinterpretq_f64_u64(vcltq_f64(a, b));
}
inline VecD dselect(VecD mask, VecD a, VecD b) noexcept {
  return vbslq_f64(vreinterpretq_u64_f64(mask), a, b);
}
inline unsigned dmovemask(VecD mask) noexcept {
  const uint64x2_t bits = vshrq_n_u64(vreinterpretq_u64_f64(mask), 63);
  return static_cast<unsigned>(vgetq_lane_u64(bits, 0) |
                               (vgetq_lane_u64(bits, 1) << 1));
}

inline VecI iloadu(const std::uint32_t* p) noexcept {
  return vreinterpret_s32_u32(vld1_u32(p));
}
inline VecI ibroadcast(std::int32_t v) noexcept { return vdup_n_s32(v); }
inline VecI isub(VecI a, VecI b) noexcept { return vsub_s32(a, b); }
inline VecI iand(VecI a, VecI b) noexcept { return vand_s32(a, b); }
inline VecI ior(VecI a, VecI b) noexcept { return vorr_s32(a, b); }
inline VecI iandnot(VecI a, VecI b) noexcept { return vbic_s32(b, a); }
inline VecI icmpgt(VecI a, VecI b) noexcept {
  return vreinterpret_s32_u32(vcgt_s32(a, b));
}
inline VecI iselect(VecI mask, VecI a, VecI b) noexcept {
  return ior(iand(mask, a), iandnot(mask, b));
}
inline VecD i_to_d(VecI v) noexcept {
  return vcvtq_f64_s64(vmovl_s32(v));
}

#else  // scalar backend

struct VecD {
  double v;
};
struct VecI {
  std::int32_t v;
};

inline VecD dzero() noexcept { return {0.0}; }
inline VecD dbroadcast(double v) noexcept { return {v}; }
inline VecD dloadu(const double* p) noexcept { return {*p}; }
inline void dstoreu(double* p, VecD v) noexcept { *p = v.v; }
inline VecD dadd(VecD a, VecD b) noexcept { return {a.v + b.v}; }
inline VecD dsub(VecD a, VecD b) noexcept { return {a.v - b.v}; }
inline VecD dmul(VecD a, VecD b) noexcept { return {a.v * b.v}; }
inline VecD dand(VecD a, VecD b) noexcept {
  return {std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.v) &
                                std::bit_cast<std::uint64_t>(b.v))};
}
inline VecD dcmpneq(VecD a, VecD b) noexcept {
  return {std::bit_cast<double>(a.v != b.v ? ~std::uint64_t{0}
                                           : std::uint64_t{0})};
}
inline VecD dcmplt(VecD a, VecD b) noexcept {
  return {std::bit_cast<double>(a.v < b.v ? ~std::uint64_t{0}
                                          : std::uint64_t{0})};
}
inline VecD dselect(VecD mask, VecD a, VecD b) noexcept {
  return std::bit_cast<std::uint64_t>(mask.v) != 0 ? a : b;
}
inline unsigned dmovemask(VecD mask) noexcept {
  return static_cast<unsigned>(std::bit_cast<std::uint64_t>(mask.v) >> 63);
}

inline VecI iloadu(const std::uint32_t* p) noexcept {
  return {static_cast<std::int32_t>(*p)};
}
inline VecI ibroadcast(std::int32_t v) noexcept { return {v}; }
inline VecI isub(VecI a, VecI b) noexcept { return {a.v - b.v}; }
inline VecI iand(VecI a, VecI b) noexcept { return {a.v & b.v}; }
inline VecI ior(VecI a, VecI b) noexcept { return {a.v | b.v}; }
inline VecI iandnot(VecI a, VecI b) noexcept { return {~a.v & b.v}; }
inline VecI icmpgt(VecI a, VecI b) noexcept {
  return {a.v > b.v ? std::int32_t{-1} : std::int32_t{0}};
}
inline VecI iselect(VecI mask, VecI a, VecI b) noexcept {
  return ior(iand(mask, a), iandnot(mask, b));
}
inline VecD i_to_d(VecI v) noexcept { return {static_cast<double>(v.v)}; }

#endif

// ---- Full-register int32 lanes ------------------------------------------
// Vec32 fills a whole register with i32 lanes (kLanes32: 8 on AVX2, 4 on
// SSE2 and NEON, 1 on the scalar backend), for the integer OptForPart
// kernels and the serve read kernels (hw/stream_engine.cpp). Integer adds
// are exact and associative, so these kernels may sum in any order; the
// callers guarantee that no lane overflows. Acc64 widens lanes into 64-bit
// running sums for totals that can pass 2^31.

#if defined(DALUT_SIMD_AVX2)

inline constexpr unsigned kLanes32 = 8;
using Vec32 = __m256i;

inline Vec32 i32zero() noexcept { return _mm256_setzero_si256(); }
inline Vec32 i32broadcast(std::int32_t v) noexcept {
  return _mm256_set1_epi32(v);
}
inline Vec32 i32load(const std::int32_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void i32store(std::int32_t* p, Vec32 v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline Vec32 i32add(Vec32 a, Vec32 b) noexcept {
  return _mm256_add_epi32(a, b);
}
inline Vec32 i32sub(Vec32 a, Vec32 b) noexcept {
  return _mm256_sub_epi32(a, b);
}
/// Signed per-lane a > b as an all-ones/all-zeros lane mask.
inline Vec32 i32cmpgt(Vec32 a, Vec32 b) noexcept {
  return _mm256_cmpgt_epi32(a, b);
}
/// mask ? a : b, per lane; every mask lane is all-ones or all-zeros.
inline Vec32 i32select(Vec32 mask, Vec32 a, Vec32 b) noexcept {
  return _mm256_blendv_epi8(b, a, mask);
}
/// One bit per lane of a lane mask (bit l set iff lane l is all-ones).
inline unsigned i32movemask(Vec32 mask) noexcept {
  return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(mask)));
}
/// Stores the low byte of each lane (every lane must hold 0..255).
inline void i32store_bytes(std::uint8_t* p, Vec32 v) noexcept {
  const __m128i words = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                        _mm256_extracti128_si256(v, 1));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p),
                   _mm_packus_epi16(words, words));
}
inline Vec32 i32and(Vec32 a, Vec32 b) noexcept {
  return _mm256_and_si256(a, b);
}
inline Vec32 i32or(Vec32 a, Vec32 b) noexcept {
  return _mm256_or_si256(a, b);
}
/// Logical shifts of every lane by one run-time count (< 32).
inline Vec32 i32srl(Vec32 v, unsigned count) noexcept {
  return _mm256_srl_epi32(v, _mm_cvtsi32_si128(static_cast<int>(count)));
}
inline Vec32 i32sll(Vec32 v, unsigned count) noexcept {
  return _mm256_sll_epi32(v, _mm_cvtsi32_si128(static_cast<int>(count)));
}
/// vpgatherdd merges into its destination, so the CPU reads that register.
/// Given a constant all-ones mask, GCC drops the zero merge source and
/// leaves whatever the register last held, which chains every gather to
/// an unrelated earlier result (in a loop, across iterations). An opaque
/// mask keeps the zeroed destination, a dependency-breaking idiom.
template <int kScale>
inline Vec32 gatherdd_(const void* base, Vec32 idx) noexcept {
  __m256i mask = _mm256_set1_epi32(-1);
  asm("" : "+x"(mask));
  return _mm256_mask_i32gather_epi32(_mm256_setzero_si256(),
                                     static_cast<const int*>(base), idx,
                                     mask, kScale);
}
/// base[idx[l]] per lane, 4-byte elements; every idx lane is non-negative.
inline Vec32 i32gather(const std::uint32_t* base, Vec32 idx) noexcept {
  return gatherdd_<4>(base, idx);
}
/// base[idx[l]] per lane, zero-extended: a 4-byte gather masked to 0xff,
/// so the 3 bytes after every indexed byte must be readable.
inline Vec32 i32gather_bytes(const std::uint8_t* base, Vec32 idx) noexcept {
  return _mm256_and_si256(gatherdd_<1>(base, idx), _mm256_set1_epi32(0xff));
}
/// Transposes the kLanes32 x kLanes32 block whose row i is rows[i].
inline void i32transpose(Vec32 (&rows)[kLanes32]) noexcept {
  Vec32 t[8];
  for (unsigned i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_epi32(rows[i], rows[i + 1]);
    t[i + 1] = _mm256_unpackhi_epi32(rows[i], rows[i + 1]);
  }
  // u[4h + k] holds element k (and k + 4, upper half) of rows 4h .. 4h + 3.
  Vec32 u[8];
  for (unsigned h = 0; h < 2; ++h) {
    const Vec32* s = t + 4 * h;
    u[4 * h + 0] = _mm256_unpacklo_epi64(s[0], s[2]);
    u[4 * h + 1] = _mm256_unpackhi_epi64(s[0], s[2]);
    u[4 * h + 2] = _mm256_unpacklo_epi64(s[1], s[3]);
    u[4 * h + 3] = _mm256_unpackhi_epi64(s[1], s[3]);
  }
  for (unsigned k = 0; k < 4; ++k) {
    rows[k] = _mm256_permute2x128_si256(u[k], u[4 + k], 0x20);
    rows[k + 4] = _mm256_permute2x128_si256(u[k], u[4 + k], 0x31);
  }
}

struct Acc64 {
  __m256i lo = _mm256_setzero_si256();
  __m256i hi = _mm256_setzero_si256();
};
/// acc += each lane of v, sign-extended to 64 bits.
inline void acc_add(Acc64& acc, Vec32 v) noexcept {
  acc.lo = _mm256_add_epi64(acc.lo,
                            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)));
  acc.hi = _mm256_add_epi64(
      acc.hi, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1)));
}
inline std::int64_t acc_sum(const Acc64& acc) noexcept {
  alignas(32) std::int64_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc.lo);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4), acc.hi);
  std::int64_t sum = 0;
  for (const std::int64_t lane : lanes) sum += lane;
  return sum;
}

/// Bit i set iff a[i] == b[i], for the 64 bytes at a and b.
inline std::uint64_t bytes_eq64(const std::uint8_t* a,
                                const std::uint8_t* b) noexcept {
  std::uint64_t equal = 0;
  for (unsigned i = 0; i < 64; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    equal |= std::uint64_t{static_cast<std::uint32_t>(
                 _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, y)))}
             << i;
  }
  return equal;
}
/// Bit i set iff a[i] == value, for the 64 bytes at a.
inline std::uint64_t bytes_eq64(const std::uint8_t* a,
                                std::uint8_t value) noexcept {
  const __m256i y = _mm256_set1_epi8(static_cast<char>(value));
  std::uint64_t equal = 0;
  for (unsigned i = 0; i < 64; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    equal |= std::uint64_t{static_cast<std::uint32_t>(
                 _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, y)))}
             << i;
  }
  return equal;
}

#elif defined(DALUT_SIMD_SSE2)

inline constexpr unsigned kLanes32 = 4;
using Vec32 = __m128i;

inline Vec32 i32zero() noexcept { return _mm_setzero_si128(); }
inline Vec32 i32broadcast(std::int32_t v) noexcept { return _mm_set1_epi32(v); }
inline Vec32 i32load(const std::int32_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void i32store(std::int32_t* p, Vec32 v) noexcept {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
inline Vec32 i32add(Vec32 a, Vec32 b) noexcept { return _mm_add_epi32(a, b); }
inline Vec32 i32sub(Vec32 a, Vec32 b) noexcept { return _mm_sub_epi32(a, b); }
inline Vec32 i32cmpgt(Vec32 a, Vec32 b) noexcept {
  return _mm_cmpgt_epi32(a, b);
}
inline Vec32 i32select(Vec32 mask, Vec32 a, Vec32 b) noexcept {
  return _mm_or_si128(_mm_and_si128(mask, a), _mm_andnot_si128(mask, b));
}
inline unsigned i32movemask(Vec32 mask) noexcept {
  return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(mask)));
}
inline void i32store_bytes(std::uint8_t* p, Vec32 v) noexcept {
  const __m128i words = _mm_packs_epi32(v, v);
  const int bytes = _mm_cvtsi128_si32(_mm_packus_epi16(words, words));
  std::memcpy(p, &bytes, 4);
}
inline Vec32 i32and(Vec32 a, Vec32 b) noexcept { return _mm_and_si128(a, b); }
inline Vec32 i32or(Vec32 a, Vec32 b) noexcept { return _mm_or_si128(a, b); }
inline Vec32 i32srl(Vec32 v, unsigned count) noexcept {
  return _mm_srl_epi32(v, _mm_cvtsi32_si128(static_cast<int>(count)));
}
inline Vec32 i32sll(Vec32 v, unsigned count) noexcept {
  return _mm_sll_epi32(v, _mm_cvtsi32_si128(static_cast<int>(count)));
}
/// SSE2 has no gather: the lanes load one by one.
inline Vec32 i32gather(const std::uint32_t* base, Vec32 idx) noexcept {
  alignas(16) std::uint32_t at[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(at), idx);
  return _mm_setr_epi32(
      static_cast<int>(base[at[0]]), static_cast<int>(base[at[1]]),
      static_cast<int>(base[at[2]]), static_cast<int>(base[at[3]]));
}
inline Vec32 i32gather_bytes(const std::uint8_t* base, Vec32 idx) noexcept {
  alignas(16) std::uint32_t at[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(at), idx);
  return _mm_setr_epi32(base[at[0]], base[at[1]], base[at[2]], base[at[3]]);
}
inline void i32transpose(Vec32 (&rows)[kLanes32]) noexcept {
  const Vec32 t0 = _mm_unpacklo_epi32(rows[0], rows[1]);
  const Vec32 t1 = _mm_unpacklo_epi32(rows[2], rows[3]);
  const Vec32 t2 = _mm_unpackhi_epi32(rows[0], rows[1]);
  const Vec32 t3 = _mm_unpackhi_epi32(rows[2], rows[3]);
  rows[0] = _mm_unpacklo_epi64(t0, t1);
  rows[1] = _mm_unpackhi_epi64(t0, t1);
  rows[2] = _mm_unpacklo_epi64(t2, t3);
  rows[3] = _mm_unpackhi_epi64(t2, t3);
}

struct Acc64 {
  __m128i lo = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
};
inline void acc_add(Acc64& acc, Vec32 v) noexcept {
  const __m128i sign = _mm_srai_epi32(v, 31);
  acc.lo = _mm_add_epi64(acc.lo, _mm_unpacklo_epi32(v, sign));
  acc.hi = _mm_add_epi64(acc.hi, _mm_unpackhi_epi32(v, sign));
}
inline std::int64_t acc_sum(const Acc64& acc) noexcept {
  alignas(16) std::int64_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc.lo);
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes + 2), acc.hi);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

inline std::uint64_t bytes_eq64(const std::uint8_t* a,
                                const std::uint8_t* b) noexcept {
  std::uint64_t equal = 0;
  for (unsigned i = 0; i < 64; i += 16) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i y = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    equal |= std::uint64_t{static_cast<std::uint32_t>(
                 _mm_movemask_epi8(_mm_cmpeq_epi8(x, y)))}
             << i;
  }
  return equal;
}
inline std::uint64_t bytes_eq64(const std::uint8_t* a,
                                std::uint8_t value) noexcept {
  const __m128i y = _mm_set1_epi8(static_cast<char>(value));
  std::uint64_t equal = 0;
  for (unsigned i = 0; i < 64; i += 16) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    equal |= std::uint64_t{static_cast<std::uint32_t>(
                 _mm_movemask_epi8(_mm_cmpeq_epi8(x, y)))}
             << i;
  }
  return equal;
}

#elif defined(DALUT_SIMD_NEON)

inline constexpr unsigned kLanes32 = 4;
using Vec32 = int32x4_t;

inline Vec32 i32zero() noexcept { return vdupq_n_s32(0); }
inline Vec32 i32broadcast(std::int32_t v) noexcept { return vdupq_n_s32(v); }
inline Vec32 i32load(const std::int32_t* p) noexcept { return vld1q_s32(p); }
inline void i32store(std::int32_t* p, Vec32 v) noexcept { vst1q_s32(p, v); }
inline Vec32 i32add(Vec32 a, Vec32 b) noexcept { return vaddq_s32(a, b); }
inline Vec32 i32sub(Vec32 a, Vec32 b) noexcept { return vsubq_s32(a, b); }
inline Vec32 i32cmpgt(Vec32 a, Vec32 b) noexcept {
  return vreinterpretq_s32_u32(vcgtq_s32(a, b));
}
inline Vec32 i32select(Vec32 mask, Vec32 a, Vec32 b) noexcept {
  return vbslq_s32(vreinterpretq_u32_s32(mask), a, b);
}
inline unsigned i32movemask(Vec32 mask) noexcept {
  const uint32x4_t bits = vshrq_n_u32(vreinterpretq_u32_s32(mask), 31);
  const int32x4_t shifts = {0, 1, 2, 3};
  return vaddvq_u32(vshlq_u32(bits, shifts));
}
inline void i32store_bytes(std::uint8_t* p, Vec32 v) noexcept {
  const uint16x4_t words = vreinterpret_u16_s16(vmovn_s32(v));
  const uint8x8_t bytes = vmovn_u16(vcombine_u16(words, words));
  const std::uint32_t low = vget_lane_u32(vreinterpret_u32_u8(bytes), 0);
  std::memcpy(p, &low, 4);
}
inline Vec32 i32and(Vec32 a, Vec32 b) noexcept { return vandq_s32(a, b); }
inline Vec32 i32or(Vec32 a, Vec32 b) noexcept { return vorrq_s32(a, b); }
/// NEON shifts by a signed per-lane count: negative shifts right.
inline Vec32 i32srl(Vec32 v, unsigned count) noexcept {
  const int32x4_t right = vdupq_n_s32(-static_cast<int>(count));
  return vreinterpretq_s32_u32(vshlq_u32(vreinterpretq_u32_s32(v), right));
}
inline Vec32 i32sll(Vec32 v, unsigned count) noexcept {
  const int32x4_t left = vdupq_n_s32(static_cast<int>(count));
  return vreinterpretq_s32_u32(vshlq_u32(vreinterpretq_u32_s32(v), left));
}
/// NEON has no gather: the lanes load one by one.
inline Vec32 i32gather(const std::uint32_t* base, Vec32 idx) noexcept {
  alignas(16) std::uint32_t at[4];
  vst1q_u32(at, vreinterpretq_u32_s32(idx));
  const std::uint32_t lanes[4] = {base[at[0]], base[at[1]], base[at[2]],
                                  base[at[3]]};
  return vreinterpretq_s32_u32(vld1q_u32(lanes));
}
inline Vec32 i32gather_bytes(const std::uint8_t* base, Vec32 idx) noexcept {
  alignas(16) std::uint32_t at[4];
  vst1q_u32(at, vreinterpretq_u32_s32(idx));
  const std::uint32_t lanes[4] = {base[at[0]], base[at[1]], base[at[2]],
                                  base[at[3]]};
  return vreinterpretq_s32_u32(vld1q_u32(lanes));
}
inline void i32transpose(Vec32 (&rows)[kLanes32]) noexcept {
  const int32x4x2_t t01 = vtrnq_s32(rows[0], rows[1]);
  const int32x4x2_t t23 = vtrnq_s32(rows[2], rows[3]);
  rows[0] = vcombine_s32(vget_low_s32(t01.val[0]), vget_low_s32(t23.val[0]));
  rows[1] = vcombine_s32(vget_low_s32(t01.val[1]), vget_low_s32(t23.val[1]));
  rows[2] =
      vcombine_s32(vget_high_s32(t01.val[0]), vget_high_s32(t23.val[0]));
  rows[3] =
      vcombine_s32(vget_high_s32(t01.val[1]), vget_high_s32(t23.val[1]));
}

struct Acc64 {
  int64x2_t lo = vdupq_n_s64(0);
  int64x2_t hi = vdupq_n_s64(0);
};
inline void acc_add(Acc64& acc, Vec32 v) noexcept {
  acc.lo = vaddw_s32(acc.lo, vget_low_s32(v));
  acc.hi = vaddw_s32(acc.hi, vget_high_s32(v));
}
inline std::int64_t acc_sum(const Acc64& acc) noexcept {
  return vaddvq_s64(acc.lo) + vaddvq_s64(acc.hi);
}

#else  // scalar backend

inline constexpr unsigned kLanes32 = 1;
struct Vec32 {
  std::int32_t v;
};

inline Vec32 i32zero() noexcept { return {0}; }
inline Vec32 i32broadcast(std::int32_t v) noexcept { return {v}; }
inline Vec32 i32load(const std::int32_t* p) noexcept { return {*p}; }
inline void i32store(std::int32_t* p, Vec32 v) noexcept { *p = v.v; }
inline Vec32 i32add(Vec32 a, Vec32 b) noexcept { return {a.v + b.v}; }
inline Vec32 i32sub(Vec32 a, Vec32 b) noexcept { return {a.v - b.v}; }
inline Vec32 i32cmpgt(Vec32 a, Vec32 b) noexcept {
  return {a.v > b.v ? std::int32_t{-1} : std::int32_t{0}};
}
inline Vec32 i32select(Vec32 mask, Vec32 a, Vec32 b) noexcept {
  return mask.v != 0 ? a : b;
}
inline unsigned i32movemask(Vec32 mask) noexcept {
  return static_cast<unsigned>(mask.v) >> 31;
}
inline void i32store_bytes(std::uint8_t* p, Vec32 v) noexcept {
  *p = static_cast<std::uint8_t>(v.v);
}
inline Vec32 i32and(Vec32 a, Vec32 b) noexcept { return {a.v & b.v}; }
inline Vec32 i32or(Vec32 a, Vec32 b) noexcept { return {a.v | b.v}; }
inline Vec32 i32srl(Vec32 v, unsigned count) noexcept {
  return {static_cast<std::int32_t>(static_cast<std::uint32_t>(v.v) >> count)};
}
inline Vec32 i32sll(Vec32 v, unsigned count) noexcept {
  return {static_cast<std::int32_t>(static_cast<std::uint32_t>(v.v) << count)};
}
inline Vec32 i32gather(const std::uint32_t* base, Vec32 idx) noexcept {
  return {static_cast<std::int32_t>(base[static_cast<std::uint32_t>(idx.v)])};
}
inline Vec32 i32gather_bytes(const std::uint8_t* base, Vec32 idx) noexcept {
  return {base[static_cast<std::uint32_t>(idx.v)]};
}
inline void i32transpose(Vec32 (&)[kLanes32]) noexcept {}

struct Acc64 {
  std::int64_t v = 0;
};
inline void acc_add(Acc64& acc, Vec32 v) noexcept { acc.v += v.v; }
inline std::int64_t acc_sum(const Acc64& acc) noexcept { return acc.v; }

#endif

#if !defined(DALUT_SIMD_AVX2) && !defined(DALUT_SIMD_SSE2)
inline std::uint64_t bytes_eq64(const std::uint8_t* a,
                                const std::uint8_t* b) noexcept {
  std::uint64_t equal = 0;
  for (unsigned i = 0; i < 64; ++i) {
    equal |= std::uint64_t{a[i] == b[i]} << i;
  }
  return equal;
}
inline std::uint64_t bytes_eq64(const std::uint8_t* a,
                                std::uint8_t value) noexcept {
  std::uint64_t equal = 0;
  for (unsigned i = 0; i < 64; ++i) {
    equal |= std::uint64_t{a[i] == value} << i;
  }
  return equal;
}
#endif

// ---- Fixed granules for the interleaved gather --------------------------
// D2 is one {cost0, cost1} cell (16 bytes), D4 two adjacent cells. Both are
// defined for every backend so the blocked gather and the OptForPart row
// and column sums are backend-generic; on the scalar backend they compile
// to plain double moves.

#if defined(DALUT_SIMD_AVX2)

using D2 = __m128d;
using D4 = __m256d;

inline D2 loadu2(const double* p) noexcept { return _mm_loadu_pd(p); }
inline void storeu2(double* p, D2 v) noexcept { _mm_storeu_pd(p, v); }
inline D4 loadu4(const double* p) noexcept { return _mm256_loadu_pd(p); }
inline void storeu4(double* p, D4 v) noexcept { _mm256_storeu_pd(p, v); }
inline D2 low2(D4 v) noexcept { return _mm256_castpd256_pd128(v); }
inline D2 high2(D4 v) noexcept { return _mm256_extractf128_pd(v, 1); }
inline D4 join2(D2 lo, D2 hi) noexcept { return _mm256_set_m128d(hi, lo); }
inline D2 add2(D2 a, D2 b) noexcept { return _mm_add_pd(a, b); }
inline D4 add4(D4 a, D4 b) noexcept { return _mm256_add_pd(a, b); }
inline D4 sub4(D4 a, D4 b) noexcept { return _mm256_sub_pd(a, b); }

/// a = [a0 a1 a2 a3], b = [b0 b1 b2 b3] ->
/// lo = [a0 b0 a1 b1], hi = [a2 b2 a3 b3].
inline void interleave4(D4 a, D4 b, D4& lo, D4& hi) noexcept {
  const D4 t0 = _mm256_unpacklo_pd(a, b);  // [a0 b0 a2 b2]
  const D4 t1 = _mm256_unpackhi_pd(a, b);  // [a1 b1 a3 b3]
  lo = _mm256_permute2f128_pd(t0, t1, 0x20);
  hi = _mm256_permute2f128_pd(t0, t1, 0x31);
}

/// Inverse of interleave4: a = [e0 o0 e1 o1], b = [e2 o2 e3 o3] ->
/// evens = [e0 e1 e2 e3], odds = [o0 o1 o2 o3].
inline void deinterleave4(D4 a, D4 b, D4& evens, D4& odds) noexcept {
  const D4 t0 = _mm256_permute2f128_pd(a, b, 0x20);  // [e0 o0 e2 o2]
  const D4 t1 = _mm256_permute2f128_pd(a, b, 0x31);  // [e1 o1 e3 o3]
  evens = _mm256_unpacklo_pd(t0, t1);
  odds = _mm256_unpackhi_pd(t0, t1);
}

#else  // SSE2 / NEON / scalar: D4 as a pair of D2 halves

#if defined(DALUT_SIMD_SSE2)
using D2 = __m128d;
inline D2 loadu2(const double* p) noexcept { return _mm_loadu_pd(p); }
inline void storeu2(double* p, D2 v) noexcept { _mm_storeu_pd(p, v); }
inline D2 add2(D2 a, D2 b) noexcept { return _mm_add_pd(a, b); }
inline D2 sub2_(D2 a, D2 b) noexcept { return _mm_sub_pd(a, b); }
inline D2 unpacklo2_(D2 a, D2 b) noexcept { return _mm_unpacklo_pd(a, b); }
inline D2 unpackhi2_(D2 a, D2 b) noexcept { return _mm_unpackhi_pd(a, b); }
#elif defined(DALUT_SIMD_NEON)
using D2 = float64x2_t;
inline D2 loadu2(const double* p) noexcept { return vld1q_f64(p); }
inline void storeu2(double* p, D2 v) noexcept { vst1q_f64(p, v); }
inline D2 add2(D2 a, D2 b) noexcept { return vaddq_f64(a, b); }
inline D2 sub2_(D2 a, D2 b) noexcept { return vsubq_f64(a, b); }
inline D2 unpacklo2_(D2 a, D2 b) noexcept { return vzip1q_f64(a, b); }
inline D2 unpackhi2_(D2 a, D2 b) noexcept { return vzip2q_f64(a, b); }
#else
struct D2 {
  double v[2];
};
inline D2 loadu2(const double* p) noexcept { return {{p[0], p[1]}}; }
inline void storeu2(double* p, D2 v) noexcept {
  p[0] = v.v[0];
  p[1] = v.v[1];
}
inline D2 add2(D2 a, D2 b) noexcept {
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1]}};
}
inline D2 sub2_(D2 a, D2 b) noexcept {
  return {{a.v[0] - b.v[0], a.v[1] - b.v[1]}};
}
inline D2 unpacklo2_(D2 a, D2 b) noexcept { return {{a.v[0], b.v[0]}}; }
inline D2 unpackhi2_(D2 a, D2 b) noexcept { return {{a.v[1], b.v[1]}}; }
#endif

struct D4 {
  D2 lo, hi;
};

inline D4 loadu4(const double* p) noexcept {
  return {loadu2(p), loadu2(p + 2)};
}
inline void storeu4(double* p, D4 v) noexcept {
  storeu2(p, v.lo);
  storeu2(p + 2, v.hi);
}
inline D2 low2(D4 v) noexcept { return v.lo; }
inline D2 high2(D4 v) noexcept { return v.hi; }
inline D4 join2(D2 lo, D2 hi) noexcept { return {lo, hi}; }
inline D4 add4(D4 a, D4 b) noexcept {
  return {add2(a.lo, b.lo), add2(a.hi, b.hi)};
}
inline D4 sub4(D4 a, D4 b) noexcept {
  return {sub2_(a.lo, b.lo), sub2_(a.hi, b.hi)};
}

inline void interleave4(D4 a, D4 b, D4& lo, D4& hi) noexcept {
  lo = {unpacklo2_(a.lo, b.lo), unpackhi2_(a.lo, b.lo)};
  hi = {unpacklo2_(a.hi, b.hi), unpackhi2_(a.hi, b.hi)};
}

inline void deinterleave4(D4 a, D4 b, D4& evens, D4& odds) noexcept {
  evens = {unpacklo2_(a.lo, a.hi), unpacklo2_(b.lo, b.hi)};
  odds = {unpackhi2_(a.lo, a.hi), unpackhi2_(b.lo, b.hi)};
}

#endif

}  // namespace dalut::util::simd

namespace dalut::util {

/// Minimal allocator giving std::vector storage 64-byte (cache line /
/// full-vector) alignment. Scratch buffers on the evaluation hot path use
/// aligned_vector so kernel base pointers sit on cache-line boundaries.
template <typename T, std::size_t kAlign = 64>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert(kAlign >= alignof(T) && (kAlign & (kAlign - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");

  AlignedAllocator() noexcept = default;
  template <typename U>
  // NOLINTNEXTLINE(google-explicit-constructor): allocator rebinding.
  AlignedAllocator(const AlignedAllocator<U, kAlign>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, kAlign>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlign});
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// std::vector with 64-byte-aligned storage.
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

/// Debug-build check that a kernel base pointer honours the alignment
/// contract of aligned_vector.
inline void assert_aligned64([[maybe_unused]] const void* p) noexcept {
  assert(reinterpret_cast<std::uintptr_t>(p) % 64 == 0);
}

}  // namespace dalut::util
