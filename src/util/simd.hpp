// Portable SIMD wrapper for the evaluation hot path.
//
// One backend is fixed at compile time from the compiler's target macros:
// AVX2 (4 doubles per vector), SSE2 (2), or a scalar struct backend (1)
// for every other target. Building with -DDALUT_SIMD=OFF defines
// DALUT_SIMD_DISABLE and takes the scalar backend regardless of the target.
// enabled() reports the choice as a constant: on the scalar backend the
// kernels take their plain loops.
//
// The wrapper exposes exactly the operations the kernels need: three lane
// granularities and one byte shuffle.
//
//  * Lane vectors (VecD / VecI, kLanes wide): elementwise double and i32
//    arithmetic for the bit-cost and error kernels.
//  * Full-register int32 lanes (Vec32, kLanes32 wide: twice kLanes on
//    every vector backend) for the integer OptForPart kernels, with a
//    widening 64-bit accumulator, an in-register transpose, a narrowing
//    byte store and 64-byte compares; and for the serve read kernel, with
//    and, run-time-count shifts and a gather of 4-byte elements. The
//    gather is one vpgatherdd on AVX2 and lane-by-lane loads on SSE2.
//  * Full-register int64 lanes (Vec64, kLanes64 = kLanes wide) for the
//    same OptForPart kernels on losses past the int32 bound: add, subtract,
//    signed compare (vpcmpgtq on AVX2, emulated with 32-bit compares on
//    SSE2), select, the narrowing byte store and the in-register transpose.
//  * One byte-shuffle op (select_blocks2) for the whole-domain walk of
//    DecomposedBit::eval_all: two vpshufb over 16-entry windows on AVX2.
//    pshufb is SSSE3, so the SSE2 and scalar backends run a one-lane loop
//    over the same tables.
//
// Bit-identity contract: no operation here reassociates floating-point
// arithmetic. Vector adds are elementwise onto independent accumulators,
// bitwise blends select exactly the double the scalar ternary would, and
// integer->double conversions are exact for the value ranges the kernels
// feed them (|v| <= 2^26 everywhere, squares taken in the double domain).
// Kernels that need a sequential reduction keep it scalar and only
// vectorize the elementwise term computation, so every backend's results
// are bit-identical to the reference computations. The SimdIdentity tests
// check the backend each build compiles against those references
// (docs/performance.md, "SIMD dispatch & out-of-core tables").
#pragma once

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
#else
#define DALUT_SIMD_SCALAR 1
#endif

namespace dalut::util::simd {

enum class Isa { kScalar, kSse2, kAvx2 };

#if defined(DALUT_SIMD_AVX2)
inline constexpr Isa kIsa = Isa::kAvx2;
inline constexpr unsigned kLanes = 4;
#elif defined(DALUT_SIMD_SSE2)
inline constexpr Isa kIsa = Isa::kSse2;
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
    case Isa::kScalar:
      return "scalar";
  }
  return "scalar";
}

/// True when the build has a vector backend. The kernels take their vector
/// paths exactly then; a scalar build takes their plain loops.
constexpr bool enabled() noexcept { return kIsa != Isa::kScalar; }

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
inline VecD dmul(VecD a, VecD b) noexcept { return _mm256_mul_pd(a, b); }
inline VecD dand(VecD a, VecD b) noexcept { return _mm256_and_pd(a, b); }
/// Lane mask (all-ones / all-zeros) of a != b, ordered non-signalling.
inline VecD dcmpneq(VecD a, VecD b) noexcept {
  return _mm256_cmp_pd(a, b, _CMP_NEQ_OQ);
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
inline VecD dmul(VecD a, VecD b) noexcept { return _mm_mul_pd(a, b); }
inline VecD dand(VecD a, VecD b) noexcept { return _mm_and_pd(a, b); }
inline VecD dcmpneq(VecD a, VecD b) noexcept { return _mm_cmpneq_pd(a, b); }

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
inline VecD dmul(VecD a, VecD b) noexcept { return {a.v * b.v}; }
inline VecD dand(VecD a, VecD b) noexcept {
  return {std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.v) &
                                std::bit_cast<std::uint64_t>(b.v))};
}
inline VecD dcmpneq(VecD a, VecD b) noexcept {
  return {std::bit_cast<double>(a.v != b.v ? ~std::uint64_t{0}
                                           : std::uint64_t{0})};
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
// SSE2, 1 on the scalar backend), for the integer OptForPart kernels and
// the serve read kernel (hw/stream_engine.cpp). Integer adds are exact and
// associative, so these kernels may sum in any order; the callers
// guarantee that no lane overflows. Acc64 widens lanes into 64-bit
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
/// Logical shifts of every lane by one run-time count (< 32).
inline Vec32 i32srl(Vec32 v, unsigned count) noexcept {
  return _mm256_srl_epi32(v, _mm_cvtsi32_si128(static_cast<int>(count)));
}
inline Vec32 i32sll(Vec32 v, unsigned count) noexcept {
  return _mm256_sll_epi32(v, _mm_cvtsi32_si128(static_cast<int>(count)));
}
/// base[idx[l]] per lane, 4-byte elements; every idx lane is non-negative.
///
/// vpgatherdd merges into its destination, so the CPU reads that register.
/// Given a constant all-ones mask, GCC drops the zero merge source and
/// leaves whatever the register last held, which chains every gather to
/// an unrelated earlier result (in a loop, across iterations). An opaque
/// mask keeps the zeroed destination, a dependency-breaking idiom.
inline Vec32 i32gather(const std::uint32_t* base, Vec32 idx) noexcept {
  __m256i mask = _mm256_set1_epi32(-1);
  asm("" : "+x"(mask));
  return _mm256_mask_i32gather_epi32(_mm256_setzero_si256(),
                                     reinterpret_cast<const int*>(base), idx,
                                     mask, 4);
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
inline Vec32 i32srl(Vec32 v, unsigned count) noexcept {
  return {static_cast<std::int32_t>(static_cast<std::uint32_t>(v.v) >> count)};
}
inline Vec32 i32sll(Vec32 v, unsigned count) noexcept {
  return {static_cast<std::int32_t>(static_cast<std::uint32_t>(v.v) << count)};
}
inline Vec32 i32gather(const std::uint32_t* base, Vec32 idx) noexcept {
  return {static_cast<std::int32_t>(base[static_cast<std::uint32_t>(idx.v)])};
}
inline void i32transpose(Vec32 (&)[kLanes32]) noexcept {}

struct Acc64 {
  std::int64_t v = 0;
};
inline void acc_add(Acc64& acc, Vec32 v) noexcept { acc.v += v.v; }
inline std::int64_t acc_sum(const Acc64& acc) noexcept { return acc.v; }

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

// ---- Full-register int64 lanes ------------------------------------------
// Vec64 fills a whole register with i64 lanes (kLanes64: 4 on AVX2, 2 on
// SSE2, 1 on the scalar backend), for the integer OptForPart kernels on
// losses past the int32 bound. The callers guarantee that no lane
// overflows.

#if defined(DALUT_SIMD_AVX2)

inline constexpr unsigned kLanes64 = 4;
using Vec64 = __m256i;

inline Vec64 i64zero() noexcept { return _mm256_setzero_si256(); }
inline Vec64 i64broadcast(std::int64_t v) noexcept {
  return _mm256_set1_epi64x(v);
}
inline Vec64 i64load(const std::int64_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void i64store(std::int64_t* p, Vec64 v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline Vec64 i64add(Vec64 a, Vec64 b) noexcept {
  return _mm256_add_epi64(a, b);
}
inline Vec64 i64sub(Vec64 a, Vec64 b) noexcept {
  return _mm256_sub_epi64(a, b);
}
/// Signed per-lane a > b as an all-ones/all-zeros lane mask.
inline Vec64 i64cmpgt(Vec64 a, Vec64 b) noexcept {
  return _mm256_cmpgt_epi64(a, b);
}
/// mask ? a : b, per lane; every mask lane is all-ones or all-zeros.
inline Vec64 i64select(Vec64 mask, Vec64 a, Vec64 b) noexcept {
  return _mm256_blendv_epi8(b, a, mask);
}
/// One bit per lane of a lane mask (bit l set iff lane l is all-ones).
inline unsigned i64movemask(Vec64 mask) noexcept {
  return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(mask)));
}
/// Stores the low byte of each lane (every lane must hold 0..255).
inline void i64store_bytes(std::uint8_t* p, Vec64 v) noexcept {
  const __m128i dwords = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      v, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6)));
  const __m128i words = _mm_packs_epi32(dwords, dwords);
  const int bytes = _mm_cvtsi128_si32(_mm_packus_epi16(words, words));
  std::memcpy(p, &bytes, 4);
}
/// Transposes the kLanes64 x kLanes64 block whose row i is rows[i].
inline void i64transpose(Vec64 (&rows)[kLanes64]) noexcept {
  const Vec64 t0 = _mm256_unpacklo_epi64(rows[0], rows[1]);
  const Vec64 t1 = _mm256_unpackhi_epi64(rows[0], rows[1]);
  const Vec64 t2 = _mm256_unpacklo_epi64(rows[2], rows[3]);
  const Vec64 t3 = _mm256_unpackhi_epi64(rows[2], rows[3]);
  rows[0] = _mm256_permute2x128_si256(t0, t2, 0x20);
  rows[1] = _mm256_permute2x128_si256(t1, t3, 0x20);
  rows[2] = _mm256_permute2x128_si256(t0, t2, 0x31);
  rows[3] = _mm256_permute2x128_si256(t1, t3, 0x31);
}

#elif defined(DALUT_SIMD_SSE2)

inline constexpr unsigned kLanes64 = 2;
using Vec64 = __m128i;

inline Vec64 i64zero() noexcept { return _mm_setzero_si128(); }
inline Vec64 i64broadcast(std::int64_t v) noexcept {
  return _mm_set1_epi64x(v);
}
inline Vec64 i64load(const std::int64_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void i64store(std::int64_t* p, Vec64 v) noexcept {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
inline Vec64 i64add(Vec64 a, Vec64 b) noexcept { return _mm_add_epi64(a, b); }
inline Vec64 i64sub(Vec64 a, Vec64 b) noexcept { return _mm_sub_epi64(a, b); }
/// SSE2 has no 64-bit compare (pcmpgtq is SSE4.2). The high dwords compare
/// signed and the low dwords unsigned (their sign bits flipped); a lane is
/// greater when its high dword is, or when the high dwords tie and its low
/// dword is. The verdict lands in the high dword, then fills the lane.
inline Vec64 i64cmpgt(Vec64 a, Vec64 b) noexcept {
  const __m128i flip = _mm_set_epi32(0, INT32_MIN, 0, INT32_MIN);
  const __m128i gt =
      _mm_cmpgt_epi32(_mm_xor_si128(a, flip), _mm_xor_si128(b, flip));
  const __m128i eq = _mm_cmpeq_epi32(a, b);
  const __m128i low_gt = _mm_shuffle_epi32(gt, _MM_SHUFFLE(2, 2, 0, 0));
  const __m128i high = _mm_or_si128(gt, _mm_and_si128(eq, low_gt));
  return _mm_shuffle_epi32(high, _MM_SHUFFLE(3, 3, 1, 1));
}
inline Vec64 i64select(Vec64 mask, Vec64 a, Vec64 b) noexcept {
  return _mm_or_si128(_mm_and_si128(mask, a), _mm_andnot_si128(mask, b));
}
inline unsigned i64movemask(Vec64 mask) noexcept {
  return static_cast<unsigned>(_mm_movemask_pd(_mm_castsi128_pd(mask)));
}
inline void i64store_bytes(std::uint8_t* p, Vec64 v) noexcept {
  const __m128i dwords = _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 0, 2, 0));
  const __m128i words = _mm_packs_epi32(dwords, dwords);
  const int bytes = _mm_cvtsi128_si32(_mm_packus_epi16(words, words));
  std::memcpy(p, &bytes, 2);
}
inline void i64transpose(Vec64 (&rows)[kLanes64]) noexcept {
  const Vec64 first = _mm_unpacklo_epi64(rows[0], rows[1]);
  rows[1] = _mm_unpackhi_epi64(rows[0], rows[1]);
  rows[0] = first;
}

#else  // scalar backend

inline constexpr unsigned kLanes64 = 1;
struct Vec64 {
  std::int64_t v;
};

inline Vec64 i64zero() noexcept { return {0}; }
inline Vec64 i64broadcast(std::int64_t v) noexcept { return {v}; }
inline Vec64 i64load(const std::int64_t* p) noexcept { return {*p}; }
inline void i64store(std::int64_t* p, Vec64 v) noexcept { *p = v.v; }
inline Vec64 i64add(Vec64 a, Vec64 b) noexcept { return {a.v + b.v}; }
inline Vec64 i64sub(Vec64 a, Vec64 b) noexcept { return {a.v - b.v}; }
inline Vec64 i64cmpgt(Vec64 a, Vec64 b) noexcept {
  return {a.v > b.v ? std::int64_t{-1} : std::int64_t{0}};
}
inline Vec64 i64select(Vec64 mask, Vec64 a, Vec64 b) noexcept {
  return mask.v != 0 ? a : b;
}
inline unsigned i64movemask(Vec64 mask) noexcept {
  return static_cast<unsigned>(static_cast<std::uint64_t>(mask.v) >> 63);
}
inline void i64store_bytes(std::uint8_t* p, Vec64 v) noexcept {
  *p = static_cast<std::uint8_t>(v.v);
}
inline void i64transpose(Vec64 (&)[kLanes64]) noexcept {}

#endif

// ---- Byte shuffles ------------------------------------------------------

/// Two 16-byte blocks of a table lookup pair: for k = 0, 1 and i < 16,
///   out[16 k + i] = (rows[k][rlo[i]] & cols[k][clo[i]]) != 0 ? 1 : 0.
/// Every rlo and clo entry is below 16, and rows[k] and cols[k] each point
/// at 16 readable bytes (the AVX2 body loads whole windows).
inline void select_blocks2(std::uint8_t* out,
                           const std::uint8_t* const (&rows)[2],
                           const std::uint8_t* const (&cols)[2],
                           const std::uint8_t* rlo,
                           const std::uint8_t* clo) noexcept {
#if defined(DALUT_SIMD_AVX2)
  const auto window = [](const std::uint8_t* const (&p)[2]) {
    return _mm256_inserti128_si256(
        _mm256_castsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p[0]))),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p[1])), 1);
  };
  const auto index = [](const std::uint8_t* p) {
    return _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  };
  // vpshufb shuffles each 128-bit lane within itself: lane k reads block k.
  const __m256i hit =
      _mm256_and_si256(_mm256_shuffle_epi8(window(rows), index(rlo)),
                       _mm256_shuffle_epi8(window(cols), index(clo)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_min_epu8(hit, _mm256_set1_epi8(1)));
#else
  for (unsigned k = 0; k < 2; ++k) {
    for (unsigned i = 0; i < 16; ++i) {
      out[16 * k + i] = (rows[k][rlo[i]] & cols[k][clo[i]]) != 0 ? 1 : 0;
    }
  }
#endif
}

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
