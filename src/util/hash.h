// FNV-1a 64-bit hashing, shared by the model-cache fingerprint
// (core/predictor.cc) and the plan-fingerprint prediction memoization
// (core/prediction_cache.h), and the splitmix64 finalizer that spreads page
// ids over hash buckets (storage/page_id.h) and objects over storage
// channels (storage/os_cache.h). Not cryptographic; callers that need
// correctness under collisions must store and compare the full key.
#ifndef PYTHIA_UTIL_HASH_H_
#define PYTHIA_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pythia {

inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline uint64_t FnvMix(uint64_t h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

template <typename T>
uint64_t FnvPod(uint64_t h, const T& v) {
  return FnvMix(h, &v, sizeof(v));
}

inline uint64_t FnvString(uint64_t h, std::string_view s) {
  return FnvMix(h, s.data(), s.size());
}

inline uint64_t SplitMix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace pythia

#endif  // PYTHIA_UTIL_HASH_H_
