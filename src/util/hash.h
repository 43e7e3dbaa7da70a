// FNV-1a, xfair's one byte hash. It fingerprints datasets for run
// provenance (obs/run_report) and keys each row's counterfactual stream
// on the row's feature bytes (explain/counterfactual), so per-row
// randomness follows a row's content, not its position.

#ifndef XFAIR_UTIL_HASH_H_
#define XFAIR_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

namespace xfair {

/// The 64-bit FNV-1a offset basis: the hash of no bytes.
inline constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// Folds `bytes` bytes at `data` into the running 64-bit FNV-1a hash `h`.
inline uint64_t Fnv1a(uint64_t h, const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace xfair

#endif  // XFAIR_UTIL_HASH_H_
