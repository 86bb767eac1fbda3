#ifndef ONEX_COMMON_HASH_H_
#define ONEX_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace onex {

/// FNV-1a 64-bit over a byte range: the integrity checksum of every ONEX
/// persistence format (WAL records, ONEXARENA sections) and the
/// fingerprint the golden tests use. Not cryptographic — it guards against
/// torn writes and media corruption, not adversaries with write access to
/// the data dir.
std::uint64_t Fnv1a64(std::string_view bytes);

}  // namespace onex

#endif  // ONEX_COMMON_HASH_H_
