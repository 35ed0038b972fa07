// Shared deterministic hashing. FNV-1a 64 is the repo's one checksum
// primitive: WAL record framing, checkpoint snapshot identity
// (dtx/wal.hpp) and wire-frame checksums (net/codec.hpp) all use it, so a
// constant can never drift between the durability and transport layers.
#pragma once

#include <cstdint>
#include <string_view>

namespace dtx::util {

/// `seed` continues a hash: fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b).
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::string_view text,
    std::uint64_t seed = 1469598103934665603ULL) noexcept {
  std::uint64_t hash = seed;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace dtx::util
