#include "onex/ts/subsequence.h"

#include <cstddef>
#include <cstdint>

namespace onex {

Status CheckMemberLimits(std::size_t num_series, std::size_t longest_series) {
  // Exclusive bound of a 32-bit field: the count of values it can hold.
  constexpr std::uint64_t kFieldValues = std::uint64_t{1} << 32;
  if (num_series > kFieldValues) {
    return Status::InvalidArgument(StrFormat(
        "dataset has %zu series; a group member addresses at most %llu",
        num_series, static_cast<unsigned long long>(kFieldValues)));
  }
  if (longest_series > kFieldValues) {
    return Status::InvalidArgument(StrFormat(
        "a series has %zu points; a group member starts below %llu",
        longest_series, static_cast<unsigned long long>(kFieldValues)));
  }
  return Status::OK();
}

Status CheckMemberLimits(const Dataset& ds) {
  return CheckMemberLimits(ds.size(), ds.MaxLength());
}

}  // namespace onex
