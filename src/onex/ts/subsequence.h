#ifndef ONEX_TS_SUBSEQUENCE_H_
#define ONEX_TS_SUBSEQUENCE_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>

#include "onex/common/status.h"
#include "onex/common/string_utils.h"
#include "onex/ts/dataset.h"

namespace onex {

/// Lightweight reference to a contiguous subsequence of one series in a
/// Dataset: the currency of queries and analytics answers. Groups do not
/// store these; a length class keeps each member as an eight-byte MemberRef
/// and supplies the length itself.
struct SubseqRef {
  std::size_t series = 0;  ///< Index of the owning series in the Dataset.
  std::size_t start = 0;   ///< First position (inclusive).
  std::size_t length = 0;  ///< Number of points.

  std::size_t end() const { return start + length; }

  /// Resolves the reference against its dataset. The caller guarantees the
  /// ref was created for `ds` (debug-checked by Dataset::GetSlice callers).
  std::span<const double> Resolve(const Dataset& ds) const {
    return ds[series].Slice(start, length);
  }

  /// True when both refs address the same series and their index intervals
  /// intersect; seasonal mining uses this to discard trivial self-overlaps.
  bool Overlaps(const SubseqRef& other) const {
    return series == other.series && start < other.end() &&
           other.start < end();
  }

  std::string ToString() const {
    return StrFormat("s%zu[%zu..%zu)", series, start, start + length);
  }

  friend auto operator<=>(const SubseqRef&, const SubseqRef&) = default;
};

/// One group member as its length class stores it: (series, start) in 32
/// bits each, eight bytes a row. Groups hold millions of these; the class
/// supplies the length every one of its members shares, so a MemberView
/// reads them back as SubseqRefs. CheckMemberLimits keeps every dataset a
/// base is built, restored, written or loaded over within these fields.
struct MemberRef {
  std::uint32_t series = 0;
  std::uint32_t start = 0;

  /// The row of `ref`. Its series and start must fit 32 bits, which
  /// CheckMemberLimits guarantees for any subsequence of a checked dataset.
  static MemberRef Of(const SubseqRef& ref) {
    return {static_cast<std::uint32_t>(ref.series),
            static_cast<std::uint32_t>(ref.start)};
  }

  SubseqRef At(std::size_t length) const { return {series, start, length}; }
};

/// Refuses, with InvalidArgument, a dataset whose series indices or start
/// positions would not fit a MemberRef: more than 2^32 series, or a series
/// longer than 2^32 points. Takes the sizes rather than a Dataset so the
/// limit can be checked without materializing one.
Status CheckMemberLimits(std::size_t num_series, std::size_t longest_series);
Status CheckMemberLimits(const Dataset& ds);

/// One group's members, read as SubseqRefs of the class length: a
/// random-access range whose operator[] and iterator yield SubseqRef by
/// value. A span and the length; copying it copies no member.
class MemberView {
 public:
  /// Carries the row pointer and the length, not a pointer to its view, so
  /// it stays valid after a temporary view (members() returns by value) is
  /// gone.
  class Iterator {
   public:
    using iterator_concept = std::random_access_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = SubseqRef;
    using difference_type = std::ptrdiff_t;
    using reference = SubseqRef;

    Iterator() = default;
    Iterator(const MemberRef* row, std::size_t length)
        : row_(row), length_(length) {}

    SubseqRef operator*() const { return row_->At(length_); }
    SubseqRef operator[](difference_type n) const {
      return row_[n].At(length_);
    }
    Iterator& operator++() {
      ++row_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++row_;
      return old;
    }
    Iterator& operator--() {
      --row_;
      return *this;
    }
    Iterator operator--(int) {
      Iterator old = *this;
      --row_;
      return old;
    }
    Iterator& operator+=(difference_type n) {
      row_ += n;
      return *this;
    }
    Iterator& operator-=(difference_type n) {
      row_ -= n;
      return *this;
    }
    friend Iterator operator+(Iterator it, difference_type n) {
      return it += n;
    }
    friend Iterator operator+(difference_type n, Iterator it) {
      return it += n;
    }
    friend Iterator operator-(Iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const Iterator& a, const Iterator& b) {
      return a.row_ - b.row_;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.row_ == b.row_;
    }
    friend auto operator<=>(const Iterator& a, const Iterator& b) {
      return a.row_ <=> b.row_;
    }

   private:
    const MemberRef* row_ = nullptr;
    std::size_t length_ = 0;
  };

  MemberView() = default;
  MemberView(std::span<const MemberRef> rows, std::size_t length)
      : rows_(rows), length_(length) {}

  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  SubseqRef operator[](std::size_t i) const { return rows_[i].At(length_); }
  SubseqRef front() const { return rows_.front().At(length_); }
  Iterator begin() const { return {rows_.data(), length_}; }
  Iterator end() const { return {rows_.data() + rows_.size(), length_}; }

  /// The stored rows themselves, for code that copies or encodes them.
  std::span<const MemberRef> rows() const { return rows_; }

 private:
  std::span<const MemberRef> rows_;
  std::size_t length_ = 0;
};

static_assert(std::random_access_iterator<MemberView::Iterator>);

}  // namespace onex

#endif  // ONEX_TS_SUBSEQUENCE_H_
