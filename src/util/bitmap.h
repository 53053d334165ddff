#ifndef EMDBG_UTIL_BITMAP_H_
#define EMDBG_UTIL_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace emdbg {

/// Word-level span algebra over raw uint64_t arrays — the block matcher's
/// per-block masks (undecided / active / pass) live in worker scratch, not
/// in Bitmap objects, and are combined a word at a time (CNF/DNF as
/// AND/OR/ANDNOT instead of per-pair branches).
///
/// Every helper operates on ceil(nbits / 64) words and maintains the
/// invariant that bits at positions >= nbits are zero. Inputs are masked
/// defensively (a garbage tail in `src` never leaks into `dst`), so
/// Count() and Bitmap::OrSpan stay exact at every block length.
namespace bitspan {

/// Words needed for `nbits` bits.
constexpr size_t Words(size_t nbits) { return (nbits + 63) / 64; }

/// Valid-bit mask of the last word: all ones when nbits is a multiple of
/// 64 (or zero), else ones in the low nbits % 64 positions.
constexpr uint64_t TailMask(size_t nbits) {
  const size_t tail = nbits & 63;
  return tail == 0 ? ~uint64_t{0} : (uint64_t{1} << tail) - 1;
}

/// Sets all nbits to `value` (tail bits stay zero).
void Fill(uint64_t* dst, size_t nbits, bool value);

/// dst &= src.
void And(uint64_t* dst, const uint64_t* src, size_t nbits);

/// dst |= src.
void Or(uint64_t* dst, const uint64_t* src, size_t nbits);

/// dst &= ~src.
void AndNot(uint64_t* dst, const uint64_t* src, size_t nbits);

/// Number of set bits in [0, nbits).
size_t Count(const uint64_t* words, size_t nbits);

/// popcount(a & b) without materializing the intersection.
size_t CountAnd(const uint64_t* a, const uint64_t* b, size_t nbits);

/// True if any bit in [0, nbits) is set.
bool Any(const uint64_t* words, size_t nbits);

/// Calls fn(i) for every set bit i in [0, nbits), in increasing order;
/// bits at or past nbits are ignored. Each word is read once before its
/// bits are visited, so fn may clear bits of the span it walks.
template <typename Fn>
void ForEachSet(const uint64_t* words, size_t nbits, Fn&& fn) {
  const size_t n = Words(nbits);
  for (size_t wi = 0; wi < n; ++wi) {
    uint64_t w = wi + 1 == n ? words[wi] & TailMask(nbits) : words[wi];
    while (w != 0) {
      fn(wi * 64 + static_cast<size_t>(std::countr_zero(w)));
      w &= w - 1;
    }
  }
}

/// Packs 64 bytes, each 0 or 1, into one word (bit j = bytes[j]). A lane
/// loop that writes one byte per lane has no loop-carried dependence (a
/// `bits |= x << j` loop has one), so the compiler can vectorize it; the
/// bytes are then gathered eight at a time — the multiply moves byte j's
/// low bit to product bit 56 + j, carry-free for 0/1 bytes.
inline uint64_t PackBytes64(const uint8_t* bytes) {
  uint64_t bits = 0;
  for (size_t k = 0; k < 8; ++k) {
    uint64_t w;
    std::memcpy(&w, bytes + k * 8, sizeof(w));
    bits |= ((w * 0x0102040810204080ULL) >> 56) << (k * 8);
  }
  return bits;
}

}  // namespace bitspan

/// A fixed-size dynamic bitset. The incremental-matching engine stores one
/// bitmap per rule ("pairs this rule matched") and one per predicate ("pairs
/// this predicate rejected"), so compactness and fast scans matter
/// (Sec. 6.1 / 7.4 of the paper).
class Bitmap {
 public:
  Bitmap() = default;
  /// Creates a bitmap of `size` bits, all set to `initial`.
  explicit Bitmap(size_t size, bool initial = false);

  Bitmap(const Bitmap&) = default;
  Bitmap& operator=(const Bitmap&) = default;
  Bitmap(Bitmap&&) = default;
  Bitmap& operator=(Bitmap&&) = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Get(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Clear(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  void Assign(size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Clear(i);
    }
  }

  /// Sets every bit to `value`.
  void Fill(bool value);

  /// Grows (or shrinks) to `size` bits; new bits are `value`.
  void Resize(size_t size, bool value = false);

  /// Number of set bits.
  size_t Count() const;

  /// Returns the indices of all set bits, in increasing order.
  std::vector<size_t> ToIndices() const;

  /// Index of the first set bit at or after `from`, or `size()` if none.
  size_t FindNext(size_t from) const;

  /// In-place bitwise ops; `other` must have the same size.
  Bitmap& operator|=(const Bitmap& other);
  Bitmap& operator&=(const Bitmap& other);
  /// Clears every bit that is set in `other` (this &= ~other).
  Bitmap& Subtract(const Bitmap& other);

  friend bool operator==(const Bitmap& a, const Bitmap& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// Bytes of heap memory used by the word array (for the Sec. 7.4-style
  /// memory accounting).
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Raw 64-bit word storage (for binary persistence). Bit i lives at
  /// words()[i / 64] bit (i % 64); tail bits beyond size() are zero.
  const std::vector<uint64_t>& words() const { return words_; }

  /// Reconstructs a bitmap from persisted words. `words` must have
  /// exactly ceil(size / 64) entries; tail bits are cleared defensively.
  static Bitmap FromWords(size_t size, std::vector<uint64_t> words);

  // ---- Word-aligned span access (the block matcher's bulk writes).
  // `bit_offset` must be a multiple of 64 and bit_offset + nbits <=
  // size(); spans therefore never straddle a partial leading word, and
  // two writers touching disjoint 64-aligned spans never share a word
  // (the ThreadPool alignment contract extended to spans). The incoming
  // span's tail is masked defensively. ----

  /// ORs `nbits` bits of `words` into this bitmap at `bit_offset`.
  void OrSpan(size_t bit_offset, const uint64_t* words, size_t nbits);

  /// Clears every bit of the span that is set in `words`
  /// (this &= ~span over [bit_offset, bit_offset + nbits)).
  void AndNotSpan(size_t bit_offset, const uint64_t* words, size_t nbits);

  /// Copies [bit_offset, bit_offset + nbits) into `out`
  /// (ceil(nbits / 64) words, tail cleared).
  void ExtractSpan(size_t bit_offset, uint64_t* out, size_t nbits) const;

 private:
  // Zeroes the unused high bits of the last word so Count()/equality stay
  // correct after Fill(true) or Resize.
  void TrimTail();

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace emdbg

#endif  // EMDBG_UTIL_BITMAP_H_
