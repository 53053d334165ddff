#include "src/util/bitmap.h"

#include <bit>

namespace emdbg {

namespace {
constexpr size_t WordsFor(size_t bits) { return (bits + 63) / 64; }
}  // namespace

namespace bitspan {

void Fill(uint64_t* dst, size_t nbits, bool value) {
  const size_t w = Words(nbits);
  if (w == 0) return;
  for (size_t i = 0; i < w; ++i) dst[i] = value ? ~uint64_t{0} : 0;
  dst[w - 1] &= TailMask(nbits);
}

void And(uint64_t* dst, const uint64_t* src, size_t nbits) {
  const size_t w = Words(nbits);
  for (size_t i = 0; i < w; ++i) dst[i] &= src[i];
}

void Or(uint64_t* dst, const uint64_t* src, size_t nbits) {
  const size_t w = Words(nbits);
  if (w == 0) return;
  for (size_t i = 0; i < w; ++i) dst[i] |= src[i];
  dst[w - 1] &= TailMask(nbits);
}

void AndNot(uint64_t* dst, const uint64_t* src, size_t nbits) {
  const size_t w = Words(nbits);
  for (size_t i = 0; i < w; ++i) dst[i] &= ~src[i];
}

size_t Count(const uint64_t* words, size_t nbits) {
  const size_t w = Words(nbits);
  if (w == 0) return 0;
  size_t count = 0;
  for (size_t i = 0; i + 1 < w; ++i) {
    count += static_cast<size_t>(std::popcount(words[i]));
  }
  count += static_cast<size_t>(std::popcount(words[w - 1] & TailMask(nbits)));
  return count;
}

size_t CountAnd(const uint64_t* a, const uint64_t* b, size_t nbits) {
  const size_t w = Words(nbits);
  if (w == 0) return 0;
  size_t count = 0;
  for (size_t i = 0; i + 1 < w; ++i) {
    count += static_cast<size_t>(std::popcount(a[i] & b[i]));
  }
  count += static_cast<size_t>(
      std::popcount(a[w - 1] & b[w - 1] & TailMask(nbits)));
  return count;
}

bool Any(const uint64_t* words, size_t nbits) {
  const size_t w = Words(nbits);
  if (w == 0) return false;
  for (size_t i = 0; i + 1 < w; ++i) {
    if (words[i] != 0) return true;
  }
  return (words[w - 1] & TailMask(nbits)) != 0;
}

}  // namespace bitspan

Bitmap::Bitmap(size_t size, bool initial)
    : size_(size),
      words_(WordsFor(size), initial ? ~uint64_t{0} : uint64_t{0}) {
  TrimTail();
}

void Bitmap::TrimTail() {
  const size_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

void Bitmap::Fill(bool value) {
  for (auto& w : words_) w = value ? ~uint64_t{0} : uint64_t{0};
  TrimTail();
}

void Bitmap::Resize(size_t size, bool value) {
  const size_t old_size = size_;
  // Make previously-unused tail bits match `value` before growing into them.
  if (size > old_size && value) {
    const size_t tail = old_size & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() |= ~((uint64_t{1} << tail) - 1);
    }
  }
  words_.resize(WordsFor(size), value ? ~uint64_t{0} : uint64_t{0});
  size_ = size;
  TrimTail();
}

size_t Bitmap::Count() const {
  size_t count = 0;
  for (uint64_t w : words_) count += static_cast<size_t>(std::popcount(w));
  return count;
}

std::vector<size_t> Bitmap::ToIndices() const {
  std::vector<size_t> out;
  out.reserve(Count());
  for (size_t wi = 0; wi < words_.size(); ++wi) {
    uint64_t w = words_[wi];
    while (w != 0) {
      const int bit = std::countr_zero(w);
      out.push_back(wi * 64 + static_cast<size_t>(bit));
      w &= w - 1;
    }
  }
  return out;
}

size_t Bitmap::FindNext(size_t from) const {
  if (from >= size_) return size_;
  size_t wi = from >> 6;
  uint64_t w = words_[wi] & (~uint64_t{0} << (from & 63));
  while (true) {
    if (w != 0) {
      const size_t i = wi * 64 + static_cast<size_t>(std::countr_zero(w));
      return i < size_ ? i : size_;
    }
    if (++wi >= words_.size()) return size_;
    w = words_[wi];
  }
}

Bitmap& Bitmap::operator|=(const Bitmap& other) {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

Bitmap& Bitmap::operator&=(const Bitmap& other) {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

Bitmap Bitmap::FromWords(size_t size, std::vector<uint64_t> words) {
  Bitmap bm;
  bm.size_ = size;
  bm.words_ = std::move(words);
  bm.words_.resize(WordsFor(size), 0);
  bm.TrimTail();
  return bm;
}

Bitmap& Bitmap::Subtract(const Bitmap& other) {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

void Bitmap::OrSpan(size_t bit_offset, const uint64_t* words, size_t nbits) {
  const size_t w0 = bit_offset >> 6;
  const size_t w = bitspan::Words(nbits);
  if (w == 0) return;
  for (size_t i = 0; i + 1 < w; ++i) words_[w0 + i] |= words[i];
  words_[w0 + w - 1] |= words[w - 1] & bitspan::TailMask(nbits);
  // Only a span ending in the last word can set bits past size(). Spans
  // of other words must not touch that word: concurrent workers OR
  // disjoint spans, and a trim here would race with its owner's OR.
  if (w0 + w == words_.size()) TrimTail();
}

void Bitmap::AndNotSpan(size_t bit_offset, const uint64_t* words,
                        size_t nbits) {
  const size_t w0 = bit_offset >> 6;
  const size_t w = bitspan::Words(nbits);
  if (w == 0) return;
  for (size_t i = 0; i + 1 < w; ++i) words_[w0 + i] &= ~words[i];
  words_[w0 + w - 1] &= ~(words[w - 1] & bitspan::TailMask(nbits));
}

void Bitmap::ExtractSpan(size_t bit_offset, uint64_t* out,
                         size_t nbits) const {
  const size_t w0 = bit_offset >> 6;
  const size_t w = bitspan::Words(nbits);
  if (w == 0) return;
  for (size_t i = 0; i + 1 < w; ++i) out[i] = words_[w0 + i];
  out[w - 1] = words_[w0 + w - 1] & bitspan::TailMask(nbits);
}

}  // namespace emdbg
