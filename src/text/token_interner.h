#ifndef EMDBG_TEXT_TOKEN_INTERNER_H_
#define EMDBG_TEXT_TOKEN_INTERNER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace emdbg {

/// Id of an interned token. Ids are dense and assigned in first-seen order,
/// so id order is *not* lexicographic — kernels that need lexicographic
/// iteration (TF-IDF dot products, cosine) go through LexRanks().
using TokenId = uint32_t;

inline constexpr TokenId kInvalidTokenId = 0xffffffffu;

/// Arena-backed token dictionary: maps distinct token strings to dense
/// uint32 ids and back. Token bytes are copied once into chunked arena
/// storage (chunks never move, so the string_views handed out stay valid
/// for the interner's lifetime) and every subsequent occurrence of the
/// token costs one hash lookup instead of a heap allocation.
///
/// Thread-safety follows PairContext's two-phase contract: Intern()
/// mutates and must not race with anything; Find()/Text()/size() and a
/// LexRanks() snapshot taken *after* the last Intern() are safe to use from
/// many threads concurrently. PairContext does all interning in the serial
/// part of Prewarm (or in single-threaded first-touch fills) and only then
/// lets workers loose on the read-only views.
class TokenInterner {
 public:
  TokenInterner() = default;
  TokenInterner(const TokenInterner&) = delete;
  TokenInterner& operator=(const TokenInterner&) = delete;

  /// Returns the id of `token`, interning it if new.
  TokenId Intern(std::string_view token);

  /// Id of an already-interned token; kInvalidTokenId if absent.
  TokenId Find(std::string_view token) const;

  /// The interned bytes of `id` (valid for the interner's lifetime).
  std::string_view Text(TokenId id) const { return tokens_[id]; }

  /// Number of distinct tokens interned.
  uint32_t size() const { return static_cast<uint32_t>(tokens_.size()); }

  /// Snapshot of byte-lexicographic ranks: (*ranks)[id] is the position of
  /// Text(id) among all currently-interned tokens sorted by operator< on
  /// their bytes. Rebuilt lazily after interning grows the dictionary.
  ///
  /// Key invariant: interning *new* tokens never reorders existing ones, so
  /// any array sorted by an older snapshot's ranks remains sorted under a
  /// newer snapshot — cached id vectors survive vocabulary growth.
  std::shared_ptr<const std::vector<uint32_t>> LexRanks();

  /// Heap bytes held by the arena chunks (token byte storage).
  size_t ArenaBytes() const;

  /// Approximate heap bytes of the id<->token maps (dictionary overhead on
  /// top of the arena, including the rank snapshot if built).
  size_t DictionaryBytes() const;

 private:
  /// Copies `token` into the arena and returns a stable view.
  std::string_view Store(std::string_view token);

  static constexpr size_t kChunkBytes = 1 << 16;

  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };

  std::vector<Chunk> chunks_;
  std::vector<std::string_view> tokens_;  // id -> arena bytes
  std::unordered_map<std::string_view, TokenId> map_;
  std::shared_ptr<const std::vector<uint32_t>> ranks_;  // stale if size differs
};

}  // namespace emdbg

#endif  // EMDBG_TEXT_TOKEN_INTERNER_H_
