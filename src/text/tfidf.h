#ifndef EMDBG_TEXT_TFIDF_H_
#define EMDBG_TEXT_TFIDF_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/text/tokenizer.h"

namespace emdbg {

/// A sparse, L2-normalized TF-IDF vector: (term, weight) pairs sorted by
/// term. Weights are > 0 and the vector has unit norm unless empty.
struct TfIdfVector {
  std::vector<std::pair<std::string, double>> entries;

  bool empty() const { return entries.empty(); }
};

/// Corpus statistics for TF-IDF weighting. Build once over the token lists
/// of an attribute's values (both tables), then reuse for every pair — this
/// corresponds to the paper's setting where TF-IDF features carry document
/// frequency state and are therefore among the most expensive (Table 3).
class TfIdfModel {
 public:
  TfIdfModel() = default;

  /// Adds one document's tokens to the corpus statistics.
  void AddDocument(const TokenList& tokens);

  /// Builds from a whole corpus.
  static TfIdfModel Build(const std::vector<TokenList>& corpus);

  size_t document_count() const { return doc_count_; }
  size_t vocabulary_size() const { return df_.size(); }

  /// Smoothed inverse document frequency:
  /// idf(t) = ln((1 + N) / (1 + df(t))) + 1. Unseen terms get df = 0.
  double Idf(const std::string& term) const;

  /// The idf formula itself, for `doc_count` documents and a term in `df`
  /// of them: Idf's one expression, shared with the id path (PairContext
  /// counts document frequencies per word id).
  static double SmoothedIdf(size_t doc_count, size_t df);

  /// TF-IDF vector of a token list, L2-normalized.
  TfIdfVector Vectorize(const TokenList& tokens) const;

  /// Cosine of two normalized vectors (dot product).
  static double Cosine(const TfIdfVector& a, const TfIdfVector& b);

  /// Convenience: cosine TF-IDF similarity of two token lists. Both-empty
  /// inputs score 1.0.
  double Similarity(const TokenList& a, const TokenList& b) const;

 private:
  size_t doc_count_ = 0;
  std::unordered_map<std::string, size_t> df_;
};

}  // namespace emdbg

#endif  // EMDBG_TEXT_TFIDF_H_
