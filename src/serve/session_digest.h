#ifndef EMDBG_SERVE_SESSION_DIGEST_H_
#define EMDBG_SERVE_SESSION_DIGEST_H_

#include <cstdint>

#include "src/core/debug_session.h"

namespace emdbg {

/// Canonical fingerprint of a session's analyst-visible state: CRC-32C
/// over the rule set (precise DSL lines, sorted, each rule's predicates
/// sorted) chained with the match bitmap words. Neither rule nor
/// predicate order moves it. Two sessions over the same corpus have equal
/// digests iff they hold the same rules and the same match decisions —
/// the soak harness uses this to prove a recovered session is
/// bit-identical to a fault-free serial replay of its acknowledged edits.
///
/// Forces the session up to date (calls Run()), so the session must be
/// runnable; call only from the thread that owns the session.
uint32_t SessionStateDigest(DebugSession& session);

}  // namespace emdbg

#endif  // EMDBG_SERVE_SESSION_DIGEST_H_
