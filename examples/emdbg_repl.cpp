/// An interactive rule-debugging shell — the "full system" the paper's
/// conclusion sketches. Loads two CSV tables (or generates the synthetic
/// products dataset), blocks them, and then accepts commands:
///
///   add <rule-dsl>            add a rule, e.g. add r1: jaccard(title, title) >= 0.7
///   del <rule-name>           remove a rule
///   set <rule> <pred#> <t>    change a predicate threshold
///   rules                     list rules with stable ids
///   run [deadline_ms]         apply the rules (incremental after 1st run);
///                             Ctrl-C or an exceeded deadline stops the run
///                             cleanly and keeps the session alive
///   durable <dir>             enable crash-safe journaling + checkpoints
///   checkpoint                force a checkpoint now
///   recover <dir>             restore a crashed durable session
///   score                     precision/recall vs labels (synthetic mode)
///   explain <a#> <b#>         full decision trace for a pair
///   why <a#> <b#>             near-miss analysis for an unmatched pair
///   save <path> / load <path> persist or restore the rule set
///   mem                       memory report
///   quit
///
/// Usage:
///   ./build/examples/emdbg_repl                        # synthetic products
///   ./build/examples/emdbg_repl a.csv b.csv category   # own data + key blocker
///
/// `--threads=N` (anywhere on the command line) runs full and
/// incremental matching on the session's persistent work-stealing pool
/// (0 = all hardware threads); results are identical to serial.
///
/// Also scriptable: pipe commands via stdin.

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/block/key_blocker.h"
#include "src/core/debug_session.h"
#include "src/core/explain.h"
#include "src/core/rule_parser.h"
#include "src/core/feature_profiler.h"
#include "src/core/rule_simplifier.h"
#include "src/core/threshold_advisor.h"
#include "src/data/datasets.h"
#include "src/data/table_io.h"
#include "src/util/cancellation.h"
#include "src/util/string_util.h"

using namespace emdbg;

namespace {

RuleId FindRuleByName(const MatchingFunction& fn, const std::string& name) {
  for (const Rule& r : fn.rules()) {
    if (r.name() == name) return r.id();
  }
  return kInvalidRule;
}

void PrintHelp() {
  std::printf(
      "commands: add <dsl> | del <rule> | set <rule> <pred#> <t> | rules |"
      " run [deadline_ms] | score | explain <a> <b> | why <a> <b> |"
      " advise <rule> <pred#> | lint | profile <fn> <attr> | undo |"
      " history | report | durable <dir> | checkpoint | recover <dir> |"
      " save <p> | load <p> | mem | help | quit\n");
}

}  // namespace

int main(int argc, char** argv) {
  Table a;
  Table b;
  CandidateSet pairs;
  PairLabels labels;
  bool have_labels = false;

  DebugSession::Options options;
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    int64_t n = 0;
    if (StartsWith(arg, "--threads=") &&
        ParseInt64(arg.substr(10), &n) && n >= 0) {
      options.num_threads = static_cast<size_t>(n);
    } else {
      positional.push_back(argv[i]);
    }
  }

  if (positional.size() >= 3) {
    auto ta = LoadTableCsv(positional[0]);
    auto tb = LoadTableCsv(positional[1]);
    if (!ta.ok() || !tb.ok()) {
      std::fprintf(stderr, "load failed: %s %s\n",
                   ta.status().ToString().c_str(),
                   tb.status().ToString().c_str());
      return 1;
    }
    auto blocked = KeyBlocker(positional[2]).Block(*ta, *tb);
    if (!blocked.ok()) {
      std::fprintf(stderr, "blocking failed: %s\n",
                   blocked.status().ToString().c_str());
      return 1;
    }
    a = std::move(*ta);
    b = std::move(*tb);
    pairs = std::move(*blocked);
  } else {
    const DatasetProfile profile =
        ScaleProfile(PaperDatasetProfile(DatasetId::kProducts), 0.05);
    GeneratedDataset ds = GenerateDataset(profile);
    a = std::move(ds.a);
    b = std::move(ds.b);
    pairs = std::move(ds.candidates);
    labels = std::move(ds.labels);
    have_labels = true;
    std::printf("synthetic products dataset: %zu candidates "
                "(labels available — try 'score')\n",
                pairs.size());
  }

  DebugSession session(std::move(a), std::move(b), std::move(pairs),
                       options);
  if (session.pool() != nullptr) {
    std::printf("worker pool: %zu threads\n",
                session.pool()->num_workers());
  }
  PrintHelp();

  // Ctrl-C during a run cancels it (the run returns partial and the
  // session stays alive); the token is re-armed before each run.
  // SIGTERM / SIGHUP additionally request exit: the prompt read returns
  // with EINTR, the loop breaks, and a durable session is checkpointed
  // before the process leaves — service-style shutdown for scripted use.
  CancellationToken cancel;
  ShutdownSignals shutdown(cancel);

  std::string line;
  while (std::printf("emdbg> "), std::fflush(stdout),
         !shutdown.exit_requested() && std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "add") {
      std::string rest;
      std::getline(in, rest);
      auto rid = session.AddRuleText(rest);
      if (!rid.ok()) {
        std::printf("error: %s\n", rid.status().ToString().c_str());
      } else {
        std::printf("added rule %s (%s)\n",
                    session.function().RuleById(*rid)->name().c_str(),
                    session.last_stats().ToString().c_str());
      }
    } else if (cmd == "del") {
      std::string name;
      in >> name;
      const RuleId rid = FindRuleByName(session.function(), name);
      if (rid == kInvalidRule) {
        std::printf("no rule named '%s'\n", name.c_str());
        continue;
      }
      const Status s = session.RemoveRule(rid);
      std::printf("%s\n", s.ok() ? "removed" : s.ToString().c_str());
    } else if (cmd == "set") {
      std::string name;
      size_t pred_pos = 0;
      double threshold = 0.0;
      in >> name >> pred_pos >> threshold;
      const RuleId rid = FindRuleByName(session.function(), name);
      if (rid == kInvalidRule) {
        std::printf("no rule named '%s'\n", name.c_str());
        continue;
      }
      const Rule* rule = session.function().RuleById(rid);
      if (pred_pos >= rule->size()) {
        std::printf("rule has %zu predicates\n", rule->size());
        continue;
      }
      const Status s = session.SetThreshold(
          rid, rule->predicate(pred_pos).id, threshold);
      std::printf("%s (%s)\n", s.ok() ? "ok" : s.ToString().c_str(),
                  session.last_stats().ToString().c_str());
    } else if (cmd == "rules") {
      const MatchingFunction& fn = session.function();
      if (fn.empty()) std::printf("(no rules)\n");
      for (const Rule& r : fn.rules()) {
        std::printf("%s\n", r.ToString(session.catalog()).c_str());
      }
    } else if (cmd == "run") {
      double deadline_ms = 0.0;
      in >> deadline_ms;
      cancel.Reset();  // a Ctrl-C from a previous run must not linger
      const RunControl control =
          deadline_ms > 0
              ? RunControl(cancel, Deadline::AfterMillis(deadline_ms))
              : RunControl(cancel);
      const MatchResult result = session.Run(control);
      if (result.partial) {
        std::printf("run stopped early (%s): %zu of %zu pairs evaluated, "
                    "%zu matched so far (%s)\n",
                    result.status.ToString().c_str(),
                    result.pairs_completed, session.candidates().size(),
                    result.MatchCount(),
                    session.last_stats().ToString().c_str());
      } else {
        std::printf("%zu / %zu pairs match (%s)\n", result.MatchCount(),
                    session.candidates().size(),
                    session.last_stats().ToString().c_str());
      }
    } else if (cmd == "durable") {
      std::string dir;
      in >> dir;
      if (dir.empty()) {
        std::printf("usage: durable <dir>\n");
        continue;
      }
      const Status s = session.EnableDurability(dir);
      std::printf("%s\n", s.ok() ? "durability on — every edit is "
                                   "journaled, checkpoint written"
                                 : s.ToString().c_str());
    } else if (cmd == "checkpoint") {
      const Status s = session.Checkpoint();
      std::printf("%s\n",
                  s.ok() ? "checkpoint written" : s.ToString().c_str());
    } else if (cmd == "recover") {
      std::string dir;
      in >> dir;
      if (dir.empty()) {
        std::printf("usage: recover <dir>\n");
        continue;
      }
      const Status s = session.Recover(dir);
      std::printf("%s\n", s.ok() ? "session recovered — checkpoint loaded "
                                   "and journal replayed"
                                 : s.ToString().c_str());
    } else if (cmd == "score") {
      if (!have_labels) {
        std::printf("no labels loaded\n");
        continue;
      }
      std::printf("%s\n", session.Score(labels).ToString().c_str());
    } else if (cmd == "explain" || cmd == "why") {
      uint32_t ra = 0;
      uint32_t rb = 0;
      in >> ra >> rb;
      if (ra >= session.context().table_a().num_rows() ||
          rb >= session.context().table_b().num_rows()) {
        std::printf("row out of range\n");
        continue;
      }
      if (cmd == "explain") {
        std::printf("%s", ExplainPair(session.function(), PairId{ra, rb},
                                      session.context())
                              .ToString(session.catalog())
                              .c_str());
      } else {
        std::printf("%s",
                    NearMissesToString(
                        FindNearMisses(session.function(), PairId{ra, rb},
                                       session.context()),
                        session.catalog())
                        .c_str());
      }
    } else if (cmd == "profile") {
      if (!have_labels) {
        std::printf("profile needs labels (synthetic mode only)\n");
        continue;
      }
      std::string fn_name;
      std::string attr;
      in >> fn_name >> attr;
      auto sim = SimFunctionFromName(fn_name);
      if (!sim.ok()) {
        std::printf("error: %s\n", sim.status().ToString().c_str());
        continue;
      }
      auto feature = session.catalog().InternByName(*sim, attr, attr);
      if (!feature.ok()) {
        std::printf("error: %s\n", feature.status().ToString().c_str());
        continue;
      }
      auto profile = ProfileFeature(*feature, session.candidates(), labels,
                                    session.context());
      if (!profile.ok()) {
        std::printf("error: %s\n", profile.status().ToString().c_str());
        continue;
      }
      std::printf("%s", profile->ToString(session.catalog()).c_str());
    } else if (cmd == "lint") {
      const auto findings =
          AnalyzeRules(session.function(), session.catalog());
      if (findings.empty()) {
        std::printf("no findings — the rule set is clean\n");
      }
      for (const SimplifierFinding& f : findings) {
        std::printf("[%s] %s\n", FindingKindName(f.kind),
                    f.description.c_str());
      }
    } else if (cmd == "undo") {
      const Status s = session.Undo();
      std::printf("%s (%s)\n", s.ok() ? "undone" : s.ToString().c_str(),
                  session.last_stats().ToString().c_str());
    } else if (cmd == "history") {
      const std::string h = session.History();
      std::printf("%s", h.empty() ? "(no edits journaled)\n" : h.c_str());
    } else if (cmd == "advise") {
      if (!have_labels) {
        std::printf("advise needs labels (synthetic mode only)\n");
        continue;
      }
      std::string name;
      size_t pred_pos = 0;
      in >> name >> pred_pos;
      const RuleId rid = FindRuleByName(session.function(), name);
      if (rid == kInvalidRule) {
        std::printf("no rule named '%s'\n", name.c_str());
        continue;
      }
      const Rule* rule = session.function().RuleById(rid);
      if (pred_pos >= rule->size()) {
        std::printf("rule has %zu predicates\n", rule->size());
        continue;
      }
      auto advice = AdviseThreshold(
          session.function(), rid, rule->predicate(pred_pos).id,
          session.candidates(), labels, session.context());
      if (!advice.ok()) {
        std::printf("error: %s\n", advice.status().ToString().c_str());
        continue;
      }
      std::printf("%10s %10s %10s %10s\n", "threshold", "precision",
                  "recall", "f1");
      for (const ThresholdOption& opt : advice->options) {
        std::printf("%10.3f %10.3f %10.3f %10.3f%s\n", opt.threshold,
                    opt.precision, opt.recall, opt.f1,
                    &opt == &advice->best() ? "  <- suggested" : "");
      }
    } else if (cmd == "save") {
      std::string path;
      in >> path;
      const Status s =
          SaveRulesFile(session.function(), session.catalog(), path);
      std::printf("%s\n", s.ok() ? "saved" : s.ToString().c_str());
    } else if (cmd == "suspend") {
      std::string prefix;
      in >> prefix;
      const Status s = session.SaveSession(prefix);
      std::printf("%s\n",
                  s.ok() ? "session suspended (rules + state)"
                         : s.ToString().c_str());
    } else if (cmd == "resume") {
      std::string prefix;
      in >> prefix;
      const Status s = session.ResumeSession(prefix);
      std::printf("%s\n", s.ok() ? "session resumed — no recomputation"
                                 : s.ToString().c_str());
    } else if (cmd == "load") {
      std::string path;
      in >> path;
      auto fn = LoadRulesFile(path, session.catalog());
      if (!fn.ok()) {
        std::printf("error: %s\n", fn.status().ToString().c_str());
        continue;
      }
      // Replace current rules with the loaded set.
      while (!session.function().empty()) {
        (void)session.RemoveRule(session.function().rule(0).id());
      }
      for (const Rule& r : fn->rules()) {
        Rule copy = r;  // ids are re-assigned by the session's function
        if (!session.AddRule(copy).ok()) break;
      }
      std::printf("loaded %zu rules\n", session.function().num_rules());
    } else if (cmd == "mem") {
      std::printf("%s\n", session.MemoryReport().c_str());
    } else if (cmd == "report") {
      std::printf("%s", session.RuleActivityReport().c_str());
    } else {
      std::printf("unknown command '%s'\n", cmd.c_str());
      PrintHelp();
    }
  }

  if (shutdown.exit_requested() && session.durable()) {
    const Status s = session.Checkpoint();
    if (s.ok()) {
      std::fprintf(stderr, "\nshutdown requested: durable session "
                           "checkpointed; resume with 'recover <dir>'\n");
    } else {
      std::fprintf(stderr,
                   "\nshutdown requested, but the final checkpoint failed: "
                   "%s (the journal is still authoritative)\n",
                   s.ToString().c_str());
    }
  } else if (shutdown.exit_requested()) {
    std::fprintf(stderr, "\nshutdown requested: exiting\n");
  }
  return 0;
}
