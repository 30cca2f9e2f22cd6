// End-to-end benchmark program: runs one workload (a campaign spec) in this
// process and prints its raw measurements as one JSON document on stdout.
// perfbench/run.py builds this binary, runs it, and turns the raw samples
// into the metrics listed in BENCHMARK.json (perfbench/README.md).
//
//   mdst_perfbench --spec=FILE --seed=N --seconds=S --trace=0|1 [--spans=FILE]
//
// A run has three phases, all on this one thread:
//   1. Set-up: every trial's input — instance graph, degree lower bound and,
//      for initial-tree ablation cells, the start tree — is built with the
//      campaign runner's seed derivation. Repeated (at least three times)
//      so the reported set-up time is a median.
//   2. Timed phase: passes over the grid in grid order, one
//      analysis::run_pipeline (startup cells) or core::run_mdst (ablation
//      cells) call per trial, each timed alone. Passes repeat while the
//      next one fits the time budget. The first pass's trees go through the
//      correctness check after their timer stops; later passes must repeat
//      the first pass's counts exactly.
//   3. Trace phase (--trace=1 only): untraced passes for half the budget,
//      then traced passes that make the separate layer calls (build,
//      bound, startup, MDegST, oracle) and record one span per call. Spans
//      stay in memory and are written to --spans when the run ends.
// Every phase interleaves samples of a fixed reference unit of work
// (reference.hpp) with its own work, so that metrics.py can scale each
// time by the host's speed at the moment it was taken.
// Outside the timed phases the first cell, and the first cell with an
// active fault plan, are re-run through campaign::run_campaign_trial, which
// must agree with the benchmark's own calls, so the benchmark's seed
// derivation cannot drift from the runner's.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "analysis/experiment.hpp"
#include "analysis/pipeline.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "graph/spanning_builders.hpp"
#include "mdst/bounds.hpp"
#include "mdst/checker.hpp"
#include "mdst/engine.hpp"
#include "spanning/flood_st.hpp"
#include "spanning/ghs_mst.hpp"
#include "support/resource.hpp"
#include "support/rng.hpp"

#include "reference.hpp"

namespace {

using namespace mdst;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// True when one more pass, as long as the mean pass so far, would end
/// after `budget_s` seconds of the phase.
bool budget_spent(Clock::time_point phase_start, std::size_t passes,
                  double budget_s) {
  const double elapsed_s = ms_between(phase_start, Clock::now()) / 1000;
  return elapsed_s + elapsed_s / static_cast<double>(passes) > budget_s;
}

// ------------------------------------------------------------- reference ---

/// Work between two reference samples. A sample costs ~5 ms, so the
/// samples add about a tenth to a run of short trials, and a sample follows
/// every trial of 50 ms or more.
constexpr double kReferenceEveryMs = 50;

/// Interleaves reference samples (perfbench::reference_unit, timed alone)
/// with timed work. The samples cut the work into segments: segment k lies
/// between samples k and k + 1. A segment ends after kReferenceEveryMs of
/// work, or when end_segment() is called. Every time is printed with its
/// segment, and metrics.py scales it by the samples around that segment.
class ReferenceSampler {
 public:
  ReferenceSampler() { sample(); }
  /// The segment that work timed now belongs to.
  std::size_t segment() const { return samples_.size() - 1; }
  void after_work(double ms) {
    since_ms_ += ms;
    if (since_ms_ >= kReferenceEveryMs) end_segment();
  }
  void end_segment() {
    since_ms_ = 0;
    sample();
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  void sample() {
    const Clock::time_point t0 = Clock::now();
    // Built apart without LTO (CMakeLists.txt): the call cannot be elided.
    perfbench::reference_unit();
    samples_.push_back(ms_between(t0, Clock::now()));
  }
  std::vector<double> samples_;
  double since_ms_ = 0;
};

/// Times, each with the reference segment it was taken in.
struct Timed {
  std::vector<double> ms;
  std::vector<std::size_t> segment;
  void add(double t, std::size_t seg) {
    ms.push_back(t);
    segment.push_back(seg);
  }
};

// ---------------------------------------------------------------- inputs ---

// The three derivations below mirror campaign::run_campaign_trial; the
// cross-check in main() fails the run if they drift apart.
analysis::TrialSpec instance_spec(const campaign::CampaignSpec& spec,
                                  const campaign::Trial& trial) {
  analysis::TrialSpec s;
  s.family = trial.family;
  s.n = trial.n;
  s.base_seed = spec.base_seed;
  s.repetition = trial.repetition;
  return s;
}

core::Options options_for(const campaign::CampaignSpec& spec,
                          const campaign::Trial& trial) {
  core::Options options;
  options.mode = trial.mode;
  options.max_rounds = spec.max_rounds;
  options.target_degree = spec.target_degree;
  options.recovery.enabled = spec.recovery;
  return options;
}

sim::SimConfig config_for(const campaign::CampaignSpec& spec,
                          const campaign::Trial& trial) {
  sim::SimConfig config;
  config.delay = trial.delay.model;
  config.seed =
      support::derive_seed(spec.base_seed ^ 0x51u, trial.n, trial.repetition);
  if (spec.max_messages != 0) config.max_messages = spec.max_messages;
  config.annotation_cap = spec.annotation_cap;
  config.fifo_links = spec.fifo_links;
  config.start_spread = spec.start_spread;
  config.shards = spec.shards;
  if (trial.fault.active()) {
    config.faults = trial.fault.plan;
    config.faults.seed = support::derive_seed(spec.base_seed ^ 0xf417u,
                                              trial.n, trial.repetition);
    config.faults.arq_backoff = spec.arq_backoff;
  }
  return config;
}

bool is_ablation(const campaign::Trial& trial) {
  return trial.initial_tree != "startup";
}

graph::RootedTree build_start_tree(const campaign::CampaignSpec& spec,
                                   const campaign::Trial& trial,
                                   const graph::Graph& g) {
  std::optional<graph::InitialTreeKind> kind;
  for (const graph::InitialTreeKind k :
       {graph::InitialTreeKind::kBfs, graph::InitialTreeKind::kDfs,
        graph::InitialTreeKind::kRandom, graph::InitialTreeKind::kMst,
        graph::InitialTreeKind::kStarBiased}) {
    if (trial.initial_tree == graph::to_string(k)) kind = k;
  }
  if (!kind) throw std::runtime_error("unknown initial tree " + trial.initial_tree);
  support::Rng rng(support::derive_seed(
      spec.base_seed ^ 0xabcdef, std::hash<std::string>{}(trial.family),
      trial.n, trial.repetition));
  return graph::build_initial_tree(g, *kind, rng);
}

struct Input {
  graph::Graph g;
  int lower_bound = 0;
  std::optional<graph::RootedTree> start;  // ablation cells only
  core::Options options;
  sim::SimConfig config;
};

/// Builds every trial's input, timing each one in `pieces`.
std::vector<Input> build_inputs(const campaign::CampaignSpec& spec,
                                const std::vector<campaign::Trial>& trials,
                                ReferenceSampler& reference, Timed& pieces) {
  std::vector<Input> inputs;
  inputs.reserve(trials.size());
  for (const campaign::Trial& trial : trials) {
    const std::size_t segment = reference.segment();
    const Clock::time_point t0 = Clock::now();
    Input in;
    in.g = analysis::build_instance(instance_spec(spec, trial));
    in.lower_bound = core::degree_lower_bound(in.g);
    if (is_ablation(trial)) in.start = build_start_tree(spec, trial, in.g);
    in.options = options_for(spec, trial);
    in.config = config_for(spec, trial);
    inputs.push_back(std::move(in));
    const double ms = ms_between(t0, Clock::now());
    pieces.add(ms, segment);
    reference.after_work(ms);
  }
  return inputs;
}

// ---------------------------------------------------------------- trials ---

/// The deterministic outputs of one trial; every pass must repeat them.
struct Counts {
  std::uint64_t startup_msgs = 0;
  std::uint64_t mdst_msgs = 0;
  std::uint64_t startup_time = 0;
  std::uint64_t mdst_time = 0;
  std::uint64_t improvements = 0;
  std::uint64_t re_elections = 0;
  std::uint64_t recovery_msgs = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dropped = 0;
  std::uint32_t rounds = 0;
  int k_init = 0;
  int k_final = 0;
  sim::RunOutcome outcome = sim::RunOutcome::kOk;
  core::StopReason stop = core::StopReason::kNotStopped;
  bool threw = false;

  bool operator==(const Counts&) const = default;
};

struct Memory {
  std::uint64_t node = 0, queue = 0, floor = 0, metrics = 0;
};

/// Reduces a finished MDegST run to its counts and, when asked, keeps the
/// tree for the correctness check.
Counts counts_of(core::RunResult& run, graph::RootedTree* keep_tree,
                 Memory* memory) {
  Counts c;
  c.mdst_msgs = run.metrics.total_messages();
  c.mdst_time = run.metrics.max_causal_depth();
  c.improvements = run.improvements;
  c.re_elections = run.recovery.re_elections;
  c.recovery_msgs = run.recovery.recovery_messages;
  c.retransmits = run.fault_stats.retransmits;
  c.dropped = run.fault_stats.dropped_deliveries;
  c.rounds = run.rounds;
  c.k_init = run.initial_degree;
  c.k_final = run.final_degree;
  c.outcome = run.outcome;
  c.stop = run.stop_reason;
  if (keep_tree != nullptr) *keep_tree = std::move(run.tree);
  if (memory != nullptr) {
    *memory = {run.memory.node_bytes, run.memory.queue_bytes,
               run.memory.floor_bytes, run.memory.metrics_bytes};
  }
  return c;
}

/// One trial exactly as the timed phase runs it.
Counts run_trial(const campaign::Trial& trial, const Input& in,
                 graph::RootedTree* keep_tree, Memory* memory) {
  if (in.start) {
    core::RunResult run = core::run_mdst(in.g, *in.start, in.options, in.config);
    return counts_of(run, keep_tree, memory);
  }
  analysis::PipelineResult run =
      analysis::run_pipeline(in.g, trial.startup, in.options, in.config);
  Counts c = counts_of(run.mdst, keep_tree, memory);
  c.startup_msgs = run.startup_messages;
  c.startup_time = run.startup_causal_time;
  return c;
}

/// The startup phase of analysis::run_pipeline as a call of its own (same
/// initiator, fault-free config and GHS weight seed).
spanning::SpanningRun run_startup(const graph::Graph& g,
                                  analysis::StartupProtocol protocol,
                                  const sim::SimConfig& config) {
  sim::SimConfig startup_config = config;
  startup_config.faults = sim::FaultPlan{};
  sim::NodeId initiator = g.vertex_by_name(0);
  if (initiator == sim::kNoNode) initiator = 0;
  switch (protocol) {
    case analysis::StartupProtocol::kFloodSt:
      return spanning::run_flood_st(g, initiator, startup_config);
    case analysis::StartupProtocol::kGhsMst:
      return spanning::run_ghs_mst(g, startup_config.seed ^ 0x6057,
                                   startup_config);
    default:
      throw std::runtime_error(std::string("startup ") +
                               analysis::to_string(protocol) +
                               " is not traced by the benchmark");
  }
}

/// Correctness check of one finished trial; returns "" or what failed.
/// The paper's stop rule is checked as tests/mdst/engine_test.cpp pins it:
/// a single-mode locally_optimal stop leaves some max-degree vertex
/// blocked. all_blocked() and the Theorem-1 witness are not gated on —
/// locally optimal trees legitimately miss them — and the witness is
/// reported as a yield.
std::string check_tree(const graph::Graph& g, const Counts& c,
                       const graph::RootedTree& tree, bool& witness) {
  witness = false;
  if (c.outcome == sim::RunOutcome::kWedged) return "wedged";
  if (tree.vertex_count() == 0) {
    // Recovered / re-rooted runs around crashed nodes: the engine already
    // validated the live tree and reports no tree spanning g.
    if (c.outcome == sim::RunOutcome::kOk) return "no tree";
    return "";
  }
  if (!tree.spans(g)) return "tree does not span g";
  if (static_cast<int>(tree.max_degree()) != c.k_final) {
    return "k_final differs from the tree's max degree";
  }
  if (c.k_final > c.k_init) return "k_final > k_init";
  if (c.stop == core::StopReason::kLocallyOptimal &&
      !core::local_optimality(g, tree).any_blocked()) {
    return "locally_optimal stop with no blocked max-degree vertex";
  }
  witness = core::theorem_witness_all_b(g, tree);
  return "";
}

// ----------------------------------------------------------------- trace ---

struct Span {
  std::size_t parent;
  std::size_t trial;
  std::uint32_t pass;
  const char* layer;
  double start_ms;
  double end_ms;
};

constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

/// In-memory span recorder; spans are written once the run ends.
class Tracer {
 public:
  std::size_t begin(const char* layer, std::size_t parent) {
    spans_.push_back({parent, trial_, pass_, layer,
                      ms_between(origin_, Clock::now()), 0});
    return spans_.size() - 1;
  }
  double end(std::size_t id) {
    spans_[id].end_ms = ms_between(origin_, Clock::now());
    return spans_[id].end_ms - spans_[id].start_ms;
  }
  void at(std::uint32_t pass, std::size_t trial) {
    pass_ = pass;
    trial_ = trial;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::uint32_t pass_ = 0;
  std::size_t trial_ = 0;
};

struct TracedTrial {
  Counts counts;
  int lower_bound = 0;
  double run_ms = 0;  // the span the timed phase measures: startup + MDegST
};

/// One trial as separate layer calls, each recorded as a span:
/// build_instance -> degree_lower_bound -> [start tree | startup protocol]
/// -> run_mdst -> local_optimality + theorem_witness_all_b.
TracedTrial traced_trial(const campaign::CampaignSpec& spec,
                         const campaign::Trial& trial, Tracer& tr) {
  TracedTrial out;
  const std::size_t root = tr.begin("trial", kNoParent);
  std::size_t s = tr.begin("graph.build", root);
  const graph::Graph g = analysis::build_instance(instance_spec(spec, trial));
  tr.end(s);
  s = tr.begin("mdst.bound", root);
  out.lower_bound = core::degree_lower_bound(g);
  tr.end(s);
  std::optional<graph::RootedTree> start;
  if (is_ablation(trial)) {
    s = tr.begin("graph.build", root);
    start = build_start_tree(spec, trial, g);
    tr.end(s);
  }
  const core::Options options = options_for(spec, trial);
  const sim::SimConfig config = config_for(spec, trial);
  graph::RootedTree tree;
  const std::size_t run = tr.begin("analysis.run", root);
  try {
    std::uint64_t startup_msgs = 0, startup_time = 0;
    if (!start) {
      s = tr.begin("spanning.startup", run);
      spanning::SpanningRun startup = run_startup(g, trial.startup, config);
      tr.end(s);
      startup_msgs = startup.metrics.total_messages();
      startup_time = startup.metrics.max_causal_depth();
      start = std::move(startup.tree);
    }
    s = tr.begin("mdst.run", run);
    core::RunResult result = core::run_mdst(g, *start, options, config);
    tr.end(s);
    out.counts = counts_of(result, &tree, nullptr);
    out.counts.startup_msgs = startup_msgs;
    out.counts.startup_time = startup_time;
  } catch (const std::exception&) {
    out.counts = Counts{};
    out.counts.threw = true;
  }
  out.run_ms = tr.end(run);
  if (!out.counts.threw) {
    s = tr.begin("mdst.oracle", root);
    bool witness = false;
    (void)check_tree(g, out.counts, tree, witness);
    tr.end(s);
  }
  tr.end(root);
  return out;
}

// ------------------------------------------------------------------ JSON ---

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += json_number(v[i]);
  }
  return out + "]";
}

std::string json_list(const std::vector<std::size_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(v[i]);
  }
  return out + "]";
}

// ------------------------------------------------------------------ main ---

struct Args {
  std::string spec;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_spec = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&](std::string_view key) -> std::optional<std::string> {
      if (a.substr(0, key.size()) != key) return std::nullopt;
      return std::string(a.substr(key.size()));
    };
    try {
      if (auto v = value("--spec=")) {
        args.spec = *v;
        have_spec = true;
      } else if (auto v = value("--seed=")) {
        std::size_t used = 0;
        args.seed = std::stoull(*v, &used);
        if (used != v->size()) return false;
        have_seed = true;
      } else if (auto v = value("--seconds=")) {
        args.seconds = std::stod(*v);
        if (!(args.seconds > 0)) return false;
      } else if (auto v = value("--trace=")) {
        if (*v != "0" && *v != "1") return false;
        args.trace = *v == "1";
      } else if (auto v = value("--spans=")) {
        args.spans = *v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_spec && have_seed && (!args.trace || !args.spans.empty());
}

/// Peak RSS of this process image. getrusage's ru_maxrss (what
/// support::peak_rss_bytes reads) keeps the high-water mark of the process
/// that exec'd this one, so under a Python launcher it reports the
/// launcher's peak; VmHWM in /proc/self/status starts afresh at exec.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;  // reported in kB
    }
  }
  return support::peak_rss_bytes();
}

/// Restarts the peak-RSS count (VmHWM) at the current RSS.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return static_cast<bool>(clear);
}

struct Record {
  std::string status = "ok";  // ok | threw | wedged | check_failed
  std::string error;
  Counts counts;
  Memory memory;
  bool witness = false;
  Timed timed;   // one time per timed pass
  Timed traced;  // one time per traced pass: startup + MDegST spans
};

/// Runs timed passes over the grid until the next pass would overrun
/// `budget_s` (always at least one). Returns the per-pass wall times: the
/// sum of the pass's trial times. `peak_rss` is read after the first pass:
/// over later passes the heap kept growing by different amounts from run
/// to run (`sweep` read 25.6-32.5 MB), while the first pass's peak is
/// steady.
std::vector<double> timed_passes(const std::vector<campaign::Trial>& trials,
                                 const std::vector<Input>& inputs,
                                 double budget_s, std::vector<Record>& records,
                                 ReferenceSampler& reference,
                                 std::uint64_t& peak_rss,
                                 std::vector<std::string>& errors) {
  std::vector<double> walls;
  const Clock::time_point phase_start = Clock::now();
  for (;;) {
    const bool first = records.front().timed.ms.empty();
    double pass_ms = 0;
    for (std::size_t i = 0; i < trials.size(); ++i) {
      Record& rec = records[i];
      graph::RootedTree tree;
      Counts c;
      const std::size_t segment = reference.segment();
      const Clock::time_point t0 = Clock::now();
      try {
        c = run_trial(trials[i], inputs[i], first ? &tree : nullptr,
                      first ? &rec.memory : nullptr);
      } catch (const std::exception& e) {
        c = Counts{};
        c.threw = true;
        if (first) rec.error = e.what();
      }
      const double ms = ms_between(t0, Clock::now());
      pass_ms += ms;
      rec.timed.add(ms, segment);
      reference.after_work(ms);
      if (!first) {
        if (!(c == rec.counts)) {
          errors.push_back("trial " + std::to_string(i) +
                           ": a later pass differs from the first");
        }
        continue;
      }
      rec.counts = c;
      if (c.threw) {
        rec.status = "threw";
      } else if (c.outcome == sim::RunOutcome::kWedged) {
        rec.status = "wedged";
      } else {
        const std::string failure =
            check_tree(inputs[i].g, c, tree, rec.witness);
        if (!failure.empty()) {
          rec.status = "check_failed";
          rec.error = failure;
          // Under an active fault plan an invalid tree is a failed
          // operation (the recovery layer did not restore the paper's
          // guarantee), counted like a wedge; without faults it means the
          // protocol itself is wrong.
          if (!trials[i].fault.active()) {
            errors.push_back("trial " + std::to_string(i) + ": " + failure);
          }
        }
      }
    }
    walls.push_back(pass_ms / 1000);
    if (first) peak_rss = peak_rss_bytes();
    reference.end_segment();
    if (budget_spent(phase_start, walls.size(), budget_s)) return walls;
  }
}

/// Re-runs the first cell, and the first cell with an active fault plan,
/// through the campaign runner's own entry point and compares them with
/// the benchmark's first pass.
void cross_check_campaign(const campaign::CampaignSpec& spec,
                          const std::vector<campaign::Trial>& trials,
                          const std::vector<Input>& inputs,
                          const std::vector<Record>& records,
                          std::vector<std::string>& errors) {
  std::vector<std::size_t> cells{0};
  for (std::size_t i = 1; i < trials.size(); ++i) {
    if (trials[i].fault.active()) {
      cells.push_back(i);
      break;
    }
  }
  for (const std::size_t i : cells) {
    const Counts& c = records[i].counts;
    std::string diff;
    try {
      const campaign::TrialOutcome o = campaign::run_campaign_trial(spec, trials[i]);
      if (c.threw) {
        diff = "threw in the benchmark only";
      } else if (o.total_messages() != c.startup_msgs + c.mdst_msgs ||
                 o.total_time() != c.startup_time + c.mdst_time ||
                 o.rounds != c.rounds || o.k_init != c.k_init ||
                 o.k_final != c.k_final || o.outcome != c.outcome ||
                 o.re_elections != c.re_elections ||
                 o.lower_bound != inputs[i].lower_bound) {
        diff = "counts differ";
      }
    } catch (const std::exception&) {
      if (!c.threw) diff = "threw in the campaign runner only";
    }
    if (!diff.empty()) {
      errors.push_back("trial " + std::to_string(i) +
                       " vs campaign::run_campaign_trial: " + diff);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // A fixed threshold turns off glibc's dynamic mmap threshold, whose
  // history-dependent moves left converge's peak RSS at either ~8.6 or
  // ~10.9 MB for the same inputs. Blocks of 128 KiB and up are mapped and
  // returned on free, so peak RSS follows the live working set.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: mdst_perfbench --spec=FILE --seed=N --seconds=S "
                 "--trace=0|1 [--spans=FILE, required with --trace=1]\n");
    return 2;
  }
  campaign::ParseResult parsed = campaign::load_spec(args.spec);
  if (!parsed.ok) {
    std::fprintf(stderr, "%s: %s\n", args.spec.c_str(), parsed.error.c_str());
    return 2;
  }
  campaign::CampaignSpec spec = std::move(parsed.spec);
  // Scrambled first: support::derive_seed collides for nearby bases (base 1
  // rep 0 and base 2 rep 1 build the same instance), so consecutive --seed
  // values would otherwise share most of their inputs.
  std::uint64_t seed_state = args.seed;
  spec.base_seed = support::splitmix64(seed_state);
  const std::vector<campaign::Trial> trials = campaign::expand(spec);
  std::vector<std::string> errors;

  // 1. Set-up, repeated for a median: at least 5 times, up to 10 while the
  //    total stays under 1.5 s. Each input is timed on its own.
  ReferenceSampler reference;
  std::vector<double> setup_s;
  std::vector<Timed> setup_pieces;
  std::vector<Input> inputs;
  double setup_total = 0;
  while (setup_s.size() < 5 || (setup_total < 1.5 && setup_s.size() < 10)) {
    inputs.clear();
    inputs.shrink_to_fit();
    const Clock::time_point t0 = Clock::now();
    inputs = build_inputs(spec, trials, reference, setup_pieces.emplace_back());
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000);
    reference.end_segment();
    setup_total += setup_s.back();
  }

  // 2. Timed phase (half the budget when a traced phase follows). Peak RSS
  //    counts from here, over the first pass: the heap pages the set-up
  //    repetitions freed go back to the kernel first, so the peak does not
  //    depend on how many repetitions the host's speed allowed.
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  if (!reset_peak_rss()) {
    std::fprintf(stderr,
                 "warning: cannot reset the peak RSS through "
                 "/proc/self/clear_refs; it counts from the start\n");
  }
  std::vector<Record> records(trials.size());
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  std::uint64_t peak_rss = 0;
  const std::vector<double> walls = timed_passes(trials, inputs, budget, records,
                                                 reference, peak_rss, errors);

  // 3. Traced phase. A traced trial's reference segment also covers its
  //    build, bound and oracle spans.
  Tracer tracer;
  if (args.trace) {
    const Clock::time_point phase_start = Clock::now();
    for (std::uint32_t pass = 0;; ++pass) {
      for (std::size_t i = 0; i < trials.size(); ++i) {
        tracer.at(pass, i);
        const std::size_t segment = reference.segment();
        const Clock::time_point t0 = Clock::now();
        const TracedTrial t = traced_trial(spec, trials[i], tracer);
        reference.after_work(ms_between(t0, Clock::now()));
        records[i].traced.add(t.run_ms, segment);
        if (pass == 0 && (!(t.counts == records[i].counts) ||
                          t.lower_bound != inputs[i].lower_bound)) {
          errors.push_back("trial " + std::to_string(i) +
                           ": traced counts differ from the untraced run");
        }
      }
      reference.end_segment();
      if (budget_spent(phase_start, pass + 1, args.seconds / 2)) break;
    }
  }

  cross_check_campaign(spec, trials, inputs, records, errors);

  if (args.trace) {
    std::ofstream out(args.spans);
    const std::vector<Span>& spans = tracer.spans();
    for (std::size_t id = 0; id < spans.size(); ++id) {
      const Span& s = spans[id];
      out << "{\"id\":" << id << ",\"parent\":"
          << (s.parent == kNoParent ? std::string("null")
                                    : std::to_string(s.parent))
          << ",\"pass\":" << s.pass << ",\"trial\":" << s.trial
          << ",\"layer\":" << json_string(s.layer)
          << ",\"start_ms\":" << json_number(s.start_ms)
          << ",\"end_ms\":" << json_number(s.end_ms) << ",\"segment\":"
          << records[s.trial].traced.segment[s.pass] << "}\n";
    }
    if (!out) errors.push_back("cannot write spans to " + args.spans);
  }

  std::string doc = "{\"workload\":" + json_string(spec.name);
  doc += ",\"fingerprint\":{\"compiler\":" + json_string(PERFBENCH_COMPILER) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"check_level\":" + json_string(PERFBENCH_CHECK_LEVEL) + "}";
  doc += ",\"setup_s\":" + json_list(setup_s);
  doc += ",\"pass_wall_s\":" + json_list(walls);
  doc += ",\"setup_ms\":[";
  for (std::size_t k = 0; k < setup_pieces.size(); ++k) {
    doc += (k != 0 ? "," : "") + json_list(setup_pieces[k].ms);
  }
  doc += "],\"setup_segment\":[";
  for (std::size_t k = 0; k < setup_pieces.size(); ++k) {
    doc += (k != 0 ? "," : "") + json_list(setup_pieces[k].segment);
  }
  doc += "],\"reference_ms\":" + json_list(reference.samples());
  doc += ",\"peak_rss_bytes\":" + std::to_string(peak_rss);
  doc += ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    doc += (i != 0 ? "," : "") + json_string(errors[i]);
  }
  doc += "],\"trials\":[";
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const campaign::Trial& t = trials[i];
    const Record& r = records[i];
    const Counts& c = r.counts;
    const auto u = [](std::uint64_t v) { return std::to_string(v); };
    doc += i != 0 ? ",\n" : "\n";
    doc += "{\"index\":" + u(t.index) + ",\"family\":" + json_string(t.family) +
           ",\"n\":" + u(inputs[i].g.vertex_count()) +
           ",\"m\":" + u(inputs[i].g.edge_count()) +
           ",\"delay\":" + json_string(t.delay.label) +
           ",\"startup\":" + json_string(analysis::to_string(t.startup)) +
           ",\"initial_tree\":" + json_string(t.initial_tree) +
           ",\"faults\":" + json_string(t.fault.label) +
           ",\"status\":" + json_string(r.status) +
           ",\"error\":" + json_string(r.error) +
           ",\"k_init\":" + std::to_string(c.k_init) +
           ",\"k_final\":" + std::to_string(c.k_final) +
           ",\"lower_bound\":" + std::to_string(inputs[i].lower_bound) +
           ",\"rounds\":" + u(c.rounds) + ",\"improvements\":" + u(c.improvements) +
           ",\"stop_reason\":" + json_string(core::to_string(c.stop)) +
           ",\"outcome\":" + json_string(sim::to_string(c.outcome)) +
           ",\"startup_msgs\":" + u(c.startup_msgs) +
           ",\"mdst_msgs\":" + u(c.mdst_msgs) +
           ",\"startup_time\":" + u(c.startup_time) +
           ",\"mdst_time\":" + u(c.mdst_time) +
           ",\"re_elections\":" + u(c.re_elections) +
           ",\"recovery_msgs\":" + u(c.recovery_msgs) +
           ",\"retransmits\":" + u(c.retransmits) + ",\"dropped\":" + u(c.dropped) +
           ",\"node_bytes\":" + u(r.memory.node) +
           ",\"queue_bytes\":" + u(r.memory.queue) +
           ",\"floor_bytes\":" + u(r.memory.floor) +
           ",\"metrics_bytes\":" + u(r.memory.metrics) +
           ",\"witness\":" + (r.witness ? "true" : "false") +
           ",\"ms\":" + json_list(r.timed.ms) +
           ",\"segment\":" + json_list(r.timed.segment) +
           ",\"traced_ms\":" + json_list(r.traced.ms) +
           ",\"traced_segment\":" + json_list(r.traced.segment) + "}";
  }
  doc += "]}\n";
  std::fputs(doc.c_str(), stdout);
  return 0;
}
