// Benchmark-side call tracing: spans the benchmark records around its own
// calls into the library's public functions, merged per call with the
// phase spans the library already emits through its obs::SpanTrace sink.
//
// Each timed call of a traced run is one trace (its id is the call index).
// close_call() walks the call's spans as one timeline and charges every
// instant of the call to exactly one layer ("self time on the blocking
// path"):
//
//   * on the calling thread the innermost active span owns the instant
//     (latest start wins; pseudo-spans such as the stream queue wait never
//     shadow a real span);
//   * when that innermost span is a container - a public call that fans
//     work out to other threads (route_batch, StreamEngine::run) or runs
//     code with no spans of its own (ResilientRouter::route) - the instant
//     goes to a queue-wait pseudo-span of the caller if one is open, else
//     to the innermost span open on another thread, else to the container
//     itself when the library emitted it;
//   * everything else stays unattributed: instants inside the call bracket
//     that no span covers (the gap between the benchmark's timer and its
//     span), and instants where only the benchmark's own span around the
//     public call is open, so no layer is known to be running
//     (uncovered_ns()).
//
// Spans are kept in memory; write_chrome() writes the first few calls as a
// Chrome trace-event file at exit.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace perfbench {

/// The repository modules a span is charged to.
enum class Layer : std::uint8_t {
  kCompiledBnb,
  kRouteBatch,
  kScheduleCache,
  kScheduleStore,
  kStreamEngine,
  kDeliveryAudit,
  kResilience,
  kBench,
};
inline constexpr std::size_t kLayerCount = 8;

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

/// How a span takes part in blocking-path attribution (see above).
enum class SpanKind : std::uint8_t { kLeaf, kContainer, kPseudo };

struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  SpanKind kind = SpanKind::kLeaf;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t call = 0;        ///< trace id: index of the timed call
  std::uint32_t thread_id = 0;   ///< obs::current_thread_id() of the recorder
  std::int64_t parent = -1;      ///< index in the call of the benchmark span around
                                 ///< the public call, -1 = none (that span itself)
  bool from_program = false;     ///< emitted by the library, not by the benchmark
  std::uint64_t program_trace = 0;   ///< the library's own trace id, when from_program
  std::uint64_t program_parent = 0;  ///< the library's own parent id, when from_program
};

class CallTracer {
 public:
  /// Keep the spans of the first `export_calls` closed calls for export.
  explicit CallTracer(std::size_t export_calls) : export_calls_(export_calls) {}

  /// Open a new call (trace id `call`) recorded by thread `caller_tid`.
  void begin_call(std::uint64_t call, std::uint32_t caller_tid);

  /// Record the benchmark-side span around the open call's public call.
  void add(const char* name, Layer layer, SpanKind kind, std::uint64_t start_ns,
           std::uint64_t end_ns);

  /// Merge the library's phase spans recorded during the open call; they
  /// become children of the span add() recorded.
  void add_program(const std::vector<bnb::obs::SpanRecord>& records);

  /// Attribute the open call over its bracket [start_ns, end_ns] - the
  /// benchmark's own per-call timer - and fold it into the totals.
  void close_call(std::uint64_t start_ns, std::uint64_t end_ns);

  /// A span outside any timed call (set-up, side measurements): kept for
  /// export and counted in the per-name totals, never attributed.
  void add_untimed(const char* name, Layer layer, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::uint64_t call);

  // -- totals over every closed call --------------------------------------
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] std::uint64_t bracket_ns() const noexcept { return bracket_ns_; }
  [[nodiscard]] std::uint64_t attributed_ns() const noexcept { return attributed_ns_; }
  /// The unattributed time during which the benchmark's span around the
  /// public call was open but no library span was (the rest of the
  /// unattributed time lies between the timer and that span).
  [[nodiscard]] std::uint64_t uncovered_ns() const noexcept { return uncovered_ns_; }
  [[nodiscard]] std::uint64_t self_ns(Layer layer) const noexcept {
    return self_ns_[static_cast<std::size_t>(layer)];
  }
  /// Summed duration / count of every span with this name (program phase
  /// spans are named "<layer>.<phase>", e.g. "compiled_bnb.solve").
  [[nodiscard]] std::uint64_t total_ns(const std::string& name) const;
  [[nodiscard]] std::uint64_t count(const std::string& name) const;
  /// Leaf-span time of the calling thread / of all other threads.
  [[nodiscard]] std::uint64_t caller_leaf_ns() const noexcept { return caller_leaf_ns_; }
  [[nodiscard]] std::uint64_t other_leaf_ns() const noexcept { return other_leaf_ns_; }
  /// Sum over calls of the busiest single thread's leaf-span time.
  [[nodiscard]] std::uint64_t critical_leaf_ns() const noexcept {
    return critical_leaf_ns_;
  }

  /// Write the kept spans as Chrome trace-event JSON (loads in Perfetto).
  /// Returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome(const std::string& path) const;
  [[nodiscard]] std::size_t exported_spans() const noexcept { return kept_.size(); }

 private:
  struct Total {
    std::string name;
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
  };
  void tally(const char* name, std::uint64_t ns);

  std::size_t export_calls_;
  std::uint64_t call_ = 0;
  std::uint32_t caller_tid_ = 0;
  std::vector<Span> open_;
  std::vector<Span> kept_;

  std::uint64_t calls_ = 0;
  std::uint64_t bracket_ns_ = 0;
  std::uint64_t attributed_ns_ = 0;
  std::uint64_t uncovered_ns_ = 0;
  std::array<std::uint64_t, kLayerCount> self_ns_{};
  std::uint64_t caller_leaf_ns_ = 0;
  std::uint64_t other_leaf_ns_ = 0;
  std::uint64_t critical_leaf_ns_ = 0;
  std::vector<Total> totals_;
};

}  // namespace perfbench
