#include "call_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

struct PhaseInfo {
  const char* name;
  Layer layer;
  SpanKind kind;
};

// The library's phase spans (obs/span.hpp), named after the module that
// runs them.  kRoute is the fused clean/fault route, i.e. a cold control
// solve; the stream run fans out to its solver thread.
PhaseInfo phase_info(bnb::obs::Phase phase) noexcept {
  using bnb::obs::Phase;
  switch (phase) {
    case Phase::kSolve:
      return {"compiled_bnb.solve", Layer::kCompiledBnb, SpanKind::kLeaf};
    case Phase::kApply:
      return {"compiled_bnb.apply", Layer::kCompiledBnb, SpanKind::kLeaf};
    case Phase::kRoute:
      return {"compiled_bnb.route", Layer::kCompiledBnb, SpanKind::kLeaf};
    case Phase::kAudit:
      return {"delivery_audit.audit", Layer::kDeliveryAudit, SpanKind::kLeaf};
    case Phase::kDiagnose:
      return {"resilience.diagnose", Layer::kResilience, SpanKind::kLeaf};
    case Phase::kFallback:
      return {"resilience.fallback", Layer::kResilience, SpanKind::kLeaf};
    case Phase::kStreamRun:
      return {"stream_engine.run", Layer::kStreamEngine, SpanKind::kContainer};
    case Phase::kSmallApply:
      return {"compiled_bnb.apply_small", Layer::kCompiledBnb, SpanKind::kLeaf};
    case Phase::kQueueWait:
      return {"stream_engine.queue_wait", Layer::kStreamEngine, SpanKind::kPseudo};
    case Phase::kCacheLookup:
      return {"schedule_cache.find", Layer::kScheduleCache, SpanKind::kLeaf};
  }
  return {"unknown", Layer::kBench, SpanKind::kLeaf};
}

// Innermost of two spans open on one thread: the later start; on a tie the
// shorter one (it nests inside the other).
bool inner_than(const Span& a, const Span& b) noexcept {
  if (a.start_ns != b.start_ns) return a.start_ns > b.start_ns;
  return a.end_ns < b.end_ns;
}

void json_string(std::FILE* f, const char* s) {
  std::fputc('"', f);
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') std::fputc('\\', f);
    std::fputc(*s, f);
  }
  std::fputc('"', f);
}

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kCompiledBnb: return "compiled_bnb";
    case Layer::kRouteBatch: return "route_batch";
    case Layer::kScheduleCache: return "schedule_cache";
    case Layer::kScheduleStore: return "schedule_store";
    case Layer::kStreamEngine: return "stream_engine";
    case Layer::kDeliveryAudit: return "delivery_audit";
    case Layer::kResilience: return "resilience";
    case Layer::kBench: return "bench";
  }
  return "unknown";
}

void CallTracer::begin_call(std::uint64_t call, std::uint32_t caller_tid) {
  call_ = call;
  caller_tid_ = caller_tid;
  open_.clear();
}

void CallTracer::add(const char* name, Layer layer, SpanKind kind, std::uint64_t start_ns,
                     std::uint64_t end_ns) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.kind = kind;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.call = call_;
  s.thread_id = caller_tid_;
  open_.push_back(s);
}

void CallTracer::add_program(const std::vector<bnb::obs::SpanRecord>& records) {
  const std::int64_t parent = open_.empty() ? -1 : 0;
  for (const bnb::obs::SpanRecord& r : records) {
    const PhaseInfo info = phase_info(r.phase);
    Span s;
    s.name = info.name;
    s.layer = info.layer;
    s.kind = info.kind;
    s.start_ns = r.start_ns;
    s.end_ns = r.start_ns + r.duration_ns;
    s.call = call_;
    s.thread_id = r.thread_id;
    s.parent = parent;
    s.from_program = true;
    s.program_trace = r.trace_id;
    s.program_parent = r.parent_id;
    open_.push_back(s);
  }
}

void CallTracer::add_untimed(const char* name, Layer layer, std::uint64_t start_ns,
                             std::uint64_t end_ns, std::uint64_t call) {
  tally(name, end_ns - start_ns);
  if (calls_ < export_calls_) {
    Span s;
    s.name = name;
    s.layer = layer;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.call = call;
    kept_.push_back(s);
  }
}

void CallTracer::tally(const char* name, std::uint64_t ns) {
  for (Total& t : totals_) {
    if (t.name == name) {
      t.ns += ns;
      ++t.count;
      return;
    }
  }
  totals_.push_back(Total{name, ns, 1});
}

std::uint64_t CallTracer::total_ns(const std::string& name) const {
  for (const Total& t : totals_) {
    if (t.name == name) return t.ns;
  }
  return 0;
}

std::uint64_t CallTracer::count(const std::string& name) const {
  for (const Total& t : totals_) {
    if (t.name == name) return t.count;
  }
  return 0;
}

void CallTracer::close_call(std::uint64_t start_ns, std::uint64_t end_ns) {
  std::map<std::uint32_t, std::uint64_t> leaf_by_thread;
  for (const Span& s : open_) {
    tally(s.name, s.end_ns - s.start_ns);
    if (s.kind != SpanKind::kLeaf) continue;
    leaf_by_thread[s.thread_id] += s.end_ns - s.start_ns;
    std::uint64_t& leaf = s.thread_id == caller_tid_ ? caller_leaf_ns_ : other_leaf_ns_;
    leaf += s.end_ns - s.start_ns;
  }
  std::uint64_t busiest = 0;
  for (const auto& [tid, ns] : leaf_by_thread) busiest = std::max(busiest, ns);
  critical_leaf_ns_ += busiest;

  // Sweep the call's span boundaries, clamped to the bracket.
  std::vector<std::uint64_t> cuts{start_ns, end_ns};
  for (const Span& s : open_) {
    cuts.push_back(std::clamp(s.start_ns, start_ns, end_ns));
    cuts.push_back(std::clamp(s.end_ns, start_ns, end_ns));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const std::uint64_t a = cuts[i];
    const std::uint64_t b = cuts[i + 1];
    const Span* mine = nullptr;
    const Span* mine_pseudo = nullptr;
    const Span* other = nullptr;
    for (const Span& s : open_) {
      if (s.start_ns > a || s.end_ns < b) continue;  // not open over [a, b]
      if (s.thread_id == caller_tid_) {
        if (s.kind == SpanKind::kPseudo) {
          if (mine_pseudo == nullptr || inner_than(s, *mine_pseudo)) mine_pseudo = &s;
        } else if (mine == nullptr || inner_than(s, *mine)) {
          mine = &s;
        }
      } else if (s.kind != SpanKind::kPseudo &&
                 (other == nullptr || inner_than(s, *other))) {
        other = &s;
      }
    }
    if (mine == nullptr) continue;  // unattributed: between timer and span
    const Span* owner = mine;
    if (mine->kind == SpanKind::kContainer) {
      if (mine_pseudo != nullptr) {
        owner = mine_pseudo;
      } else if (other != nullptr) {
        owner = other;
      } else if (!mine->from_program) {
        // Only the benchmark's own span around the public call is open:
        // the library is running code that has no span of its own.
        uncovered_ns_ += b - a;
        continue;
      }
    }
    self_ns_[static_cast<std::size_t>(owner->layer)] += b - a;
    attributed_ns_ += b - a;
  }
  bracket_ns_ += end_ns - start_ns;
  if (calls_ < export_calls_) kept_.insert(kept_.end(), open_.begin(), open_.end());
  ++calls_;
  open_.clear();
}

bool CallTracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = ~std::uint64_t{0};
  for (const Span& s : kept_) origin = std::min(origin, s.start_ns);
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [", f);
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fputs(i == 0 ? "\n" : ",\n", f);
    std::fputs("{\"name\": ", f);
    json_string(f, s.name);
    std::fputs(", \"cat\": ", f);
    json_string(f, layer_name(s.layer));
    std::fprintf(f,
                 ", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"trace_id\": %llu, \"parent\": %lld, \"source\": \"%s\"",
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.thread_id,
                 static_cast<unsigned long long>(s.call),
                 static_cast<long long>(s.parent),
                 s.from_program ? "program" : "bench");
    if (s.from_program) {
      std::fprintf(f, ", \"program_trace\": %llu, \"program_parent\": %llu",
                   static_cast<unsigned long long>(s.program_trace),
                   static_cast<unsigned long long>(s.program_parent));
    }
    std::fputs("}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
