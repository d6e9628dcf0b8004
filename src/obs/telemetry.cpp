#include "obs/telemetry.hpp"

#include "obs/histogram.hpp"
#include "obs/profiler.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

namespace ge::obs {

namespace detail {
std::atomic<bool> g_tracing_enabled{false};
std::atomic<bool> g_metrics_enabled{false};
std::atomic<bool> g_profiling_enabled{false};
std::atomic<uint64_t> g_counters[static_cast<int>(Counter::kCount)] = {};
}  // namespace detail

namespace {

/// Cap per thread: a runaway tracing session degrades to dropped spans
/// (counted in kSpansDropped) instead of unbounded memory growth.
constexpr size_t kMaxEventsPerThread = size_t{1} << 20;

/// Span buffer owned by one thread. Only the owning thread appends;
/// the registry reads it during collect_trace(), which the contract
/// restricts to quiescent moments (outside parallel regions).
struct ThreadBuffer {
  int tid = 0;
  std::vector<TraceEvent> events;
};

struct Registry {
  std::mutex mu;  // guards the buffer list and gauges, never the fast path
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  /// Events flushed from exited threads' buffers (see TlsRetire): a
  /// short-lived pool worker's spans survive here until clear_trace().
  std::vector<TraceEvent> retired;
  int next_tid = 0;
  std::map<std::string, double> gauge_map;
  std::map<std::string, QuantErrorSummary> layer_quant;
  std::string process_label = "goldeneye";
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: worker threads may record
  return *r;                            // past static destruction order
}

thread_local ThreadBuffer* tls_buffer = nullptr;
thread_local bool tls_buffer_retired = false;

/// Thread-exit flush: moves the dying thread's events into the registry's
/// retired list and frees its buffer, so a retired pool worker's trace is
/// never lost and the buffer list does not grow per short-lived thread.
struct TlsRetire {
  ThreadBuffer* buf = nullptr;
  ~TlsRetire() {
    tls_buffer_retired = true;
    if (buf == nullptr) return;
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.retired.insert(r.retired.end(),
                     std::make_move_iterator(buf->events.begin()),
                     std::make_move_iterator(buf->events.end()));
    for (auto it = r.buffers.begin(); it != r.buffers.end(); ++it) {
      if (it->get() == buf) {
        r.buffers.erase(it);
        break;
      }
    }
    tls_buffer = nullptr;
  }
};

ThreadBuffer& thread_buffer() {
  if (tls_buffer == nullptr) {
    auto buf = std::make_unique<ThreadBuffer>();
    Registry& r = registry();
    {
      std::lock_guard<std::mutex> lk(r.mu);
      buf->tid = r.next_tid++;
      tls_buffer = buf.get();
      r.buffers.push_back(std::move(buf));
    }
    if (!tls_buffer_retired) {
      // Flush-on-exit guard. A span recorded *after* the guard already ran
      // (thread_local teardown) gets a fresh registry-owned buffer with no
      // guard instead — never a second construction of a destroyed one.
      thread_local TlsRetire retire;
      retire.buf = tls_buffer;
    }
  }
  return *tls_buffer;
}

std::atomic<int> g_log_level{0};

// --- distributed-trace identity --------------------------------------------

thread_local TraceContext tls_trace_ctx;

/// splitmix64: cheap, well-mixed 64-bit hash for id generation. Telemetry
/// identity only — never touches RNG streams used by trials.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Per-process salt in the high 32 bits of every span id, so ids minted by
/// separate processes (server, workers) stay distinct in a merged trace.
uint64_t span_salt() {
  static const uint64_t salt =
      mix64(static_cast<uint64_t>(::getpid()) * 0x10001ull ^
            static_cast<uint64_t>(
                std::chrono::system_clock::now().time_since_epoch().count()))
      << 32;
  return salt;
}

uint64_t next_span_id() {
  static std::atomic<uint64_t> counter{0};
  // Low 32 bits count, high 32 bits salt; +1 keeps the id nonzero even for
  // the (absurd) case of a zero salt wrapping around.
  return span_salt() | ((counter.fetch_add(1, std::memory_order_relaxed) + 1) &
                        0xffffffffull);
}

int64_t process_start_steady_ns() {
  static const int64_t start = now_ns();
  return start;
}

// Touch the start timestamp at static-init time so uptime measures from
// process start, not from the first scrape.
[[maybe_unused]] const int64_t g_process_start_anchor =
    process_start_steady_ns();

}  // namespace

TraceContext current_trace_context() noexcept { return tls_trace_ctx; }

TraceContextScope::TraceContextScope(TraceContext ctx) : prev_(tls_trace_ctx) {
  tls_trace_ctx = ctx;
}

TraceContextScope::~TraceContextScope() { tls_trace_ctx = prev_; }

uint64_t make_trace_id() {
  static std::atomic<uint64_t> counter{0};
  uint64_t id = 0;
  do {
    id = mix64(static_cast<uint64_t>(unix_now_ns()) ^
               (static_cast<uint64_t>(::getpid()) << 40) ^
               counter.fetch_add(1, std::memory_order_relaxed));
  } while (id == 0);
  return id;
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_tracing_enabled(bool on) {
  detail::g_tracing_enabled.store(on, std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

void set_profiling_enabled(bool on) {
  detail::g_profiling_enabled.store(on, std::memory_order_relaxed);
}

// --- spans -----------------------------------------------------------------

void Span::begin(const char* category, const char* name, const char* detail) {
  category_ = category;
  name_ = name;
  base_len_ = static_cast<uint32_t>(name_.size());
  if (detail != nullptr) {
    name_ += '(';
    name_ += detail;
    name_ += ')';
  }
  // Both flags are captured here: a span born while only one sink was on
  // stays consistent for its whole lifetime even if flags flip mid-scope.
  trace_ = tracing_enabled();
  profile_ = profiling_enabled();
  if (trace_ && tls_trace_ctx.active()) {
    // Under a trace context: mint an id, parent under the innermost span,
    // and become the context for spans nested inside this one.
    trace_id_ = tls_trace_ctx.trace_id;
    parent_span_id_ = tls_trace_ctx.span_id;
    span_id_ = next_span_id();
    ctx_prev_ = tls_trace_ctx;
    tls_trace_ctx = TraceContext{trace_id_, span_id_};
    ctx_pushed_ = true;
  }
  if (profile_) detail::profile_span_begin();
  start_ns_ = now_ns();  // stamped last: excludes the setup above
}

void Span::end() {
  const int64_t dur = now_ns() - start_ns_;
  if (ctx_pushed_) tls_trace_ctx = ctx_prev_;
  // Profile first (it must pop the frame the begin pushed), trace second.
  if (profile_) detail::profile_span_end(category_, name_, base_len_, dur);
  if (!trace_) return;
  ThreadBuffer& buf = thread_buffer();
  if (buf.events.size() >= kMaxEventsPerThread) {
    // The span cap is accounting, not control flow — always count drops so
    // a truncated trace is detectable even when metrics are off.
    detail::g_counters[static_cast<int>(Counter::kSpansDropped)].fetch_add(
        1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e{std::move(name_), category_, buf.tid, start_ns_, dur};
  e.trace_id = trace_id_;
  e.span_id = span_id_;
  e.parent_span_id = parent_span_id_;
  buf.events.push_back(std::move(e));
}

void record_span(const char* category, const std::string& name,
                 int64_t start_ns, int64_t dur_ns) {
  if (!tracing_enabled()) return;
  ThreadBuffer& buf = thread_buffer();
  if (buf.events.size() >= kMaxEventsPerThread) {
    detail::g_counters[static_cast<int>(Counter::kSpansDropped)].fetch_add(
        1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e{name, category, buf.tid, start_ns, dur_ns};
  if (tls_trace_ctx.active()) {
    e.trace_id = tls_trace_ctx.trace_id;
    e.span_id = next_span_id();
    e.parent_span_id = tls_trace_ctx.span_id;
  }
  buf.events.push_back(std::move(e));
}

std::vector<TraceEvent> collect_trace() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::vector<TraceEvent> out;
  out.insert(out.end(), r.retired.begin(), r.retired.end());
  for (const auto& buf : r.buffers) {
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

void clear_trace() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& buf : r.buffers) buf->events.clear();
  r.retired.clear();
}

size_t trace_event_count() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  size_t n = r.retired.size();
  for (const auto& buf : r.buffers) n += buf->events.size();
  return n;
}

namespace {

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

void set_trace_process_label(const std::string& label) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.process_label = label;
}

std::string chrome_trace_json() {
  const auto events = collect_trace();
  std::string label;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    label = r.process_label;
  }
  // Steady→unix offset sampled back-to-back at export time: `trace --merge`
  // adds it to every ts to put all processes on the shared unix timeline.
  const int64_t epoch_unix_ns = unix_now_ns() - now_ns();
  char num[64];
  // One event per line so the merge reader (core/trace_merge.cpp) can scan
  // flat records without a full JSON parser; still valid JSON throughout.
  std::string out = "{\"traceEvents\":[\n";
  out += "{\"name\":\"goldeneye_trace_meta\",\"cat\":\"meta\",\"ph\":\"M\","
         "\"pid\":1,\"tid\":0,\"process_label\":\"";
  append_json_escaped(out, label);
  std::snprintf(num, sizeof(num), "\",\"epoch_unix_ns\":%lld",
                static_cast<long long>(epoch_unix_ns));
  out += num;
  out += '}';
  for (const auto& e : events) {
    out += ",\n";
    out += "{\"name\":\"";
    append_json_escaped(out, e.name);
    out += "\",\"cat\":\"";
    append_json_escaped(out, e.category);
    // Complete event ("X"): timestamps in microseconds, duration likewise.
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    std::snprintf(num, sizeof(num), "%d", e.tid);
    out += num;
    std::snprintf(num, sizeof(num), ",\"ts\":%.3f",
                  static_cast<double>(e.start_ns) / 1000.0);
    out += num;
    std::snprintf(num, sizeof(num), ",\"dur\":%.3f",
                  static_cast<double>(e.dur_ns) / 1000.0);
    out += num;
    if (e.trace_id != 0) {
      // 64-bit ids ride as hex strings: JSON numbers lose precision past
      // 2^53 and Chrome ignores unknown string fields.
      std::snprintf(num, sizeof(num), ",\"trace_id\":\"%016llx\"",
                    static_cast<unsigned long long>(e.trace_id));
      out += num;
      std::snprintf(num, sizeof(num), ",\"span_id\":\"%016llx\"",
                    static_cast<unsigned long long>(e.span_id));
      out += num;
      std::snprintf(num, sizeof(num), ",\"parent_span_id\":\"%016llx\"",
                    static_cast<unsigned long long>(e.parent_span_id));
      out += num;
    }
    out += '}';
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << chrome_trace_json() << '\n';
  return static_cast<bool>(f);
}

// --- counters --------------------------------------------------------------

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kElementsQuantized: return "elements_quantized";
    case Counter::kSaturations: return "saturations";
    case Counter::kNanInputs: return "nan_inputs";
    case Counter::kInfInputs: return "inf_inputs";
    case Counter::kInjections: return "injections";
    case Counter::kTrials: return "trials";
    case Counter::kFormatCacheHits: return "format_cache_hits";
    case Counter::kFormatCacheMisses: return "format_cache_misses";
    case Counter::kPoolJobs: return "pool_jobs";
    case Counter::kPoolChunks: return "pool_chunks";
    case Counter::kSpansDropped: return "spans_dropped";
    case Counter::kAllocationsAvoided: return "allocations_avoided";
    case Counter::kCowCopies: return "cow_copies";
    case Counter::kCowBytes: return "cow_bytes";
    case Counter::kArenaReuses: return "arena_reuses";
    case Counter::kArenaEvictions: return "arena_evictions";
    case Counter::kCheckpointWrites: return "checkpoint_writes";
    case Counter::kCampaignResumes: return "campaign_resumes";
    case Counter::kPrefixCacheHits: return "prefix_cache_hits";
    case Counter::kSuffixLayersSkipped: return "suffix_layers_skipped";
    case Counter::kPrefixCacheBytes: return "prefix_cache_bytes";
    // Prometheus: sanitize() + "_total" render these as ge_net_requests_total
    // et al. — the names promised in docs/serving.md.
    case Counter::kNetRequests: return "net_requests";
    case Counter::kNetLeasesGranted: return "net_leases_granted";
    case Counter::kNetLeaseReclaims: return "net_lease_reclaims";
    case Counter::kNetFramesSent: return "net_frames_sent";
    case Counter::kNetFramesReceived: return "net_frames_received";
    case Counter::kNetLeaseStragglers: return "lease_stragglers";
    case Counter::kSlicedReplays: return "sliced_replays";
    case Counter::kCount: break;
  }
  return "unknown";
}

uint64_t counter_value(Counter c) {
  return detail::g_counters[static_cast<int>(c)].load(
      std::memory_order_relaxed);
}

void reset_counters() {
  for (auto& c : detail::g_counters) c.store(0, std::memory_order_relaxed);
}

// --- gauges ----------------------------------------------------------------

void set_gauge(const std::string& name, double value) {
  if (!metrics_enabled()) return;
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.gauge_map[name] = value;
}

std::vector<std::pair<std::string, double>> gauges() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  return {r.gauge_map.begin(), r.gauge_map.end()};
}

void reset_gauges() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.gauge_map.clear();
}

// --- quantization statistics -----------------------------------------------

void record_quantization(const float* before, const float* after, int64_t n,
                         double abs_max) {
  if (!metrics_enabled() || n <= 0) return;
  const float mx = static_cast<float>(abs_max);
  uint64_t sat = 0, nan = 0, inf = 0;
  for (int64_t i = 0; i < n; ++i) {
    const float in = before[i];
    const float out = after[i];
    if (std::isnan(in)) {
      ++nan;
      continue;
    }
    if (std::isinf(in)) {
      ++inf;
      continue;
    }
    // Saturation: the output clamped at the representable edge, or a finite
    // input overflowed to Inf (non-saturating FP overflow).
    if (std::isinf(out) || (std::fabs(out) >= mx && std::fabs(in) > mx)) {
      ++sat;
    }
  }
  add(Counter::kElementsQuantized, static_cast<uint64_t>(n));
  if (sat) add(Counter::kSaturations, sat);
  if (nan) add(Counter::kNanInputs, nan);
  if (inf) add(Counter::kInfInputs, inf);
}

void record_layer_quant_error(const std::string& layer, const float* before,
                              const float* after, int64_t n, double abs_max) {
  if (!metrics_enabled() || n <= 0) return;
  const float mx = static_cast<float>(abs_max);
  QuantErrorSummary local;
  local.elements = static_cast<uint64_t>(n);
  for (int64_t i = 0; i < n; ++i) {
    const float in = before[i];
    const float out = after[i];
    if (!std::isfinite(in) || !std::isfinite(out)) {
      if (std::isinf(out) && std::isfinite(in)) ++local.saturated;
      continue;
    }
    const double err = std::fabs(static_cast<double>(in) - out);
    local.sum_abs_err += err;
    local.max_abs_err = std::max(local.max_abs_err, err);
    if (std::fabs(out) >= mx && std::fabs(in) > mx) ++local.saturated;
  }
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  QuantErrorSummary& s = r.layer_quant[layer];
  s.elements += local.elements;
  s.saturated += local.saturated;
  s.sum_abs_err += local.sum_abs_err;
  s.max_abs_err = std::max(s.max_abs_err, local.max_abs_err);
}

std::vector<std::pair<std::string, QuantErrorSummary>> layer_quant_summaries() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  return {r.layer_quant.begin(), r.layer_quant.end()};
}

void reset_layer_quant_summaries() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.layer_quant.clear();
}

void reset_all() {
  reset_counters();
  reset_gauges();
  reset_layer_quant_summaries();
  reset_histograms();
  reset_profile();
  clear_trace();
}

// --- build / process identity ----------------------------------------------

#ifndef GE_BUILD_VERSION
#define GE_BUILD_VERSION "dev"
#endif
#ifndef GE_BUILD_COMMIT
#define GE_BUILD_COMMIT "unknown"
#endif

const char* build_version() { return GE_BUILD_VERSION; }

const char* build_commit() { return GE_BUILD_COMMIT; }

double uptime_seconds() {
  return static_cast<double>(now_ns() - process_start_steady_ns()) / 1e9;
}

int64_t unix_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// --- logging ---------------------------------------------------------------

void set_log_level(int level) {
  g_log_level.store(level, std::memory_order_relaxed);
}

int log_level() { return g_log_level.load(std::memory_order_relaxed); }

void log(int level, const std::string& msg) {
  if (level > log_level()) return;
  std::fprintf(stderr, "[ge] %s\n", msg.c_str());
}

}  // namespace ge::obs
