// ge::obs — telemetry for the GoldenEye stack: tracing spans, metric
// counters/gauges, and per-layer quantization-error summaries.
//
// Design contract (see DESIGN.md §"Observability"):
//
//  1. Zero cost when disabled. Every instrumentation entry point starts
//     with a relaxed atomic load of an enabled flag and returns
//     immediately when telemetry is off: no clock reads, no allocation,
//     no locking. Hot loops (format quantisation, pool chunks) pay one
//     predictable branch.
//  2. Telemetry only *reads* program state. It never feeds back into RNG
//     streams, chunk partitioning, or any computed value, so results are
//     bitwise identical with tracing/metrics on or off
//     (tests/test_determinism.cpp covers this).
//  3. Spans are recorded into per-thread buffers owned by a process-wide
//     registry: the recording fast path takes no lock and touches no
//     shared cache line. Export (collect_trace / write_chrome_trace) must
//     run outside parallel regions — after campaigns, not during.
//
// Tracing exports Chrome trace_event JSON ("ph":"X" complete events),
// loadable in chrome://tracing or https://ui.perfetto.dev.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ge::obs {

// --- enable switches -------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_tracing_enabled;
extern std::atomic<bool> g_metrics_enabled;
extern std::atomic<bool> g_profiling_enabled;
}  // namespace detail

/// True while span recording is on (set via set_tracing_enabled or the
/// CLI's --trace flag / GE_TRACE env variable).
inline bool tracing_enabled() noexcept {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// True while counter/gauge/quant-error recording is on.
inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// True while span aggregation (obs/profiler.hpp) is on: spans fold
/// count/total/self-time statistics into the profile registry instead of
/// (or in addition to) pushing trace events.
inline bool profiling_enabled() noexcept {
  return detail::g_profiling_enabled.load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool on);
void set_metrics_enabled(bool on);
void set_profiling_enabled(bool on);

/// RAII: enables tracing and/or metrics, restoring the previous state on
/// destruction (used by the CLI and by tests).
struct TelemetryScope {
  bool prev_tracing = tracing_enabled();
  bool prev_metrics = metrics_enabled();
  TelemetryScope(bool tracing, bool metrics) {
    set_tracing_enabled(tracing);
    set_metrics_enabled(metrics);
  }
  ~TelemetryScope() {
    set_tracing_enabled(prev_tracing);
    set_metrics_enabled(prev_metrics);
  }
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;
};

// --- tracing ---------------------------------------------------------------

/// One completed span. Times come from std::chrono::steady_clock,
/// nanoseconds since an arbitrary process-wide epoch.
struct TraceEvent {
  std::string name;
  const char* category = "";  ///< static string: "emulator", "pool", ...
  int tid = 0;                ///< registry-assigned dense thread id
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  // Distributed-trace identity. All zero for spans recorded outside a
  // trace context (the common, single-process case).
  uint64_t trace_id = 0;        ///< request identity, propagated on the wire
  uint64_t span_id = 0;         ///< this span (process-salted, unique)
  uint64_t parent_span_id = 0;  ///< enclosing span (0 = trace root)
};

// --- distributed trace context ---------------------------------------------
//
// A trace context is a (trace_id, span_id) pair carried across process
// boundaries by ge::net (a tagged trailing field on campaign specs). While
// a context is installed on a thread, every Span recorded there allocates a
// span id and parents itself under the innermost enclosing span, so the
// per-process traces merge into one tree (`goldeneye trace --merge`).

/// Identity propagated across threads and processes. trace_id == 0 means
/// "no context": spans record without ids, exactly as before.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  ///< parent for spans opened under this context
  bool active() const noexcept { return trace_id != 0; }
};

/// The calling thread's current context ({0,0} when none is installed).
TraceContext current_trace_context() noexcept;

/// RAII: installs `ctx` as the calling thread's trace context, restoring
/// the previous one on destruction. Used at propagation boundaries (session
/// threads, the executor, worker lease loops); plain nested Spans maintain
/// the context automatically in between.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext ctx);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext prev_;
};

/// Fresh nonzero trace id (mixed from wall clock / pid / a counter, so ids
/// from concurrent submitters don't collide). Telemetry-only: never feeds
/// back into seeds or trial scheduling.
uint64_t make_trace_id();

/// RAII tracing scope. Construction stamps the start time, destruction
/// records the completed event into the calling thread's buffer and/or
/// folds the duration into the profiler aggregate (obs/profiler.hpp),
/// per the tracing/profiling flags captured at construction. Nesting
/// works naturally (inner spans close first). `category` must be a string
/// literal (stored by pointer); `name` may be dynamic. A nullptr `name`
/// makes the span inert — the idiom for conditionally-traced scopes.
class Span {
 public:
  Span(const char* category, const char* name) {
    if (name != nullptr && (tracing_enabled() || profiling_enabled())) {
      begin(category, name, nullptr);
    }
  }
  /// Name rendered as "name(detail)", e.g. "site(conv1)". The profiler
  /// aggregates by the base name only (details are unbounded-cardinality;
  /// AttrScope carries the layer attribution instead).
  Span(const char* category, const char* name, const std::string& detail) {
    if (tracing_enabled() || profiling_enabled()) {
      begin(category, name, detail.c_str());
    }
  }
  ~Span() {
    if (start_ns_ >= 0) end();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's identity — {trace_id, own span id} when the span opened
  /// under an active trace context, {0,0} otherwise. Callers that ship the
  /// context over the wire (ge::net submit) read it from here.
  TraceContext context() const noexcept { return TraceContext{trace_id_, span_id_}; }

 private:
  void begin(const char* category, const char* name, const char* detail);
  void end();

  int64_t start_ns_ = -1;  ///< -1 = telemetry was off at construction
  std::string name_;
  const char* category_ = "";
  uint32_t base_len_ = 0;  ///< name_ length before the "(detail)" suffix
  bool trace_ = false;     ///< tracing was on at begin
  bool profile_ = false;   ///< profiling was on at begin
  bool ctx_pushed_ = false;  ///< installed itself as the thread's context
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  TraceContext ctx_prev_;  ///< restored at end() when ctx_pushed_
};

/// Nanoseconds on the steady clock (the span timebase), for callers that
/// compute derived rates (trials/sec) themselves.
int64_t now_ns();

/// Snapshot of all completed spans across all threads, sorted by start
/// time. Call outside parallel regions only.
std::vector<TraceEvent> collect_trace();

/// Drop all recorded spans (buffers stay registered).
void clear_trace();

/// Spans recorded so far (cheap sum over thread buffers; approximate while
/// threads are still recording).
size_t trace_event_count();

/// Record an already-measured interval as a completed span, parented under
/// the calling thread's trace context (ids allocated as for Span). For
/// durations whose endpoints live on different threads — e.g. the server's
/// queue-wait, stamped at enqueue and closed when the executor picks the
/// campaign up. No-op unless tracing is enabled.
void record_span(const char* category, const std::string& name,
                 int64_t start_ns, int64_t dur_ns);

/// Label embedded in this process's trace export so `trace --merge` can
/// name the process row ("serve", "worker", ...). Default "goldeneye".
void set_trace_process_label(const std::string& label);

/// Chrome trace_event JSON for the current trace ({"traceEvents": [...]}).
/// One event per line; the first event is a `ph:"M"` metadata record
/// carrying the process label and the steady→unix epoch offset that
/// `trace --merge` uses to align timelines from different processes.
std::string chrome_trace_json();

/// Write chrome_trace_json() to `path`. Returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

// --- counters --------------------------------------------------------------

/// Fixed process-wide counters for the hot paths. Keep in sync with
/// counter_name() in telemetry.cpp.
enum class Counter : int {
  kElementsQuantized = 0,  ///< elements through quantize_tensor_inplace
  kSaturations,            ///< clamped/overflowed during quantization
  kNanInputs,              ///< NaN inputs seen by quantization
  kInfInputs,              ///< +-Inf inputs seen by quantization
  kInjections,             ///< faults armed (value, weight or metadata)
  kTrials,                 ///< campaign trials completed
  kFormatCacheHits,        ///< registry prototype cache hits
  kFormatCacheMisses,      ///< registry prototype cache misses (parses)
  kPoolJobs,               ///< top-level parallel_for invocations
  kPoolChunks,             ///< chunks executed on pool workers
  kSpansDropped,           ///< spans discarded by the per-thread cap
  kAllocationsAvoided,     ///< tensor copies satisfied by storage sharing
  kCowCopies,              ///< shared storage detached by a mutable access
  kCowBytes,               ///< bytes duplicated by those detaches
  kArenaReuses,            ///< storage blocks recycled from a thread arena
  kArenaEvictions,         ///< cached blocks dropped by the freelist cap
  kCheckpointWrites,       ///< campaign checkpoint files written (ge::io)
  kCampaignResumes,        ///< campaigns continued from a checkpoint
  kPrefixCacheHits,        ///< trials executed as a suffix replay
  kSuffixLayersSkipped,    ///< module invocations served from the cache
  kPrefixCacheBytes,       ///< golden activation bytes kept by the cache
  kNetRequests,            ///< campaign-service requests accepted (ge::net)
  kNetLeasesGranted,       ///< trial-range leases handed to workers
  kNetLeaseReclaims,       ///< leases reclaimed (worker died or timed out)
  kNetFramesSent,          ///< protocol frames written to sockets
  kNetFramesReceived,      ///< protocol frames read from sockets
  kNetLeaseStragglers,     ///< live leases flagged below the fleet median
  kSlicedReplays,          ///< suffix replays run on the one sample reached
  kCount
};

/// Stable snake_case name for report keys, e.g. "elements_quantized".
const char* counter_name(Counter c);

namespace detail {
extern std::atomic<uint64_t> g_counters[static_cast<int>(Counter::kCount)];
}  // namespace detail

/// Add `n` to a counter; no-op unless metrics are enabled.
inline void add(Counter c, uint64_t n = 1) noexcept {
  if (!metrics_enabled()) return;
  detail::g_counters[static_cast<int>(c)].fetch_add(n,
                                                    std::memory_order_relaxed);
}

uint64_t counter_value(Counter c);
void reset_counters();

// --- gauges ----------------------------------------------------------------

/// Set a named gauge (last-write-wins double, e.g. "campaign.trials_per_sec").
/// No-op unless metrics are enabled.
void set_gauge(const std::string& name, double value);
std::vector<std::pair<std::string, double>> gauges();
void reset_gauges();

// --- quantization statistics -----------------------------------------------

/// Scan a bulk-quantisation result and bump the quantization counters:
/// elements, NaN/Inf inputs, and saturation events (|out| clamped at the
/// format's abs_max, or overflowed to Inf from a finite input). Called by
/// every format's NumberFormat::quantize_tensor_inplace kernel; no-op
/// unless metrics are enabled, so the extra pass costs nothing in normal
/// runs.
void record_quantization(const float* before, const float* after, int64_t n,
                         double abs_max);

/// Per-layer quantization-error aggregate, accumulated across every
/// emulated forward pass through the layer's activation hook.
struct QuantErrorSummary {
  uint64_t elements = 0;
  uint64_t saturated = 0;      ///< |after| landed on the format's abs_max
  double sum_abs_err = 0.0;    ///< sum |before - after| (finite pairs)
  double max_abs_err = 0.0;
  double mean_abs_err() const {
    return elements > 0 ? sum_abs_err / static_cast<double>(elements) : 0.0;
  }
  double saturation_rate() const {
    return elements > 0
               ? static_cast<double>(saturated) / static_cast<double>(elements)
               : 0.0;
  }
};

/// Accumulate |before - after| stats for one emulated activation tensor at
/// `layer`. Thread-safe; no-op unless metrics are enabled.
void record_layer_quant_error(const std::string& layer, const float* before,
                              const float* after, int64_t n, double abs_max);

/// Snapshot of per-layer summaries, sorted by layer path.
std::vector<std::pair<std::string, QuantErrorSummary>> layer_quant_summaries();
void reset_layer_quant_summaries();

/// Reset counters, gauges, per-layer summaries, histograms, profiler
/// aggregates and the trace in one call (the CLI does this at the start
/// of every telemetry-enabled invocation).
void reset_all();

/// Zero the profiler's span aggregates (defined in obs/profiler.cpp; the
/// full profiler API lives in obs/profiler.hpp).
void reset_profile();

// --- build / process identity ----------------------------------------------

/// Version string baked in at configure time (GE_BUILD_VERSION), "dev" in
/// ad-hoc builds. Rendered as the ge_build_info{version=...} label.
const char* build_version();

/// Short git commit baked in at configure time (GE_BUILD_COMMIT),
/// "unknown" outside a git checkout.
const char* build_commit();

/// Seconds since this process initialised telemetry (static init) — the
/// ge_uptime_seconds gauge.
double uptime_seconds();

/// Nanoseconds on CLOCK_REALTIME (the unix epoch). Paired with now_ns()
/// this yields the steady→unix offset used to align traces across
/// processes on the same machine.
int64_t unix_now_ns();

// --- logging ---------------------------------------------------------------

/// Verbosity for log(): 0 = silent (default), 1 = progress, 2 = debug.
void set_log_level(int level);
int log_level();

/// Write "[ge] msg" to stderr when `level` <= log_level().
void log(int level, const std::string& msg);

}  // namespace ge::obs
