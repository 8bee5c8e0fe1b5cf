#ifndef FDB_OBS_TRACE_H_
#define FDB_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fdb/base/thread_annotations.h"

namespace fdb {
namespace obs {

/// Span-based query tracing.
///
/// A Trace records one span per execution phase (parse → bind → optimise
/// → build → op pipeline → enumerate/aggregate), each with wall time and
/// a bag of key/value notes (cardinalities, factorisation stats). The
/// engines thread a Trace* through their options; a null pointer means
/// tracing is off and every call on the RAII SpanScope below is a no-op
/// that neither allocates nor reads the clock — the fast path stays fast.
///
/// Nesting is tracked with an open-span stack on the coordinating thread
/// (Begin/End); work that happened on other threads or in the past is
/// attached retroactively with AddComplete (thread-safe, parentless).
/// Exporters: ExplainReport renders the indented EXPLAIN ANALYZE tree,
/// ToChromeJson writes a chrome://tracing-compatible trace-event file.

/// One key/value annotation on a span. Numeric values keep their own
/// representation so exporters can emit unquoted JSON numbers.
struct TraceNote {
  std::string key;
  std::string text;       ///< used when !is_number
  double number = 0.0;    ///< used when is_number
  bool is_number = false;
  bool is_integer = false;  ///< render without decimals
};

/// One timed phase. dur_ns is -1 while the span is still open.
struct TraceSpan {
  std::string name;
  int64_t start_ns = 0;
  int64_t dur_ns = -1;
  int parent = -1;  ///< index into the span list, -1 for roots
  int depth = 0;
  uint64_t tid = 0;
  std::vector<TraceNote> notes;
};

class Trace {
 public:
  Trace() = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Opens a span nested under the innermost open span; returns its id.
  int Begin(const std::string& name);
  /// Closes span `id` (and anything left open inside it).
  void End(int id);

  void NoteStr(int id, const std::string& key, const std::string& value);
  void NoteInt(int id, const std::string& key, int64_t value);
  void NoteDouble(int id, const std::string& key, double value);

  /// Records an already-finished span retroactively (parented under the
  /// innermost open span, if any). Thread-safe; used for phases measured
  /// before the trace existed (parse) and per-op timings reconstructed
  /// from operator stats.
  int AddComplete(const std::string& name, int64_t start_ns, int64_t dur_ns);

  /// Copy of all spans, in creation order (parents precede children).
  std::vector<TraceSpan> Spans() const;

  /// chrome://tracing trace-event JSON ({"traceEvents":[...]}).
  std::string ToChromeJson() const;

 private:
  mutable base::Mutex mu_;
  std::vector<TraceSpan> spans_ GUARDED_BY(mu_);
  /// Stack of open span ids (coordinator thread).
  std::vector<int> open_ GUARDED_BY(mu_);
};

/// RAII span that is a complete no-op (no clock read, no allocation) when
/// the trace pointer is null. `name` must outlive the scope — pass string
/// literals.
class SpanScope {
 public:
  SpanScope(Trace* t, const char* name)
      : t_(t), id_(t != nullptr ? t->Begin(name) : -1) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Span id for attaching notes, -1 when tracing is off.
  int id() const { return id_; }
  Trace* trace() const { return t_; }

  void NoteStr(const std::string& key, const std::string& value) {
    if (t_ != nullptr) t_->NoteStr(id_, key, value);
  }
  void NoteInt(const std::string& key, int64_t value) {
    if (t_ != nullptr) t_->NoteInt(id_, key, value);
  }
  void NoteDouble(const std::string& key, double value) {
    if (t_ != nullptr) t_->NoteDouble(id_, key, value);
  }

 private:
  Trace* t_;
  int id_;
};

/// Renders the EXPLAIN ANALYZE report: a depth-indented phase tree with
/// per-span wall time and notes.
std::string ExplainReport(const Trace& trace);

}  // namespace obs
}  // namespace fdb

#endif  // FDB_OBS_TRACE_H_
