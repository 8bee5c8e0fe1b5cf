#include "fdb/obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "fdb/obs/metrics.h"

namespace fdb {
namespace obs {

namespace {

uint64_t CurrentTid() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff;
}

std::string NumberToString(const TraceNote& n) {
  if (n.is_integer) {
    return std::to_string(static_cast<int64_t>(n.number));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", n.number);
  return buf;
}

std::string FormatMs(int64_t dur_ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(dur_ns) / 1e6);
  return buf;
}

}  // namespace

int Trace::Begin(const std::string& name) {
  base::MutexLock lock(&mu_);
  TraceSpan s;
  s.name = name;
  s.start_ns = NowNs();
  s.tid = CurrentTid();
  if (!open_.empty()) {
    s.parent = open_.back();
    s.depth = spans_[open_.back()].depth + 1;
  }
  int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  return id;
}

void Trace::End(int id) {
  base::MutexLock lock(&mu_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return;
  int64_t now = NowNs();
  // Close anything left open inside `id` too, so an exception unwinding
  // through nested scopes still yields well-formed spans.
  while (!open_.empty()) {
    int top = open_.back();
    open_.pop_back();
    if (spans_[top].dur_ns < 0) spans_[top].dur_ns = now - spans_[top].start_ns;
    if (top == id) break;
  }
}

void Trace::NoteStr(int id, const std::string& key, const std::string& value) {
  base::MutexLock lock(&mu_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return;
  TraceNote n;
  n.key = key;
  n.text = value;
  spans_[id].notes.push_back(std::move(n));
}

void Trace::NoteInt(int id, const std::string& key, int64_t value) {
  base::MutexLock lock(&mu_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return;
  TraceNote n;
  n.key = key;
  n.number = static_cast<double>(value);
  n.is_number = true;
  n.is_integer = true;
  spans_[id].notes.push_back(std::move(n));
}

void Trace::NoteDouble(int id, const std::string& key, double value) {
  base::MutexLock lock(&mu_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return;
  TraceNote n;
  n.key = key;
  n.number = value;
  n.is_number = true;
  spans_[id].notes.push_back(std::move(n));
}

int Trace::AddComplete(const std::string& name, int64_t start_ns,
                       int64_t dur_ns) {
  base::MutexLock lock(&mu_);
  TraceSpan s;
  s.name = name;
  s.start_ns = start_ns;
  s.dur_ns = dur_ns < 0 ? 0 : dur_ns;
  s.tid = CurrentTid();
  if (!open_.empty()) {
    s.parent = open_.back();
    s.depth = spans_[open_.back()].depth + 1;
  }
  int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  return id;
}

std::vector<TraceSpan> Trace::Spans() const {
  base::MutexLock lock(&mu_);
  return spans_;
}

std::string Trace::ToChromeJson() const {
  std::vector<TraceSpan> spans = Spans();
  // chrome://tracing wants microsecond timestamps; rebase on the earliest
  // span so numbers stay small.
  int64_t base = 0;
  for (const TraceSpan& s : spans) {
    if (base == 0 || s.start_ns < base) base = s.start_ns;
  }
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& s : spans) {
    if (!first) out << ",";
    first = false;
    int64_t dur = s.dur_ns < 0 ? 0 : s.dur_ns;
    out << "{\"name\":\"" << JsonEscape(s.name) << "\",\"ph\":\"X\",\"ts\":"
        << (s.start_ns - base) / 1000 << "." << (s.start_ns - base) % 1000
        << ",\"dur\":" << dur / 1000 << "." << dur % 1000
        << ",\"pid\":1,\"tid\":" << s.tid;
    if (!s.notes.empty()) {
      out << ",\"args\":{";
      bool afirst = true;
      for (const TraceNote& n : s.notes) {
        if (!afirst) out << ",";
        afirst = false;
        out << "\"" << JsonEscape(n.key) << "\":";
        if (n.is_number) {
          out << NumberToString(n);
        } else {
          out << "\"" << JsonEscape(n.text) << "\"";
        }
      }
      out << "}";
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

std::string ExplainReport(const Trace& trace) {
  std::vector<TraceSpan> spans = trace.Spans();
  // Render children under their parents, siblings in start order.
  std::vector<std::vector<int>> children(spans.size() + 1);
  std::vector<int> roots;
  for (int i = 0; i < static_cast<int>(spans.size()); ++i) {
    if (spans[i].parent >= 0) {
      children[spans[i].parent].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  auto by_start = [&](int a, int b) {
    return spans[a].start_ns < spans[b].start_ns;
  };
  std::stable_sort(roots.begin(), roots.end(), by_start);
  for (auto& c : children) std::stable_sort(c.begin(), c.end(), by_start);

  std::ostringstream out;
  std::vector<int> stack(roots.rbegin(), roots.rend());
  while (!stack.empty()) {
    int i = stack.back();
    stack.pop_back();
    const TraceSpan& s = spans[i];
    for (int d = 0; d < s.depth; ++d) out << "  ";
    out << s.name << ": " << FormatMs(s.dur_ns < 0 ? 0 : s.dur_ns) << " ms";
    for (const TraceNote& n : s.notes) {
      out << "  " << n.key << "=";
      if (n.is_number) {
        out << NumberToString(n);
      } else {
        out << n.text;
      }
    }
    out << "\n";
    for (auto it = children[i].rbegin(); it != children[i].rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out.str();
}

}  // namespace obs
}  // namespace fdb
