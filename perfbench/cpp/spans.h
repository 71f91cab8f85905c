// In-memory span recorder for the traced probe. Spans are appended to a
// vector while the probe runs and written once at the end; self time is
// derived from the file (perfbench/benchlib/spans.py), not here.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Record {
    std::string name;
    int parent = -1;  // index into the log, -1 for a root
    long long start_ns = 0;
    long long end_ns = 0;
  };

  // Opens a span under the innermost open span (single-threaded use).
  int Open(const std::string& name);
  void Close(int index);

  // {"spans":[{"name":..,"parent":..,"start_ns":..,"end_ns":..},...]}
  bool Write(const std::string& path) const;

 private:
  long long NowNs() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Record> records_;
  std::vector<int> open_;
};

// RAII span: SpanLog::Open on construction, Close on destruction.
class Span {
 public:
  Span(SpanLog* log, const std::string& name)
      : log_(log), index_(log->Open(name)) {}
  ~Span() { log_->Close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
