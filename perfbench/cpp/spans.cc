#include "spans.h"

#include <fstream>

#include "util/json.h"

namespace perfbench {

long long SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::Open(const std::string& name) {
  Record record;
  record.name = name;
  record.parent = open_.empty() ? -1 : open_.back();
  record.start_ns = NowNs();
  records_.push_back(std::move(record));
  open_.push_back(static_cast<int>(records_.size()) - 1);
  return open_.back();
}

void SpanLog::Close(int index) {
  records_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"spans\":[";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":"
        << tailormatch::json::Quote(record.name)
        << ",\"parent\":" << record.parent
        << ",\"start_ns\":" << record.start_ns
        << ",\"end_ns\":" << record.end_ns << "}";
  }
  out << "]}\n";
  return out.good();
}

}  // namespace perfbench
