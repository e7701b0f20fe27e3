#include "trace.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>


namespace perfbench {

int Spans::begin(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, open_.empty() ? -1 : open_.back(), now_s(), 0.0, 1});
  open_.push_back(id);
  return id;
}

double Spans::end(int id, std::size_t calls) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now_s();
  s.calls = calls;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  return s.end - s.start;
}

double Spans::last(const char* name) const {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (std::strcmp(it->name, name) == 0) return it->end - it->start;
  }
  return -1.0;
}

void Spans::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = s.end - s.start;
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_s\": %.9f, \"dur_s\": %.9f, \"self_s\": %.9f, "
                 "\"calls\": %zu}%s\n",
                 i, s.name, s.parent, s.start - t0, dur, dur - child_time[i],
                 s.calls, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

}  // namespace perfbench
