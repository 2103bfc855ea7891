#include "obs/trace.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace nlft::obs {

void TraceRecorder::setProcessName(std::uint32_t pid, const std::string& name) {
  TraceEvent e;
  e.name = "process_name";
  e.phase = 'M';
  e.pid = pid;
  e.tid = 0;
  e.argKey = "name";
  e.argValue = name;
  events_.push_back(std::move(e));
}

void TraceRecorder::setThreadName(std::uint32_t pid, std::uint32_t tid, const std::string& name) {
  TraceEvent e;
  e.name = "thread_name";
  e.phase = 'M';
  e.pid = pid;
  e.tid = tid;
  e.argKey = "name";
  e.argValue = name;
  events_.push_back(std::move(e));
}

void TraceRecorder::instant(std::uint32_t pid, std::uint32_t tid, const std::string& name,
                            const std::string& category, util::SimTime at,
                            const std::string& detail) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = 'i';
  e.tsUs = at.us();
  e.pid = pid;
  e.tid = tid;
  if (!detail.empty()) {
    e.argKey = "detail";
    e.argValue = detail;
  }
  events_.push_back(std::move(e));
}

void TraceRecorder::complete(std::uint32_t pid, std::uint32_t tid, const std::string& name,
                             const std::string& category, util::SimTime start,
                             util::Duration duration) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = 'X';
  e.tsUs = start.us();
  e.durUs = duration.us();
  e.pid = pid;
  e.tid = tid;
  events_.push_back(std::move(e));
}

std::uint64_t TraceRecorder::countCategory(const std::string& category) const {
  std::uint64_t n = 0;
  for (const TraceEvent& e : events_) {
    if (e.phase != 'M' && e.category == category) ++n;
  }
  return n;
}

std::uint64_t TraceRecorder::countEvents(const std::string& category,
                                         const std::string& name) const {
  std::uint64_t n = 0;
  for (const TraceEvent& e : events_) {
    if (e.phase != 'M' && e.category == category && e.name == name) ++n;
  }
  return n;
}

std::string TraceRecorder::toJson() const {
  // Events are appended in recording order and emitted in that order; Chrome
  // and Perfetto sort by ts themselves, so no reordering is needed here and
  // the export stays a pure function of the recorded sequence.
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events_) {
    if (!first) out += ',';
    first = false;
    out += "\n  {\"name\": \"";
    out += jsonEscape(e.name);
    out += "\", \"ph\": \"";
    out += e.phase;
    out += "\", \"pid\": ";
    out += std::to_string(e.pid);
    out += ", \"tid\": ";
    out += std::to_string(e.tid);
    if (e.phase != 'M') {
      out += ", \"ts\": ";
      out += std::to_string(e.tsUs);
      out += ", \"cat\": \"";
      out += jsonEscape(e.category);
      out += '"';
      if (e.phase == 'X') {
        out += ", \"dur\": ";
        out += std::to_string(e.durUs);
      }
      if (e.phase == 'i') {
        out += ", \"s\": \"t\"";  // thread-scoped instant
      }
    }
    if (!e.argKey.empty()) {
      out += ", \"args\": {\"";
      out += jsonEscape(e.argKey);
      out += "\": \"";
      out += jsonEscape(e.argValue);
      out += "\"}";
    }
    out += '}';
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

void TraceRecorder::writeJsonFile(const std::string& path) const {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error("TraceRecorder: cannot open " + path);
  out << toJson();
  if (!out) throw std::runtime_error("TraceRecorder: write failed for " + path);
}

}  // namespace nlft::obs
