#include "rtkernel/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace nlft::rt {

std::string renderGantt(const std::vector<ExecutionSegment>& trace, Duration resolution,
                        Duration horizon) {
  if (resolution <= Duration{}) throw std::invalid_argument("renderGantt: bad resolution");
  if (trace.empty()) return "";

  Duration end = horizon;
  if (end <= Duration{}) {
    for (const ExecutionSegment& segment : trace) {
      end = std::max(end, segment.end - SimTime::zero());
    }
  }
  const auto columns = static_cast<std::size_t>((end + resolution - Duration::microseconds(1)) /
                                                resolution);

  std::vector<std::string_view> labels;
  for (const ExecutionSegment& segment : trace) {
    if (std::find(labels.begin(), labels.end(), segment.label) == labels.end()) {
      labels.push_back(segment.label);
    }
  }
  std::size_t width = 0;
  for (const std::string_view label : labels) width = std::max(width, label.size());

  std::vector<std::string> rows(labels.size(), std::string(columns, '.'));
  for (const ExecutionSegment& segment : trace) {
    const std::size_t row =
        std::find(labels.begin(), labels.end(), segment.label) - labels.begin();
    const std::int64_t first = (segment.start - SimTime::zero()) / resolution;
    // Last column touched: segment.end is exclusive.
    const std::int64_t last =
        (segment.end - SimTime::zero() - Duration::microseconds(1)) / resolution;
    for (std::int64_t column = first; column <= last; ++column) {
      if (column >= 0 && static_cast<std::size_t>(column) < columns) {
        rows[row][static_cast<std::size_t>(column)] = '#';
      }
    }
  }

  std::string output;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    output += labels[i];
    output.append(width - labels[i].size(), ' ');
    output += " |";
    output += rows[i];
    output += "\n";
  }
  return output;
}

}  // namespace nlft::rt
